(** Declarative fault injection ("nemesis") for the simulated cluster.

    A schedule is a list of [(time, fault)] entries applied against the
    running cluster's discrete-event clock — crash the primary at 200 ms,
    cut {0,1} off from {2,3} for 100 ms, open a 2% loss window, and so on.
    Schedules live in {!Params.t} (field [nemesis]), so any experiment can
    be made adversarial without code changes; {!Cluster.create} installs
    them automatically.

    Times are absolute simulation time (warmup starts at 0), in
    nanoseconds; {!at_ms} and the [*_window] helpers cover the common
    cases. *)

(** What a byzantine replica is currently doing.  Each replica has exactly
    one behavior at a time — installing a new one replaces the old, and
    [Honest] restores normal operation.  Behaviors are enacted by an
    adversarial interposition layer on the replica's {e outbound} network
    links ([Rdb_net.Net.set_interpose]), so the consensus cores themselves
    run unmodified and are attacked from outside. *)
type behavior =
  | Honest  (** no interference (the initial state of every replica) *)
  | Equivocating
      (** when proposing, send conflicting proposals for the same sequence
          number to disjoint replica subsets (different batch digests per
          subset) *)
  | Corrupting_digest of float
      (** tamper the batch digest of outbound proposals at the given rate:
          the authenticator still verifies but the content hash does not *)
  | Corrupting_mac of float
      (** forge the MAC/signature of outbound protocol messages at the
          given rate: receivers pay full verification cost, then reject *)
  | Silent_towards of int list
      (** suppress every message towards the listed peers while speaking
          normally to everyone else — distinct from a crash, which is total
          and detectable *)
  | Spamming_view_changes of Rdb_des.Sim.time
      (** broadcast a bogus view-change message every [period]
          nanoseconds, trying to stampede the cluster into needless view
          changes *)

type fault =
  | Crash_primary
      (** crash whatever replica is primary at the scheduled instant *)
  | Crash_instance_primary of int
      (** multi-primary deployments ({!Params.t}[.instances] > 1): crash the
          replica currently leading the given consensus instance (taken
          modulo the instance count), exercising that instance's view change
          while its siblings keep ordering *)
  | Crash of int  (** crash one replica (fail-stop) *)
  | Recover of int
  | Partition of { name : string; side_a : int list; side_b : int list }
      (** cut all traffic between the two (disjoint) replica sets *)
  | Heal of string  (** remove the named partition *)
  | Loss of float  (** set the global per-message drop probability *)
  | Duplication of float  (** set the global duplication probability *)
  | Extra_jitter of Rdb_des.Sim.time
      (** set the additional reordering jitter on every link *)
  | Equivocate of int  (** make the replica {!behavior.Equivocating} *)
  | Corrupt_digest of { node : int; rate : float }
      (** make the replica corrupt outbound proposal digests at [rate]
          ({!behavior.Corrupting_digest}) *)
  | Corrupt_mac of { node : int; rate : float }
      (** make the replica forge outbound MACs at [rate]
          ({!behavior.Corrupting_mac}) *)
  | Silence of { node : int; peers : int list }
      (** make the replica drop all its traffic towards [peers]
          ({!behavior.Silent_towards}) *)
  | View_change_spam of { node : int; period : Rdb_des.Sim.time }
      (** make the replica broadcast a bogus view change every [period]
          nanoseconds ({!behavior.Spamming_view_changes}) *)
  | Restore_honest of int
      (** end the replica's byzantine behavior ({!behavior.Honest}) *)

type entry = { at : Rdb_des.Sim.time; fault : fault }

type schedule = entry list

(** {2 Schedule combinators}

    Schedules are plain lists, so they compose by concatenation:
    [crash_primary_at (Sim.ms 200.0) @ loss_window ~from_:(Sim.ms 300.0)
    ~until:(Sim.ms 500.0) 0.02] crashes the primary {e and} opens a loss
    window, in one schedule.  Entries need not be sorted — each is scheduled
    independently on the DES clock. *)

val at : Rdb_des.Sim.time -> fault -> entry
(** One entry at an absolute simulation time (nanoseconds). *)

val at_ms : float -> fault -> entry
(** {!at} with the time given in milliseconds. *)

val loss_window : from_:Rdb_des.Sim.time -> until:Rdb_des.Sim.time -> float -> schedule
(** Loss at the given rate between [from_] and [until], then back to 0.
    Raises [Invalid_argument] when the window ends before it starts. *)

val duplication_window :
  from_:Rdb_des.Sim.time -> until:Rdb_des.Sim.time -> float -> schedule
(** Message duplication at the given rate over the window, then back to 0. *)

val partition_window :
  from_:Rdb_des.Sim.time ->
  until:Rdb_des.Sim.time ->
  name:string ->
  int list ->
  int list ->
  schedule
(** Named partition installed at [from_] and healed at [until].  The name
    lets several overlapping partitions coexist and be healed
    independently. *)

val crash_primary_at : Rdb_des.Sim.time -> schedule
(** Crash whichever replica is primary at that instant (resolved at
    injection time, so it follows view changes that happened before). *)

val crash_instance_primary_at : Rdb_des.Sim.time -> int -> schedule
(** [crash_instance_primary_at time i]: crash the current primary of
    consensus instance [i] (multi-primary deployments; see
    {!fault.Crash_instance_primary}). *)

val equivocate_window : from_:Rdb_des.Sim.time -> until:Rdb_des.Sim.time -> int -> schedule
(** The replica equivocates over the window, then returns to honesty. *)

val corrupt_digest_window :
  from_:Rdb_des.Sim.time -> until:Rdb_des.Sim.time -> int -> float -> schedule
(** The replica corrupts outbound proposal digests at the given rate over
    the window, then returns to honesty. *)

val corrupt_mac_window :
  from_:Rdb_des.Sim.time -> until:Rdb_des.Sim.time -> int -> float -> schedule
(** The replica forges outbound MACs at the given rate over the window,
    then returns to honesty. *)

val silence_window :
  from_:Rdb_des.Sim.time -> until:Rdb_des.Sim.time -> int -> int list -> schedule
(** The replica suppresses all traffic towards the listed peers over the
    window, then returns to honesty. *)

val view_change_spam_window :
  from_:Rdb_des.Sim.time ->
  until:Rdb_des.Sim.time ->
  int ->
  period:Rdb_des.Sim.time ->
  schedule
(** The replica broadcasts a bogus view change every [period] nanoseconds
    over the window, then returns to honesty. *)

val behavior_of_fault : fault -> behavior option
(** The behavior a byzantine fault installs ([None] for network and crash
    faults). *)

val is_byzantine : fault -> bool
(** [true] for the attack strategies ({!fault.Equivocate},
    {!fault.Corrupt_digest}, {!fault.Corrupt_mac}, {!fault.Silence},
    {!fault.View_change_spam}); [false] for {!fault.Restore_honest} and all
    network/crash faults. *)

val attacker_of : fault -> int option
(** The replica a byzantine fault (or restoration) targets. *)

val describe : fault -> string

val validate : n:int -> schedule -> unit
(** Raises [Invalid_argument] on out-of-range replica ids, overlapping
    partition sides, rates outside [\[0, 1)], negative times, or a schedule
    whose distinct byzantine attackers exceed f = ⌊(n−1)/3⌋ (the bound the
    hardening guarantees cover). *)

(** {2 Random schedule generation}

    One source for randomized fault schedules, shared by the fault-campaign
    harness ([Rdb_campaign]), the qcheck safety properties
    ([test/testkit.ml] wraps these into QCheck generators) and the
    examples.  Every draw comes from the caller's deterministic
    {!Rdb_des.Rng.t}, so a (family, seed) pair names one schedule forever —
    the property campaign reports depend on.  Generated times target
    sub-second runs: faults land inside the first ~450 ms in 20–120 ms
    windows, except {!Gen.family.Heavy_loss}, which deliberately covers
    most of the run. *)

module Gen : sig
  (** A schedule {e family}: a named distribution over schedules, the
      fault axis of a campaign matrix cell. *)
  type family =
    | Fault_free  (** the empty schedule — every cell's throughput twin *)
    | Crashes  (** one fail-stop crash (primary or random backup) *)
    | Partitions  (** one half-vs-half partition window *)
    | Loss  (** one 10% loss window *)
    | Heavy_loss
        (** one 35–55% loss window covering most of the run: the
            liveness-cliff probe (see EXPERIMENTS.md "Fault campaigns") *)
    | Duplication  (** one 20% duplication window *)
    | Byzantine
        (** one attacker window drawn from the five adversarial behaviors
            (single attacker, so always within the f bound) *)
    | Mixed  (** {!random_benign} plus, half the time, an attacker window *)

  val all_families : family list

  val family_name : family -> string
  (** Stable wire name (["none"], ["crash"], ["partition"], ["loss"],
      ["heavy-loss"], ["dup"], ["byzantine"], ["mixed"]) used in campaign
      reports and CLI flags. *)

  val family_of_name : string -> family option

  val generate : family -> n:int -> Rdb_des.Rng.t -> schedule
  (** Draw one schedule of the family for an [n]-replica deployment.  The
      result always passes {!validate} for that [n]. *)

  val random_benign : n:int -> Rdb_des.Rng.t -> schedule
  (** The benign mix thrown at small clusters by the qcheck safety
      properties: optional crash, partition window, loss window,
      duplication window and jitter spike, each present with probability
      1/2. *)

  val random_attack : n:int -> Rdb_des.Rng.t -> schedule
  (** One byzantine attacker window (one replica, one of the five
      strategies, bounded interval, honesty restored after). *)

  val random_schedule : n:int -> Rdb_des.Rng.t -> schedule
  (** {!random_benign} plus, half the time, {!random_attack}: the full
      fault model the cluster-level safety properties run under. *)
end

(** {2 Driving a schedule}

    The cluster exposes itself as a narrow capability record; {!install}
    schedules every entry on the DES clock. *)

type driver = {
  sim : Rdb_des.Sim.t;
  current_primary : unit -> int;
  current_instance_primary : int -> int;
      (** the replica leading one consensus instance right now (instance
          taken modulo the deployment's instance count) *)
  crash : int -> unit;
  recover : int -> unit;
  partition : name:string -> int list -> int list -> unit;
  heal : name:string -> unit;
  set_loss : float -> unit;
  set_duplication : float -> unit;
  set_extra_jitter : Rdb_des.Sim.time -> unit;
  set_behavior : node:int -> behavior -> unit;
      (** install (or with {!behavior.Honest}, remove) a byzantine behavior
          on one replica's outbound links *)
  note : fault -> unit;  (** observation hook, fired as each fault is injected *)
}

val apply : driver -> fault -> unit
(** Inject one fault immediately. *)

val install : driver -> schedule -> unit
(** Schedule every entry of the schedule on [driver.sim]. *)
