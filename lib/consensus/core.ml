(** One first-class-module interface over the four protocol cores (PBFT,
    HotStuff, Zyzzyva, multi-primary PBFT).

    Two hosts drive the cores, and only through this module:
    {!Rdb_core.Cluster}, the discrete-event deployment, and
    {!Rdb_core.Replica_host}, the real-clock host that both
    {!Rdb_core.Local_runtime} and [bin/resdb_node] wrap.  Each core is
    packed behind one signature, so host-level features (demand timers,
    state transfer, checkpoint installation) are written once per host and
    a new core slots in without touching either.

    Beneath this seam the PBFT and HotStuff cores share one replication
    envelope, {!Replica_log}: execution hand-off, checkpoints and view
    change are written once there, and each core keeps only its ordering
    phases.  Both present {!Replica_log.REPLICA}, so one functor,
    {!Single}, packs either.

    The cores themselves stay imperative; [step] returns the state anyway
    (physically the same value today) so a pure core can implement the
    same signature later. *)

(** Host-level stimuli, beyond proposing.  Instance arguments are 0 for
    single-instance protocols. *)
type input =
  | Deliver of { inst : int; msg : Message.t }  (** a protocol message arrived *)
  | Executed of { seq : int; state_digest : string; result : string }
      (** the execution stage finished the batch at global [seq] *)
  | Suspect of int  (** demand timer: depose instance's primary *)
  | Nudge of int  (** demand timer: retransmit votes for the stuck slot *)
  | Vc_retransmit of int  (** demand timer: re-broadcast a pending View_change *)
  | Keepalive of int  (** demand timer: plug a led instance's frontier *)
  | Install_checkpoint of { seq : int; state_digest : string }
      (** state-transfer admit: fast-forward to a verified stable
          checkpoint (the host already installed the ledger segment) *)

type defense = { equivocations : int; vc_suppressed : int }
(** Byzantine-defense counters a core accumulates: conflicting proposals
    observed for an occupied slot (evidence of an equivocating primary)
    and view-change messages discarded by the spam rate limit.  Multi-core
    deployments report the sum over their instances. *)

module type CORE = sig
  type state

  val protocol : string

  val demand_driven : bool
  (** whether the host should arm the demand (view-change) timer for this
      protocol; false for client-driven recovery (Zyzzyva) *)

  val instances : state -> int
  val view : state -> inst:int -> int
  val max_view : state -> int
  val leads : state -> inst:int -> bool
  val leads_any : state -> bool
  val last_executed : state -> int
  val last_stable : state -> int
  val in_view_change : state -> inst:int -> bool

  val escalation : state -> pending:bool -> inflight:bool -> int option
  (** Which instance the demand timer should escalate against, given
      whether this host holds queued ([pending]) or batched-but-unexecuted
      ([inflight]) client transactions; [None] when there is nothing to
      escalate. *)

  val stable_certificate : state -> (int * string * int list) option
  (** last stable checkpoint as [(seq, state_digest, senders)], for
      state-transfer donors; [None] when this core cannot prove one *)

  val defenses : state -> defense
  (** byzantine-defense counters accumulated so far (see {!defense}) *)

  val propose :
    state ->
    reqs:Message.request_ref list ->
    digest:string ->
    wire_bytes:int ->
    Message.batch option * (int * Action.t) list * int
  (** Returns the accepted batch (if leading), instance-tagged actions,
      and the instance the proposal went to (0 for single-instance). *)

  val step : state -> input -> state * (int * Action.t) list
  (** Feed one input; returns the (possibly updated) state and
      instance-tagged actions. *)
end

(* ---- PBFT and HotStuff: single-instance cores over Replica_log --------- *)

module Single (R : Replica_log.REPLICA) = struct
  type state = R.t

  let protocol = R.protocol

  (* Unserved demand escalates nudge -> suspect through the host's demand
     timer; for HotStuff that timer IS the pacemaker (see the pacemaker
     contract in hotstuff_replica.mli). *)
  let demand_driven = true
  let instances _ = 1
  let view s ~inst:_ = R.view s
  let max_view = R.view
  let leads s ~inst:_ = R.is_primary s
  let leads_any = R.is_primary
  let last_executed = R.last_executed
  let last_stable = R.last_stable_checkpoint
  let in_view_change s ~inst:_ = R.in_view_change s

  (* A backup holding unserved demand escalates against the (single)
     primary; the primary itself has no one to suspect. *)
  let escalation s ~pending ~inflight:_ = if pending && not (R.is_primary s) then Some 0 else None

  let stable_certificate = R.stable_certificate

  let defenses s =
    { equivocations = R.equivocations_detected s; vc_suppressed = R.vc_spam_suppressed s }

  let tag acts = List.map (fun a -> (0, a)) acts

  let propose s ~reqs ~digest ~wire_bytes =
    let b, acts = R.propose s ~reqs ~digest ~wire_bytes in
    (b, tag acts, 0)

  let step s input =
    let acts =
      match input with
      | Deliver { inst = _; msg } -> R.handle_message s msg
      | Executed { seq; state_digest; result } -> R.handle_executed s ~seq ~state_digest ~result
      | Suspect _ -> R.suspect_primary s
      | Nudge _ -> R.nudge s
      | Vc_retransmit _ -> R.view_change_retransmit s
      | Keepalive _ -> []
      | Install_checkpoint { seq; state_digest } ->
        R.install_checkpoint s ~seq ~state_digest;
        []
    in
    (s, tag acts)
end

module Pbft_core = Single (Pbft_replica)
module Hotstuff_core = Single (Hotstuff_replica)

(* ---- Zyzzyva ------------------------------------------------------------- *)

module Zyz_core = struct
  type state = Zyzzyva_replica.t

  let protocol = "zyzzyva"

  (* Zyzzyva's liveness is client-driven (commit certificates after the
     client timeout), not demand-timer-driven. *)
  let demand_driven = false
  let instances _ = 1
  let view _ ~inst:_ = 0
  let max_view _ = 0
  let leads s ~inst:_ = Zyzzyva_replica.is_primary s
  let leads_any = Zyzzyva_replica.is_primary
  let last_executed = Zyzzyva_replica.last_spec_executed
  let last_stable _ = 0
  let in_view_change _ ~inst:_ = false
  let escalation _ ~pending:_ ~inflight:_ = None
  let stable_certificate _ = None

  (* No view change in this core, so nothing to spam. *)
  let defenses s =
    { equivocations = Zyzzyva_replica.equivocations_detected s; vc_suppressed = 0 }

  let tag acts = List.map (fun a -> (0, a)) acts

  let propose s ~reqs ~digest ~wire_bytes =
    let b, acts = Zyzzyva_replica.propose s ~reqs ~digest ~wire_bytes in
    (b, tag acts, 0)

  let step s input =
    let acts =
      match input with
      | Deliver { inst = _; msg } -> Zyzzyva_replica.handle_message s msg
      | Executed { seq; state_digest; result } ->
        Zyzzyva_replica.handle_executed s ~seq ~state_digest ~result
      | Suspect _ | Nudge _ | Vc_retransmit _ | Keepalive _ | Install_checkpoint _ -> []
    in
    (s, tag acts)
end

(* ---- Multi-primary PBFT --------------------------------------------------- *)

module Multi_core = struct
  type state = {
    m : Multi_pbft.t;
    mutable next_lead : int;
        (** rotation cursor over the instances this host currently leads,
            so proposals spread across them *)
  }

  let protocol = "multi-pbft"
  let demand_driven = true
  let instances s = Multi_pbft.instances s.m
  let view s ~inst = Multi_pbft.view s.m ~inst
  let max_view s = Multi_pbft.max_view s.m
  let leads s ~inst = Multi_pbft.is_primary s.m ~inst
  let leads_any s = Multi_pbft.leads_any s.m
  let last_executed s = Multi_pbft.last_executed s.m
  let last_stable s = Multi_pbft.last_stable_checkpoint s.m
  let in_view_change s ~inst = Multi_pbft.in_view_change s.m ~inst

  (* The escalation aims at the instance the global execution merge is
     blocked on: that residue class is where the hole is.  Transactions this
     host already batched onto its own instances keep the escalation alive
     even though its queue is empty — they cannot complete until the blocked
     instance plugs the merge hole. *)
  let escalation s ~pending ~inflight =
    if pending || inflight then Some (Multi_pbft.waiting_instance s.m) else None

  (* The per-instance children garbage-collect against their own local
     checkpoints; a donor certificate over the merged global sequence is not
     available, so multi-primary hosts recover through per-instance
     checkpoint adoption instead of serving state transfers. *)
  let stable_certificate _ = None

  let defenses s =
    {
      equivocations = Multi_pbft.equivocations_detected s.m;
      vc_suppressed = Multi_pbft.vc_spam_suppressed s.m;
    }

  let route rs =
    List.map (fun (r : Multi_pbft.routed) -> (r.Multi_pbft.inst, r.Multi_pbft.act)) rs

  let propose s ~reqs ~digest ~wire_bytes =
    match Multi_pbft.led_instances s.m with
    | [] -> (None, [], 0)
    | led ->
      let inst = List.nth led (s.next_lead mod List.length led) in
      s.next_lead <- s.next_lead + 1;
      let b, r = Multi_pbft.propose s.m ~inst ~reqs ~digest ~wire_bytes in
      (b, route r, inst)

  let step s input =
    let acts =
      match input with
      | Deliver { inst; msg } -> Multi_pbft.handle_message s.m ~inst msg
      | Executed { seq; state_digest; result } ->
        Multi_pbft.handle_executed s.m ~seq ~state_digest ~result
      | Suspect inst -> Multi_pbft.suspect_primary s.m ~inst
      | Nudge inst -> Multi_pbft.nudge s.m ~inst
      | Vc_retransmit inst -> Multi_pbft.view_change_retransmit s.m ~inst
      | Keepalive inst -> Multi_pbft.keepalive s.m ~inst
      | Install_checkpoint _ -> []
    in
    (s, route acts)
end

(* ---- packing -------------------------------------------------------------- *)

type t = Core : (module CORE with type state = 's) * 's -> t

let pbft cfg ~id = Core ((module Pbft_core), Pbft_replica.create cfg ~id)
let hotstuff cfg ~id = Core ((module Hotstuff_core), Hotstuff_replica.create cfg ~id)
let zyzzyva cfg ~id = Core ((module Zyz_core), Zyzzyva_replica.create cfg ~id)

let multi cfg ~instances ~id =
  Core
    ( (module Multi_core),
      { Multi_core.m = Multi_pbft.create cfg ~instances ~id; next_lead = 0 } )

(* Packed dispatchers: host code calls these and never matches on the
   protocol again. *)

let protocol (Core ((module C), _)) = C.protocol
let demand_driven (Core ((module C), _)) = C.demand_driven
let instances (Core ((module C), s)) = C.instances s
let view (Core ((module C), s)) ~inst = C.view s ~inst
let max_view (Core ((module C), s)) = C.max_view s
let leads (Core ((module C), s)) ~inst = C.leads s ~inst
let leads_any (Core ((module C), s)) = C.leads_any s
let last_executed (Core ((module C), s)) = C.last_executed s
let last_stable (Core ((module C), s)) = C.last_stable s
let in_view_change (Core ((module C), s)) ~inst = C.in_view_change s ~inst
let escalation (Core ((module C), s)) ~pending ~inflight = C.escalation s ~pending ~inflight
let stable_certificate (Core ((module C), s)) = C.stable_certificate s
let defenses (Core ((module C), s)) = C.defenses s

let propose (Core ((module C), s)) ~reqs ~digest ~wire_bytes =
  C.propose s ~reqs ~digest ~wire_bytes

let step (Core ((module C), s)) input = snd (C.step s input)
