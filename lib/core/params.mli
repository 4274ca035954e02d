(** Experiment parameters for a ResilientDB cluster (or sharded) run.

    Defaults reproduce the paper's §5.1 standard setup: 16 replicas on
    8-core machines, 80K clients, batches of 100 transactions, checkpoints
    every 10K transactions, ED25519 client signatures with CMAC+AES between
    replicas, in-memory storage, one worker-thread, two batch-threads, one
    execute-thread.

    {b Construction is structured.}  The resolved record {!t} is private:
    readers keep their flat [p.Params.batch_size] accesses, but writers
    must assemble a configuration from the typed sub-records —
    {!Consensus}, {!Workload}, {!Exec}, {!Faults}, {!Durability},
    {!Topology}, {!Obs} — via {!make}, or derive one from an existing
    configuration with the [map_*]/[with_*] updaters.  Nine PRs of flag
    accretion made the flat record a dumping ground where nothing said
    which knobs belong together; the sub-records are that statement, the
    compiler enforces it (a flat record literal no longer type-checks
    outside this module), and {!Spec} is the single table the CLI flags
    and campaign axis labels derive from. *)

type protocol = Pbft | Zyzzyva | Hotstuff

val protocol_name : protocol -> string
val protocol_of_name : string -> protocol option

(** Ordering-layer shape: who proposes, how big the batches are, which
    authenticators protect which hop, and the view-change clocks. *)
module Consensus : sig
  type t = {
    protocol : protocol;
    n : int;  (** replicas per consensus group *)
    instances : int;
        (** k concurrent PBFT consensus instances over a round-robin-
            partitioned sequence space ({!Rdb_consensus.Multi_pbft});
            1 = classic single-primary; > 1 requires [protocol = Pbft] *)
    batch_size : int;
    max_inflight_batches : int;
        (** admission control at the primary: batches proposed but not yet
            completed by clients (PBFT's high-water mark) *)
    checkpoint_txns : int;  (** transactions between checkpoints *)
    view_timeout : Rdb_des.Sim.time;
        (** how long a backup with unserved demand waits for execution
            progress before suspecting the primary *)
    zyzzyva_timeout : Rdb_des.Sim.time;
        (** client wait before falling back to a commit certificate *)
    client_scheme : Rdb_crypto.Signer.scheme;
    replica_scheme : Rdb_crypto.Signer.scheme;
    reply_scheme : Rdb_crypto.Signer.scheme;
    verify_sharing : bool;
        (** Q2: memoize digests and accepted verifications in a bounded
            per-replica {!Rdb_crypto.Verify_cache}; off = the
            protocol-centric re-validate-everywhere ablation *)
    verify_cache_capacity : int;
    use_buffer_pool : bool;  (** §4.8 object recycling; off = ablation *)
  }

  val default : t

  val v :
    ?protocol:protocol ->
    ?n:int ->
    ?instances:int ->
    ?batch_size:int ->
    ?max_inflight_batches:int ->
    ?checkpoint_txns:int ->
    ?view_timeout:Rdb_des.Sim.time ->
    ?zyzzyva_timeout:Rdb_des.Sim.time ->
    ?client_scheme:Rdb_crypto.Signer.scheme ->
    ?replica_scheme:Rdb_crypto.Signer.scheme ->
    ?reply_scheme:Rdb_crypto.Signer.scheme ->
    ?verify_sharing:bool ->
    ?verify_cache_capacity:int ->
    ?use_buffer_pool:bool ->
    unit ->
    t
end

(** Offered load: who submits, and what one transaction looks like on the
    wire and to the execution engine. *)
module Workload : sig
  type t = {
    clients : int;  (** closed-loop client population per consensus group *)
    ops_per_txn : int;
    txn_wire_bytes : int;
    preprepare_payload_bytes : int;  (** extra Pre-prepare payload (Fig. 12) *)
  }

  val default : t

  val v :
    ?clients:int ->
    ?ops_per_txn:int ->
    ?txn_wire_bytes:int ->
    ?preprepare_payload_bytes:int ->
    unit ->
    t
end

(** Per-replica machine model and the execution pipeline shape. *)
module Exec : sig
  type t = {
    cores : int;
    batch_threads : int;  (** B; 0 = the worker-thread batches (Fig. 8) *)
    execute_threads : int;
        (** E; 0 = worker executes, 1 = the paper's execute-thread, >= 2 =
            conflict-aware parallel execution lanes *)
    exec_records : int;
        (** keyspace size execution footprints are drawn from (conflict knob) *)
    sqlite : bool;  (** off-memory storage for execution (Fig. 14) *)
    cost : Rdb_crypto.Cost_model.t;
  }

  val default : t

  val v :
    ?cores:int ->
    ?batch_threads:int ->
    ?execute_threads:int ->
    ?exec_records:int ->
    ?sqlite:bool ->
    ?cost:Rdb_crypto.Cost_model.t ->
    unit ->
    t
end

(** Everything that goes wrong: steady-state link degradation, replicas
    down from the start, the timed {!Nemesis} schedule, and the client
    retransmission clock that turns faults into recoveries. *)
module Faults : sig
  type t = {
    crashed_backups : int;  (** backups crashed at t=0 (Fig. 17) *)
    loss_rate : float;
    duplication_rate : float;
    extra_jitter : Rdb_des.Sim.time;
    nemesis : Nemesis.schedule;
    client_timeout : Rdb_des.Sim.time;
        (** client retransmission timeout (exponential backoff); 0 disables *)
  }

  val default : t

  val v :
    ?crashed_backups:int ->
    ?loss_rate:float ->
    ?duplication_rate:float ->
    ?extra_jitter:Rdb_des.Sim.time ->
    ?nemesis:Nemesis.schedule ->
    ?client_timeout:Rdb_des.Sim.time ->
    unit ->
    t
end

(** Whether state survives process death, and where it lives. *)
module Durability : sig
  type t = {
    durable : bool;
        (** back each ledger with the WAL + B-tree {!Rdb_chain.Block_store} *)
    data_dir : string option;
        (** durable backend directory; [None] = fresh temp dir per run *)
  }

  val default : t
  val v : ?durable:bool -> ?data_dir:string option -> unit -> t
end

(** Where the machines are: the flat LAN every group runs on, plus the
    sharded scale-out shape (group count, cross-shard traffic fraction,
    region placement). *)
module Topology : sig
  type t = {
    bandwidth_gbps : float;  (** intra-group link bandwidth *)
    latency : Rdb_des.Sim.time;  (** intra-group one-way propagation *)
    jitter : Rdb_des.Sim.time;
    client_machines : int;  (** hosts the client population is spread over *)
    shards : int;
        (** S independent consensus groups over a partitioned keyspace
            ({!Rdb_shard}); 1 = the classic single-group deployment *)
    cross_shard_fraction : float;
        (** fraction of transactions touching a second shard (2PC-over-BFT
            commit path), in [\[0, 1\]]; meaningful when [shards > 1] *)
    regions : Rdb_net.Topology.t option;
        (** shard-to-region placement and inter-region links; [None] = all
            shards in one site (no cross-shard propagation charge) *)
  }

  val default : t

  val v :
    ?bandwidth_gbps:float ->
    ?latency:Rdb_des.Sim.time ->
    ?jitter:Rdb_des.Sim.time ->
    ?client_machines:int ->
    ?shards:int ->
    ?cross_shard_fraction:float ->
    ?regions:Rdb_net.Topology.t option ->
    unit ->
    t
end

(** Observability output: the master trace switch and its destinations. *)
module Obs : sig
  type t = {
    trace : bool;
    trace_out : string option;  (** Chrome [trace_event] JSON destination *)
    trace_csv : string option;  (** time-series CSV destination *)
    trace_interval : Rdb_des.Sim.time;
    trace_max_events : int;
  }

  val default : t

  val v :
    ?trace:bool ->
    ?trace_out:string option ->
    ?trace_csv:string option ->
    ?trace_interval:Rdb_des.Sim.time ->
    ?trace_max_events:int ->
    unit ->
    t
end

(** The resolved configuration: one flat read surface over the structured
    sub-records.  Private — read fields freely, construct via {!make},
    update via the [map_*]/[with_*] functions. *)
type t = private {
  protocol : protocol;
  n : int;
  clients : int;
  client_machines : int;
  batch_size : int;
  ops_per_txn : int;
  txn_wire_bytes : int;
  preprepare_payload_bytes : int;
  client_scheme : Rdb_crypto.Signer.scheme;
  replica_scheme : Rdb_crypto.Signer.scheme;
  reply_scheme : Rdb_crypto.Signer.scheme;
  sqlite : bool;
  durable : bool;
  data_dir : string option;
  cores : int;
  instances : int;
  batch_threads : int;
  execute_threads : int;
  exec_records : int;
  checkpoint_txns : int;
  max_inflight_batches : int;
  crashed_backups : int;
  loss_rate : float;
  duplication_rate : float;
  extra_jitter : Rdb_des.Sim.time;
  nemesis : Nemesis.schedule;
  client_timeout : Rdb_des.Sim.time;
  view_timeout : Rdb_des.Sim.time;
  use_buffer_pool : bool;
  verify_sharing : bool;
  verify_cache_capacity : int;
  zyzzyva_timeout : Rdb_des.Sim.time;
  bandwidth_gbps : float;
  latency : Rdb_des.Sim.time;
  jitter : Rdb_des.Sim.time;
  shards : int;
  cross_shard_fraction : float;
  regions : Rdb_net.Topology.t option;
  cost : Rdb_crypto.Cost_model.t;
  warmup : Rdb_des.Sim.time;
  measure : Rdb_des.Sim.time;
  seed : int64;
  trace : bool;
  trace_out : string option;
  trace_csv : string option;
  trace_interval : Rdb_des.Sim.time;
  trace_max_events : int;
}

val default : t
(** [make ()] — the paper's §5.1 setup. *)

val make :
  ?consensus:Consensus.t ->
  ?workload:Workload.t ->
  ?exec:Exec.t ->
  ?faults:Faults.t ->
  ?durability:Durability.t ->
  ?topology:Topology.t ->
  ?obs:Obs.t ->
  ?warmup:Rdb_des.Sim.time ->
  ?measure:Rdb_des.Sim.time ->
  ?seed:int64 ->
  unit ->
  t
(** Assemble a configuration from sub-records (each defaulting to its
    module's [default]) plus the run window and seed. *)

(** {2 Projections} — recover the sub-record view of a resolved config. *)

val consensus : t -> Consensus.t
val workload : t -> Workload.t
val exec : t -> Exec.t
val faults : t -> Faults.t
val durability : t -> Durability.t
val topology : t -> Topology.t
val obs : t -> Obs.t

(** {2 Updates} — [map_X f p] rebuilds [p] with its [X] sub-record mapped. *)

val map_consensus : (Consensus.t -> Consensus.t) -> t -> t
val map_workload : (Workload.t -> Workload.t) -> t -> t
val map_exec : (Exec.t -> Exec.t) -> t -> t
val map_faults : (Faults.t -> Faults.t) -> t -> t
val map_durability : (Durability.t -> Durability.t) -> t -> t
val map_topology : (Topology.t -> Topology.t) -> t -> t
val map_obs : (Obs.t -> Obs.t) -> t -> t

(** Single-field updaters for the commonly swept axes. *)

val with_protocol : protocol -> t -> t
val with_n : int -> t -> t
val with_instances : int -> t -> t
val with_batch_size : int -> t -> t
val with_clients : int -> t -> t
val with_execute_threads : int -> t -> t
val with_batch_threads : int -> t -> t
val with_cores : int -> t -> t
val with_crashed_backups : int -> t -> t
val with_nemesis : Nemesis.schedule -> t -> t
val with_view_timeout : Rdb_des.Sim.time -> t -> t
val with_client_timeout : Rdb_des.Sim.time -> t -> t
val with_durable : bool -> t -> t
val with_data_dir : string option -> t -> t
val with_shards : int -> t -> t
val with_cross_shard_fraction : float -> t -> t
val with_seed : int64 -> t -> t
val with_windows : warmup:Rdb_des.Sim.time -> measure:Rdb_des.Sim.time -> t -> t
val with_trace : bool -> t -> t

(** {2 Derived quantities} *)

val f : t -> int
(** Tolerated Byzantine replicas per group: [(n - 1) / 3]. *)

val exec_lanes : t -> int
(** Conflict-aware execute lanes this configuration runs (0 = classic). *)

val obs_enabled : t -> bool
(** Whether any observability output was requested. *)

val checkpoint_interval : t -> int
(** Sequence numbers between checkpoints. *)

val validate : t -> unit
(** Raises [Invalid_argument] on an inconsistent configuration. *)

(** The one table the CLI and the campaign derive from: every tunable axis
    with its canonical {!Rdb_obs.Axis} name, documentation string, and a
    string getter/setter over {!t}.  [resdb_sim] renders each entry as a
    flag ([Axis.to_flag] spelling plus the listed aliases, [--help] text
    from [doc]); the campaign runner spells cell keys and report fields
    with the same names — so the three surfaces cannot drift. *)
module Spec : sig
  type entry = {
    key : string;  (** canonical axis name (an {!Rdb_obs.Axis} value) *)
    aliases : string list;  (** extra CLI names, e.g. ["p"] for protocol *)
    doc : string;
    bool_flag : bool;  (** render as a presence flag on the CLI *)
    get : t -> string;
    set : string -> t -> (t, string) result;
  }

  val entries : entry list
  val find : string -> entry option
  (** Look an entry up by canonical name. *)

  val apply : (string * string) list -> t -> (t, string) result
  (** Fold [(key, value)] assignments over a configuration, left to
      right; fails on an unknown key or an unparseable value. *)
end
