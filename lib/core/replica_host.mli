(** One replica's host: the replication service around a consensus core,
    written once for both measured runtimes ({!Local_runtime} in process,
    [bin/resdb_node] over TCP, each a thin shell around it).

    The host is sans-IO: traffic leaves through the [send] and [reply]
    callbacks given to {!create} and enters through {!submit} (a client
    request) and {!authenticate} then {!deliver} (a consensus message).  It
    drives the core only through {!Rdb_consensus.Core} and owns what every
    replica needs around it: request admission keyed by [(client, txn_id)]
    (a body is held until its batch executes, then only the key is
    remembered, as a per-client watermark plus the executed ids above it);
    batch formation at the primary, with Pre-prepares carrying the request
    bodies they reference; serial or {!Rdb_replica.Exec_sched} lane
    execution, block append and the batch's result digest; the certified
    digest at each stable checkpoint; state transfer, asked for when behind
    and served to peers; and the CMAC check on inbound consensus messages.

    Single-instance cores only: every message is delivered to instance 0. *)

type request = { client : int; txn_id : int; payload : string }

type t

val create :
  config:Rdb_consensus.Config.t ->
  id:int ->
  core:Rdb_consensus.Core.t ->
  ledger:Rdb_chain.Ledger.t ->
  mac:Rdb_crypto.Cmac.key ->
  batch_size:int ->
  exec_threads:int ->
  footprint:(client:int -> payload:string -> Rdb_replica.Exec_sched.footprint) option ->
  apply:(Rdb_storage.Mem_store.t -> client:int -> payload:string -> string) ->
  verify:(request -> signature:string -> bool) ->
  send:(dst:int -> Rdb_consensus.Message.t -> tag:string -> request list -> unit) ->
  reply:(client:int -> Rdb_consensus.Message.t -> unit) ->
  t
(** [send ~dst msg ~tag bodies] carries one consensus message, its CMAC
    [tag] and the request bodies riding with it to replica [dst];
    [reply ~client msg] carries a reply to a client.  [verify] checks a
    client's signature at admission.  A [ledger] that already holds a
    chain (a reopened durable one) fast-forwards the core past its tip.
    [exec_threads >= 2] with a [footprint] runs each batch over
    conflict-free lanes; [apply] must then touch only declared keys (see
    {!Local_runtime.config}). *)

val submit : t -> request -> signature:string -> bool
(** A client request arrived here.  Refused (returns [false]) when its key
    has executed, is already queued or proposed by this replica in the
    current view, or its signature fails [verify].  Otherwise its body is
    held; if this replica leads, the key is also queued and a full batch is
    proposed.  A view change drops the queue, so a request handed to the
    next primary is admitted there even if an earlier Pre-prepare left its
    body behind. *)

val flush : t -> unit
(** Propose a partial batch of whatever is queued, if this replica leads. *)

type authenticated
(** A consensus message whose group CMAC checked out: {!deliver} takes
    nothing else. *)

val authenticate :
  t ->
  ?seen:unit Rdb_crypto.Verify_cache.t ->
  Rdb_consensus.Message.t ->
  tag:string ->
  authenticated option
(** [None] when [tag] is not the group CMAC over the message.  [seen]
    memoises accepted (message, tag) pairs, so an exact re-delivery skips
    the CMAC; a forgery is never remembered. *)

val deliver : t -> authenticated -> request list -> unit
(** A consensus message arrived with the request bodies attached to it. *)

val suspect : t -> unit
(** Depose the current primary, as this replica's request timer would. *)

val request_state : t -> unit
(** Broadcast a state-transfer request from this replica's ledger tip. *)

val id : t -> int
val core : t -> Rdb_consensus.Core.t

val store : t -> Rdb_storage.Mem_store.t
(** Application state; replaced wholesale by a state transfer. *)

val ledger : t -> Rdb_chain.Ledger.t

val applied : t -> int
(** Highest sequence number reflected in {!store}. *)

val executed_txns : t -> int
(** Request references in every batch this host executed. *)

val held : t -> int
(** Request bodies currently held (admitted or attached, not yet executed). *)

val ids_above_watermark : t -> int
(** Executed keys remembered one by one, above their client's watermark:
    0 once every client's executed ids run contiguously from 0. *)

val queued : t -> int
(** Keys this replica queued or proposed in the current view whose
    requests have not yet executed. *)

