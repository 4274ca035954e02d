(** Multi-primary PBFT: [k] concurrent consensus instances per replica over
    a partitioned sequence space, merged back into one in-order execution
    stream.

    The paper's lesson is that throughput is bounded by the fabric around
    the protocol, not its phase count — and at the paper's own defaults the
    last serial resource is the {e single} ordering instance behind the
    worker-thread.  This module generalizes the fabric's core invariant
    ("out-of-order consensus, in-order execution", §4.5/§4.6) from one
    ordering instance to [k]:

    - Instance [i] owns the global sequence numbers
      [{ s | (s - 1) mod k = i }] (1-based round-robin partition).  Within
      an instance, slots are dense local sequence numbers [1, 2, 3, ...];
      local slot [l] of instance [i] is global [(l - 1) * k + i + 1].
    - Each instance is a full, unmodified {!Pbft_replica} core — its own
      pre-prepare/prepare/commit state, its own checkpointing (at interval
      [global_interval / k] so the global cadence is unchanged), and its own
      view change.  Instance [i]'s view-0 primary is replica [i mod n]
      (via {!Config.t}[.primary_offset]), so the k instances are led by k
      different replicas and order batches concurrently.
    - Execution stays {e strictly global-order}: every [Execute] a core
      emits enters a deterministic k-way merge
      ({!Rdb_replica.Exec_queue.Merge}) keyed by global sequence number, and
      only comes back out when the global cursor reaches it.  A view change
      on one instance stalls only that instance's residue class; the merge's
      hole tracker names the blocked instance so the hosting system can aim
      its demand-timer escalation.

    All client-visible artifacts are translated to the global space at this
    boundary: [Execute] batches and client [Reply] messages carry global
    sequence numbers (so ledgers and reply-aggregation keys are identical to
    a single-instance deployment's), and [Stable_checkpoint] announces the
    global stable {e prefix} (the minimum over instances of their stable
    coverage).  Protocol traffic stays in each instance's local space and is
    only tagged with its instance number for wire routing — peers feed it to
    the same instance's core.

    With [instances = 1] the partition is trivial and the behaviour reduces
    exactly to a plain {!Pbft_replica} (same actions, same sequence
    numbers), which is what the cluster uses for the k=1 baseline. *)

type t

(** An action tagged with the consensus instance that produced it.  Protocol
    messages must be delivered to the {e same} instance on the receiving
    replica; [Execute], [Send_client] and [Stable_checkpoint] actions are
    already translated to the global sequence space. *)
type routed = { inst : int; act : Action.t }

val create : Config.t -> instances:int -> id:int -> t
(** [create cfg ~instances ~id] builds [instances] independent PBFT cores
    for replica [id].  [cfg] is the {e global} configuration: its
    [checkpoint_interval] is divided across instances and its
    [primary_offset] is replaced per instance. *)

val instances : t -> int

val id : t -> int

val core : t -> int -> Pbft_replica.t
(** The underlying core of one instance (tests and diagnostics). *)

val instance_of : t -> seq:int -> int
(** The instance owning a global sequence number. *)

val view : t -> inst:int -> int

val views : t -> int array
(** Per-instance views, index = instance. *)

val max_view : t -> int

val primary_of : t -> inst:int -> view:int -> int
(** The replica leading instance [inst] at [view]:
    [(view + inst mod n) mod n]. *)

val is_primary : t -> inst:int -> bool

val leads_any : t -> bool
(** Whether this replica currently leads at least one instance. *)

val led_instances : t -> int list
(** The instances this replica currently leads, ascending. *)

val in_view_change : t -> inst:int -> bool

val last_executed : t -> int
(** Highest global sequence number handed to the execution layer (the merge
    cursor minus one). *)

val waiting_instance : t -> int
(** The instance the global execution cursor is blocked on — where the
    demand timer should aim its nudge / view-change escalation. *)

val merge_pending_of : t -> int -> int
(** Batches one instance has committed ahead of the global cursor. *)

val last_stable_checkpoint : t -> int
(** The global stable prefix: every global sequence number up to this is
    covered by some instance's stable checkpoint. *)

val equivocations_detected : t -> int
(** Conflicting pre-prepares observed, summed over all instances (see
    {!Pbft_replica.equivocations_detected}). *)

val vc_spam_suppressed : t -> int
(** View-change messages rate-limited away, summed over all instances (see
    {!Pbft_replica.vc_spam_suppressed}). *)

val propose :
  t ->
  inst:int ->
  reqs:Message.request_ref list ->
  digest:string ->
  wire_bytes:int ->
  Message.batch option * routed list
(** Propose a batch on one instance (primary of that instance only; same
    contract as {!Pbft_replica.propose}).  The returned batch carries the
    instance's {e local} sequence number. *)

val handle_message : t -> inst:int -> Message.t -> routed list
(** Feed one protocol message to the instance it was sent on. *)

val handle_executed : t -> seq:int -> state_digest:string -> result:string -> routed list
(** The hosting system reports the batch at {e global} sequence number
    [seq] finished executing.  Must be called in global order; the owning
    instance sees its local slots in local order by construction. *)

val keepalive : t -> inst:int -> routed list
(** Primary of the merge-blocking instance only: plug the instance's
    frontier with empty (no-op) batches up to the merge's horizon, so the
    siblings' committed backlog can drain.  Needed when the instance was
    deposed and its unserved transactions were re-batched by live
    instances — its successor then has real holes but no real demand (the
    no-op proposal RCC uses for starved instances).  A no-op when the merge
    is not blocked on [inst] or nothing is queued behind it. *)

val suspect_primary : t -> inst:int -> routed list
(** Start a view change on one instance (its siblings keep ordering). *)

val nudge : t -> inst:int -> routed list
(** Vote retransmission for one instance's oldest unexecuted slot. *)

val view_change_retransmit : t -> inst:int -> routed list
