(** A replica host's queue of client transactions awaiting batching, with
    the per-transaction state that decides which queued entries are worth
    batching.

    The queue is a plain FIFO of transaction ids: {!push} appends every id
    it is given, duplicates included, and {!take} pops raw entries in
    arrival order.  Under client retransmission the same id is re-injected
    (by retransmission and by network duplication), and ids already
    executed here or already batched here (in flight) stay queued until
    {!compact} drops them.

    With [~track:true] the module keeps, per id, whether it has executed
    here, whether it is in flight here, and how many copies of it are
    queued, together with [dead]: the number of queued entries a
    compaction would drop.  Every operation keeps [dead] exact, so
    {!compact} costs nothing while there is nothing to drop.  Ids must be
    non-negative; they are dense from 0, so the per-id state lives in byte
    tables indexed by id that grow by doubling on first write.  Nothing is
    allocated at {!create}.

    With [~track:false] the queue is a bare FIFO: the per-id operations do
    nothing, {!inflight} stays 0 and {!compact} never drops anything. *)

type t

val create : track:bool -> t

val length : t -> int
(** Raw number of queued entries, duplicates and dead entries included. *)

val is_empty : t -> bool

val push : t -> int -> unit
(** Appends an id, even if a copy of it is already queued. *)

val take : t -> int -> int array
(** [take t k] pops the [k] oldest raw entries, oldest first.  Raises
    [Invalid_argument] if [k] is negative or exceeds {!length}. *)

val mark_executed : t -> int -> unit
(** The id has executed here; its queued copies are dead from now on. *)

val mark_inflight : t -> int -> unit
(** The id was batched here; its queued copies are dead until
    {!clear_inflight}.  Marking an id already in flight does nothing. *)

val clear_inflight : t -> int -> unit
(** The id is no longer in flight here (it executed, or its batch failed
    to propose).  Does nothing if the id is not in flight. *)

val inflight : t -> int
(** Number of distinct ids currently marked in flight. *)

val compact : t -> unit
(** Drops every queued entry whose id is executed or in flight here, and
    every later copy of an id queued more than once, keeping the first
    live copy of each id in order.  Free when nothing would be dropped. *)

val to_list : t -> int list
(** The raw queue, oldest first. *)
