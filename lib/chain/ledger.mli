(** The per-replica immutable ledger: an append-only chain of {!Block.t}.

    Every replica maintains its own copy (paper §2.2).  Appends must be in
    strict sequence order — this is exactly the paper's "in-order execution"
    invariant, so a violated append is a protocol bug and raises.  Old
    blocks are pruned when a stable checkpoint is reached (§4.7); pruning
    retains the chain's cumulative digest so integrity checks still work.

    Storage is pluggable: every operation dispatches through a first-class
    {!BACKEND} module, chosen when the ledger is built.  {!create} selects
    the in-memory backend (identical behaviour to the pre-backend ledger);
    {!open_durable} selects the WAL + B-tree {!Block_store}, which survives
    process death and recovers through crash replay. *)

(** The storage interface the consensus fabric is written against.  A store
    holds the retained chain segment plus the cumulative counters; the
    strict-sequence append check lives in the {!Ledger} wrapper so every
    backend inherits it. *)
module type BACKEND = sig
  type store

  val append : store -> Block.t -> unit
  val get : store -> int -> Block.t option
  val prune_below : store -> int -> int
  val iter_retained : store -> (Block.t -> unit) -> unit
  val length : store -> int
  val last : store -> Block.t
  val next_seq : store -> int
  val cumulative_digest : store -> string

  val install : store -> retained:Block.t list -> appended:int -> running:string -> unit
  (** Replace the retained segment (oldest first) and counters wholesale
      (state transfer). *)

  val checkpoint : store -> seq:int -> state_digest:string -> unit
  (** Persist through the stable checkpoint at [seq]; a no-op for volatile
      backends. *)

  val close : store -> unit
end

module Mem : BACKEND
(** Volatile list-backed store (the default). *)

module Durable : BACKEND with type store = Block_store.t
(** WAL + B-tree store; see {!Block_store}. *)

type t

val create : primary_id:int -> t
(** In-memory ledger starting with the genesis block at sequence 0. *)

val open_durable : dir:string -> primary_id:int -> t
(** Durable ledger backed by {!Block_store.open_dir} on [dir]: fresh
    directories are initialised with the genesis block; existing ones are
    crash-recovered (torn WAL tails truncated, records past the last stable
    flush dropped — they are re-acquired by state transfer). *)

val is_durable : t -> bool

val append : t -> Block.t -> unit
(** Raises [Invalid_argument] unless the block's sequence number is exactly
    [next_seq t]. *)

val next_seq : t -> int

val last : t -> Block.t

val length : t -> int
(** Total blocks ever appended, including pruned ones and genesis. *)

val find : t -> int -> Block.t option
(** [find t seq]; [None] when pruned or not yet appended. *)

val prune_below : t -> int -> int
(** [prune_below t seq] discards blocks with sequence < [seq] (never the
    genesis digest chain), returning how many were discarded. *)

val verify :
  t ->
  check_certificate:(seq:int -> digest:string -> (int * string) list -> bool) ->
  (unit, string) result
(** Walks retained blocks in order, checking sequence continuity and
    linkage: [Prev_hash] links must equal the hash of the previous retained
    block; [Certificate] links are delegated to [check_certificate]
    (signature verification lives with the caller's keyring). *)

val cumulative_digest : t -> string
(** Digest covering every block ever appended (survives pruning): a running
    hash folded over the blocks' hashes. *)

val retained : t -> Block.t list
(** The retained segment, oldest first — the payload a state-transfer donor
    ships. *)

val install : t -> blocks:Block.t list -> appended:int -> running:string -> unit
(** State-transfer admit: replace the retained segment with [blocks]
    (ascending, contiguous, non-empty — raises [Invalid_argument]
    otherwise) and adopt the donor's counters.  The caller must have
    verified the segment against the stable-checkpoint certificate first. *)

val checkpoint : t -> seq:int -> state_digest:string -> unit
(** Marks the stable checkpoint at [seq]: durable backends flush the WAL
    and persist counters + [state_digest]; the in-memory backend ignores
    it. *)

val close : t -> unit

val iter_retained : t -> (Block.t -> unit) -> unit
