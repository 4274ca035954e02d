(** Bounded FIFO memo table for verification results and batch digests.

    The fabric's verify-sharing layer (paper Q2, "avoid redundant crypto"):
    a replica records that it has verified a signature / MAC / digest over
    some exact authenticated bytes, and every later touchpoint of the same
    bytes — execution-time digest checks, re-batching after a view change,
    duplicate or retransmitted messages — costs a table probe instead of a
    cryptographic operation.

    The table holds at most [capacity] entries; insertion beyond that
    evicts the oldest entry (FIFO), so memory is bounded for arbitrarily
    long runs.  Only successful verifications should be inserted: callers
    key on the {e full} authenticated content, so a forgery can never alias
    a cached success.  A probe compares stored hashes first and the key
    bytes only on a hash match; it never accepts a match on the hash
    alone. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Lookup; counts a hit or a miss. *)

val mem : 'a t -> string -> bool
(** Membership probe; counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (no-op if the key is already present), evicting FIFO at
    capacity.  Does not count as a hit or miss. *)

val check : 'a t -> string -> 'a -> bool
(** [check t key v] is [mem t key] followed, on a miss, by [add t key v],
    in one probe: [true] on a hit, [false] after inserting.  Counts a hit
    or a miss exactly as {!mem} does. *)

val size : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val hit_rate : 'a t -> float
val clear : 'a t -> unit
