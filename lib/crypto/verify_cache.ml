(* Bounded memo table for verification results and batch digests.

   A replica fabric touches the same authenticated bytes many times: a batch
   digest is checked when the Pre-prepare arrives and again when the batch is
   executed; a client signature is verified at admission and would be
   re-verified when a view change re-batches the request; a retransmitted or
   duplicated protocol message carries a MAC the replica has already checked.
   Caching the *fact* that a given key was verified turns every repeat into a
   hashtable probe (paper Q2: avoid redundant crypto).

   The table is bounded: keys are evicted FIFO once [capacity] entries are
   live, so memory stays O(capacity) regardless of run length.  Only
   positive results are cached — a failed verification is never recorded,
   so a forged message can never hide behind an earlier success with
   different bytes (callers key on the full authenticated content).

   Layout: open addressing with linear probing over one [int array] of
   slots.  A slot packs its key's 30-bit hash with the key's position in a
   ring of keys and values kept in insertion order, so a probe compares
   ints and calls [String.equal] only when the hashes match; a match on the
   hash alone is never accepted.  The slot table grows by half once it is
   three quarters full, up to 4/3 of [capacity], so it stays at or below
   twice the live entries; deletion shifts the probe run back instead of
   leaving tombstones.  The ring is the FIFO eviction order and grows
   lazily up to [capacity].  Nothing is allocated at [create], and values
   are stored unboxed: the first inserted value fills the fresh arrays. *)

type 'a t = {
  capacity : int;
  mutable slots : int array;  (* [empty], or [(hash lsl pos_bits) lor pos] *)
  mutable keys : string array;  (* ring, indexed by position *)
  mutable values : 'a array;
  mutable live : int;
  mutable head : int;  (* position of the oldest key *)
  mutable hits : int;
  mutable misses : int;
}

let empty = -1
let pos_bits = 31
let pos_mask = (1 lsl pos_bits) - 1

let create ~capacity =
  if capacity < 1 then invalid_arg "Verify_cache.create: capacity must be >= 1";
  { capacity = min capacity (1 lsl 30); slots = [||]; keys = [||]; values = [||]; live = 0;
    head = 0; hits = 0; misses = 0 }

(* 30 bits, so a hash and a position pack into one int.  The high bits of
   the hash scaled into [0, n) pick the home slot, so [n] need not be a
   power of two. *)
let hash key = String.hash key land 0x3FFF_FFFF
let home h n = (h * n) lsr 30

let next i n = if i + 1 = n then 0 else i + 1

(* The slot holding [key], or [-1 - i] where [i] is the free slot that ends
   its probe run. *)
let lookup t h key =
  let n = Array.length t.slots in
  let rec go i =
    let s = Array.unsafe_get t.slots i in
    if s = empty then -1 - i
    else if s lsr pos_bits = h && String.equal t.keys.(s land pos_mask) key then i
    else go (next i n)
  in
  if n = 0 then -1 else go (home h n)

let rec free_slot slots i = if slots.(i) = empty then i else free_slot slots (next i (Array.length slots))

(* Backward-shift deletion: pull each later slot of the probe run into the
   hole unless its home lies cyclically in (hole, j]. *)
let delete t i =
  let n = Array.length t.slots in
  let dist a b = if a >= b then a - b else a - b + n in
  let rec shift hole j =
    let j = next j n in
    let s = t.slots.(j) in
    if s = empty then t.slots.(hole) <- empty
    else if dist j (home (s lsr pos_bits) n) >= dist j hole then begin
      t.slots.(hole) <- s;
      shift j j
    end
    else shift hole j
  in
  shift i i

(* Drops the oldest entry.  Its value stays in the ring until the position
   is reused. *)
let evict t =
  let pos = t.head in
  let n = Array.length t.slots in
  let rec locate i = if t.slots.(i) land pos_mask = pos then i else locate (next i n) in
  delete t (locate (home (hash t.keys.(pos)) n));
  t.keys.(pos) <- "";
  t.head <- next pos (Array.length t.keys);
  t.live <- t.live - 1

let grow_slots t =
  let old = t.slots and n = Array.length t.slots in
  let limit = t.capacity + (t.capacity / 3) + 1 in
  let slots = Array.make (min limit (max 4 (n + (n / 2)))) empty in
  let m = Array.length slots in
  Array.iter
    (fun s -> if s <> empty then slots.(free_slot slots (home (s lsr pos_bits) m)) <- s)
    old;
  t.slots <- slots

(* Appends to the ring and returns the position.  The ring only grows while
   no entry has been evicted: eviction starts at [capacity] live entries,
   after which [live] never drops below [capacity - 1] until [clear], so
   [head = 0] here and positions survive the copy. *)
let push t key v =
  let len = Array.length t.keys in
  if t.live = len then begin
    let n = min t.capacity (max 2 (2 * len)) in
    let keys = Array.make n "" and values = Array.make n v in
    Array.blit t.keys 0 keys 0 len;
    Array.blit t.values 0 values 0 len;
    t.keys <- keys;
    t.values <- values
  end;
  let pos = (t.head + t.live) mod Array.length t.keys in
  t.keys.(pos) <- key;
  t.values.(pos) <- v;
  t.live <- t.live + 1;
  pos

(* Inserts an absent [key]; [hint] is what [lookup] returned for it. *)
let insert t h key v hint =
  let evicted = t.live = t.capacity in
  if evicted then evict t;
  let grown = 4 * (t.live + 1) > 3 * Array.length t.slots in
  if grown then grow_slots t;
  let i = -1 - (if evicted || grown then lookup t h key else hint) in
  t.slots.(i) <- (h lsl pos_bits) lor push t key v

let count t found = if found then t.hits <- t.hits + 1 else t.misses <- t.misses + 1

let find t key =
  let i = lookup t (hash key) key in
  count t (i >= 0);
  if i >= 0 then Some t.values.(t.slots.(i) land pos_mask) else None

let mem t key =
  let found = lookup t (hash key) key >= 0 in
  count t found;
  found

let add t key v =
  let h = hash key in
  let i = lookup t h key in
  if i < 0 then insert t h key v i

let check t key v =
  let h = hash key in
  let i = lookup t h key in
  count t (i >= 0);
  if i < 0 then insert t h key v i;
  i >= 0

let size t = t.live
let hits t = t.hits
let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let clear t =
  t.slots <- [||];
  t.keys <- [||];
  t.values <- [||];
  t.live <- 0;
  t.head <- 0
