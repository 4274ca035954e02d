(* The FIFO is a ring over an int array whose capacity is a power of two;
   the per-id state is two byte tables indexed by id: flag bits, and the
   number of queued copies (a count of [saturated] or more is kept in
   [over], so it never overflows). *)

let executed = 1
let in_flight = 2
let kept = 4 (* set only inside [compact]: the id's first live copy is kept *)
let saturated = 255

type t = {
  track : bool;
  mutable buf : int array;
  mutable head : int;
  mutable len : int;
  mutable flags : Bytes.t;
  mutable copies : Bytes.t;
  over : (int, int) Hashtbl.t;
  mutable dead : int;  (** queued entries that [compact] would drop *)
  mutable inflight : int;
}

let create ~track =
  {
    track;
    buf = [||];
    head = 0;
    len = 0;
    flags = Bytes.empty;
    copies = Bytes.empty;
    over = Hashtbl.create 1;
    dead = 0;
    inflight = 0;
  }

let length t = t.len
let is_empty t = t.len = 0
let inflight t = t.inflight

let to_list t =
  let mask = Array.length t.buf - 1 in
  List.init t.len (fun i -> t.buf.((t.head + i) land mask))

(* ---- per-id state ---------------------------------------------------------- *)

let flag t id = if id < Bytes.length t.flags then Char.code (Bytes.get t.flags id) else 0
let set_flag t id f = Bytes.set t.flags id (Char.unsafe_chr f)
let live f = f land (executed lor in_flight) = 0

let count t id =
  if id < Bytes.length t.copies then
    let c = Char.code (Bytes.get t.copies id) in
    if c < saturated then c else Hashtbl.find t.over id
  else 0

let set_count t id c =
  if c >= saturated then Hashtbl.replace t.over id c
  else if Char.code (Bytes.get t.copies id) = saturated then Hashtbl.remove t.over id;
  Bytes.set t.copies id (Char.unsafe_chr (min c saturated))

(* Grows both tables, by doubling, until they cover [id]. *)
let cover t id =
  let n = Bytes.length t.flags in
  if id >= n then begin
    let m = ref (max 64 (2 * n)) in
    while id >= !m do
      m := 2 * !m
    done;
    let grow b =
      let b' = Bytes.make !m '\000' in
      Bytes.blit b 0 b' 0 n;
      b'
    in
    t.flags <- grow t.flags;
    t.copies <- grow t.copies
  end

(* ---- the FIFO ---------------------------------------------------------------- *)

let grow_ring t =
  let cap = Array.length t.buf in
  let buf = Array.make (max 16 (2 * cap)) 0 in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push t id =
  if t.len = Array.length t.buf then grow_ring t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- id;
  t.len <- t.len + 1;
  if t.track then begin
    cover t id;
    let c = count t id in
    if c > 0 || not (live (flag t id)) then t.dead <- t.dead + 1;
    set_count t id (c + 1)
  end

let take t k =
  if k < 0 || k > t.len then invalid_arg "Pending.take";
  let mask = Array.length t.buf - 1 in
  let out = Array.make k 0 in
  for i = 0 to k - 1 do
    let id = t.buf.((t.head + i) land mask) in
    out.(i) <- id;
    if t.track then begin
      let c = count t id in
      if c > 1 || not (live (flag t id)) then t.dead <- t.dead - 1;
      set_count t id (c - 1)
    end
  done;
  t.head <- (t.head + k) land mask;
  t.len <- t.len - k;
  out

(* ---- executed / in flight ----------------------------------------------------- *)

(* Setting [bit] kills the id's one live queued copy, if it was live. *)
let mark t id bit =
  cover t id;
  let f = flag t id in
  let fresh = f land bit = 0 in
  if fresh then begin
    if live f && count t id > 0 then t.dead <- t.dead + 1;
    set_flag t id (f lor bit)
  end;
  fresh

let mark_executed t id = if t.track then ignore (mark t id executed)
let mark_inflight t id = if t.track && mark t id in_flight then t.inflight <- t.inflight + 1

let clear_inflight t id =
  let f = flag t id in
  if f land in_flight <> 0 then begin
    let f = f land lnot in_flight in
    set_flag t id f;
    t.inflight <- t.inflight - 1;
    if live f && count t id > 0 then t.dead <- t.dead - 1
  end

(* ---- compaction ---------------------------------------------------------------- *)

let compact t =
  if t.dead > 0 then begin
    let mask = Array.length t.buf - 1 in
    let w = ref 0 in
    for r = 0 to t.len - 1 do
      let id = t.buf.((t.head + r) land mask) in
      let f = flag t id in
      if live f && f land kept = 0 then begin
        set_flag t id (f lor kept);
        t.buf.((t.head + !w) land mask) <- id;
        incr w
      end
      else set_count t id (count t id - 1)
    done;
    for i = 0 to !w - 1 do
      let id = t.buf.((t.head + i) land mask) in
      set_flag t id (flag t id land lnot kept)
    done;
    t.len <- !w;
    t.dead <- 0
  end
