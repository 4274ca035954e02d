type time = int

type event = { action : unit -> unit; mutable live : bool }

(* The event queue is a binary min-heap over (fire_at, seq), a total order
   because [seq] is unique.  The keys live in flat [int array]s beside the
   event array, so a comparison reads two unboxed ints and sifting moves a
   hole instead of swapping boxed records. *)
type t = {
  mutable clock : time;
  mutable next_seq : int;
  mutable size : int;
  mutable fire_at : int array;
  mutable seq : int array;
  mutable events : event array;
}

let ns n = n
let us f = int_of_float (f *. 1e3)
let ms f = int_of_float (f *. 1e6)
let seconds f = int_of_float (f *. 1e9)

let to_seconds t = float_of_int t /. 1e9

(* Fills vacated slots so a fired closure is not kept alive by the queue. *)
let vacant = { action = ignore; live = false }

let create () =
  { clock = 0; next_seq = 0; size = 0; fire_at = [||]; seq = [||]; events = [||] }

let now t = t.clock

let grow t =
  let cap = max 16 (2 * t.size) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.fire_at <- extend t.fire_at 0;
  t.seq <- extend t.seq 0;
  t.events <- extend t.events vacant

(* Whether slot [i] orders strictly before the key (at, s). *)
let before t i at s =
  let a = Array.unsafe_get t.fire_at i in
  a < at || (a = at && Array.unsafe_get t.seq i < s)

let place t i at s ev =
  Array.unsafe_set t.fire_at i at;
  Array.unsafe_set t.seq i s;
  Array.unsafe_set t.events i ev

let move t ~src ~dst =
  place t dst (Array.unsafe_get t.fire_at src) (Array.unsafe_get t.seq src)
    (Array.unsafe_get t.events src)

(* All indices below stay under [t.size <= Array.length t.events]. *)
let rec sift_up t i at s ev =
  if i = 0 then place t 0 at s ev
  else begin
    let parent = (i - 1) / 2 in
    if before t parent at s then place t i at s ev
    else begin
      move t ~src:parent ~dst:i;
      sift_up t parent at s ev
    end
  end

let rec sift_down t i at s ev =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i at s ev
  else begin
    let r = l + 1 in
    let c =
      if r < t.size
         && before t r (Array.unsafe_get t.fire_at l) (Array.unsafe_get t.seq l)
      then r
      else l
    in
    if before t c at s then begin
      move t ~src:c ~dst:i;
      sift_down t c at s ev
    end
    else place t i at s ev
  end

(* Removes the head; the caller has checked [t.size > 0]. *)
let pop t =
  let ev = t.events.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 t.fire_at.(last) t.seq.(last) t.events.(last);
  t.events.(last) <- vacant;
  ev

let schedule_at t ~at action =
  if at < t.clock then invalid_arg "Sim.schedule_at: time is in the past";
  let ev = { action; live = true } in
  if t.size = Array.length t.events then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) at s ev;
  ev

let schedule t ~after action =
  if after < 0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~at:(t.clock + after) action

let cancel ev =
  ev.live <- false

let cancelled ev = not ev.live

let rec step t =
  if t.size = 0 then false
  else begin
    let at = t.fire_at.(0) in
    let ev = pop t in
    if ev.live then begin
      t.clock <- at;
      ev.action ();
      true
    end
    else step t
  end

(* Cancelled events are discarded without charging the budget, so the cap
   bounds real work.  The horizon is re-tested after each discarded head,
   so a run never fires an event past [until].  [run] is this loop with no
   budget, which keeps budgeted runs bit-identical to unbudgeted ones
   whenever the budget is not hit. *)
let run_bounded ?until ~max_events t =
  if max_events < 0 then invalid_arg "Sim.run_bounded: negative event budget";
  let processed = ref 0 in
  let exhausted = ref false in
  let continue = ref true in
  let limit = Option.value until ~default:max_int in
  while !continue do
    if t.size = 0 then continue := false
    else if t.fire_at.(0) > limit then begin
      t.clock <- limit;
      continue := false
    end
    else if not t.events.(0).live then ignore (pop t)
    else if !processed >= max_events then begin
      exhausted := true;
      continue := false
    end
    else begin
      incr processed;
      ignore (step t)
    end
  done;
  if !exhausted then `Exhausted else `Completed !processed

let run ?until t = ignore (run_bounded ?until ~max_events:max_int t)

let pending t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if t.events.(i).live then incr n
  done;
  !n
