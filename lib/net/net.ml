module Sim = Rdb_des.Sim
module Rng = Rdb_des.Rng

type fault_counters = {
  mutable dropped_crash : int;
  mutable dropped_loss : int;
  mutable dropped_partition : int;
  mutable duplicated : int;
}

type 'a t = {
  sim : Sim.t;
  bytes_per_ns : float; (* NIC egress rate *)
  latency : Sim.time;
  jitter : Sim.time;
  rng : Rng.t;
  deliver : dst:int -> src:int -> 'a -> unit;
  nics : Rdb_des.Cpu.t array; (* one single-"core" resource per node: the egress NIC *)
  crashed : bool array;
  (* ---- composable fault model ---- *)
  loss : float array array; (* loss.(src).(dst): per-link drop probability *)
  dup : float array array; (* per-link duplication probability *)
  mutable extra_jitter : Sim.time; (* additional reordering jitter, all links *)
  mutable lossy : bool; (* any loss/dup rate > 0: gates the rng draws *)
  partitions : (string, bool array * bool array) Hashtbl.t;
  (* adversarial interposition: a per-source transform applied to every
     outbound message before it reaches the NIC (None = pass through) *)
  interpose : (dst:int -> 'a -> 'a list) option array;
  counters : fault_counters;
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable suppressed : int;
}

let create sim ~nodes ~bandwidth_gbps ~latency ?(jitter = 0) ~rng ~deliver () =
  if nodes <= 0 then invalid_arg "Net.create: nodes must be positive";
  if bandwidth_gbps <= 0.0 then invalid_arg "Net.create: bandwidth must be positive";
  {
    sim;
    bytes_per_ns = bandwidth_gbps /. 8.0; (* Gbit/s = bytes/ns / 0.125 *)
    latency;
    jitter;
    rng;
    deliver;
    nics = Array.init nodes (fun _ -> Rdb_des.Cpu.create sim ~cores:1);
    crashed = Array.make nodes false;
    loss = Array.init nodes (fun _ -> Array.make nodes 0.0);
    dup = Array.init nodes (fun _ -> Array.make nodes 0.0);
    extra_jitter = 0;
    lossy = false;
    partitions = Hashtbl.create 4;
    interpose = Array.make nodes None;
    counters = { dropped_crash = 0; dropped_loss = 0; dropped_partition = 0; duplicated = 0 };
    messages_sent = 0;
    bytes_sent = 0;
    suppressed = 0;
  }

let nodes t = Array.length t.crashed

let transmission_ns t bytes = int_of_float (float_of_int bytes /. t.bytes_per_ns)

(* ---- fault-model configuration ------------------------------------------- *)

let check_rate what r =
  if r < 0.0 || r >= 1.0 then invalid_arg (Printf.sprintf "Net: %s rate must be in [0, 1)" what)

let refresh_lossy t =
  t.lossy <-
    Array.exists (fun row -> Array.exists (fun r -> r > 0.0) row) t.loss
    || Array.exists (fun row -> Array.exists (fun r -> r > 0.0) row) t.dup

let set_rate matrix ?src ?dst rate =
  let all = Array.length matrix in
  let srcs = match src with Some s -> [ s ] | None -> List.init all Fun.id in
  let dsts = match dst with Some d -> [ d ] | None -> List.init all Fun.id in
  List.iter (fun s -> List.iter (fun d -> matrix.(s).(d) <- rate) dsts) srcs

let set_loss t ?src ?dst rate =
  check_rate "loss" rate;
  set_rate t.loss ?src ?dst rate;
  refresh_lossy t

let set_duplication t ?src ?dst rate =
  check_rate "duplication" rate;
  set_rate t.dup ?src ?dst rate;
  refresh_lossy t

let set_extra_jitter t j =
  if j < 0 then invalid_arg "Net: extra jitter must be non-negative";
  t.extra_jitter <- j

let membership nodes ids =
  let a = Array.make nodes false in
  List.iter
    (fun i ->
      if i < 0 || i >= nodes then invalid_arg "Net.partition: node id out of range";
      a.(i) <- true)
    ids;
  a

let partition t ~name side_a side_b =
  let n = nodes t in
  Hashtbl.replace t.partitions name (membership n side_a, membership n side_b)

let heal t ~name = Hashtbl.remove t.partitions name

let cut t ~src ~dst =
  Hashtbl.length t.partitions > 0
  && Hashtbl.fold
       (fun _ (a, b) acc -> acc || (a.(src) && b.(dst)) || (b.(src) && a.(dst)))
       t.partitions false

(* ---- transmission ---------------------------------------------------------- *)

(* Drops are decided at the arrival instant: a destination that crashed or
   was partitioned away mid-flight still loses the message, matching real
   networks where the sender cannot tell. *)
let arrival t ~src ~dst payload =
  if t.crashed.(dst) then t.counters.dropped_crash <- t.counters.dropped_crash + 1
  else if cut t ~src ~dst then t.counters.dropped_partition <- t.counters.dropped_partition + 1
  else if t.lossy && t.loss.(src).(dst) > 0.0 && Rng.float t.rng < t.loss.(src).(dst) then
    t.counters.dropped_loss <- t.counters.dropped_loss + 1
  else t.deliver ~dst ~src payload

let propagate t ~src ~dst payload =
  let extra = if t.jitter > 0 then Rng.int t.rng t.jitter else 0 in
  let reorder = if t.extra_jitter > 0 then Rng.int t.rng t.extra_jitter else 0 in
  ignore
    (Sim.schedule t.sim ~after:(t.latency + extra + reorder) (fun () ->
         arrival t ~src ~dst payload))

let send_one t ~src ~dst ~bytes payload =
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <- t.bytes_sent + bytes;
  let service = transmission_ns t bytes in
  (* The NIC serializes transmissions FIFO; propagation starts when the
     last byte leaves the wire. *)
  Rdb_des.Cpu.submit t.nics.(src) ~service (fun () ->
      propagate t ~src ~dst payload;
      (* Duplication (e.g. a retransmitting switch): a second copy takes an
         independently jittered path, so it may arrive out of order. *)
      if t.lossy && t.dup.(src).(dst) > 0.0 && Rng.float t.rng < t.dup.(src).(dst) then begin
        t.counters.duplicated <- t.counters.duplicated + 1;
        propagate t ~src ~dst payload
      end)

let send t ~src ~dst ~bytes payload =
  if t.crashed.(src) then t.counters.dropped_crash <- t.counters.dropped_crash + 1
  else
    match t.interpose.(src) with
    | None -> send_one t ~src ~dst ~bytes payload
    | Some f -> (
      (* The adversary rewrites the source's outbound traffic: an empty
         list suppresses the message (Silence), a singleton passes it or a
         tampered copy, several elements fan out (equivocation). *)
      match f ~dst payload with
      | [] -> t.suppressed <- t.suppressed + 1
      | payloads -> List.iter (fun p -> send_one t ~src ~dst ~bytes p) payloads)

let set_interpose t ~src f = t.interpose.(src) <- Some f

let clear_interpose t ~src = t.interpose.(src) <- None

let crash t node = t.crashed.(node) <- true

let recover t node = t.crashed.(node) <- false

let is_crashed t node = t.crashed.(node)

let messages_sent t = t.messages_sent

let bytes_sent t = t.bytes_sent

let messages_dropped t =
  t.counters.dropped_crash + t.counters.dropped_loss + t.counters.dropped_partition

let messages_duplicated t = t.counters.duplicated

let messages_suppressed t = t.suppressed

