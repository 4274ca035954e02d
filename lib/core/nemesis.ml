module Sim = Rdb_des.Sim

(* What a byzantine replica is currently doing.  A replica has exactly one
   behavior at a time; installing a new one replaces the old, and [Honest]
   restores normal operation. *)
type behavior =
  | Honest
  | Equivocating
  | Corrupting_digest of float
  | Corrupting_mac of float
  | Silent_towards of int list
  | Spamming_view_changes of Sim.time

type fault =
  | Crash_primary
  | Crash_instance_primary of int
  | Crash of int
  | Recover of int
  | Partition of { name : string; side_a : int list; side_b : int list }
  | Heal of string
  | Loss of float
  | Duplication of float
  | Extra_jitter of Sim.time
  | Equivocate of int
  | Corrupt_digest of { node : int; rate : float }
  | Corrupt_mac of { node : int; rate : float }
  | Silence of { node : int; peers : int list }
  | View_change_spam of { node : int; period : Sim.time }
  | Restore_honest of int

type entry = { at : Sim.time; fault : fault }

type schedule = entry list

let at time fault = { at = time; fault }

let at_ms ms fault = { at = Sim.ms ms; fault }

let window ~from_ ~until on off =
  if until < from_ then invalid_arg "Nemesis: window ends before it starts";
  [ at from_ on; at until off ]

let loss_window ~from_ ~until rate = window ~from_ ~until (Loss rate) (Loss 0.0)

let duplication_window ~from_ ~until rate =
  window ~from_ ~until (Duplication rate) (Duplication 0.0)

let partition_window ~from_ ~until ~name side_a side_b =
  window ~from_ ~until (Partition { name; side_a; side_b }) (Heal name)

let crash_primary_at time = [ at time Crash_primary ]

let crash_instance_primary_at time inst = [ at time (Crash_instance_primary inst) ]

let equivocate_window ~from_ ~until node =
  window ~from_ ~until (Equivocate node) (Restore_honest node)

let corrupt_digest_window ~from_ ~until node rate =
  window ~from_ ~until (Corrupt_digest { node; rate }) (Restore_honest node)

let corrupt_mac_window ~from_ ~until node rate =
  window ~from_ ~until (Corrupt_mac { node; rate }) (Restore_honest node)

let silence_window ~from_ ~until node peers =
  window ~from_ ~until (Silence { node; peers }) (Restore_honest node)

let view_change_spam_window ~from_ ~until node ~period =
  window ~from_ ~until (View_change_spam { node; period }) (Restore_honest node)

let behavior_of_fault = function
  | Equivocate _ -> Some Equivocating
  | Corrupt_digest { rate; _ } -> Some (Corrupting_digest rate)
  | Corrupt_mac { rate; _ } -> Some (Corrupting_mac rate)
  | Silence { peers; _ } -> Some (Silent_towards peers)
  | View_change_spam { period; _ } -> Some (Spamming_view_changes period)
  | Restore_honest _ -> Some Honest
  | Crash_primary | Crash_instance_primary _ | Crash _ | Recover _ | Partition _ | Heal _ | Loss _
  | Duplication _ | Extra_jitter _ ->
    None

let is_byzantine = function
  | Equivocate _ | Corrupt_digest _ | Corrupt_mac _ | Silence _ | View_change_spam _ -> true
  | Restore_honest _ | Crash_primary | Crash_instance_primary _ | Crash _ | Recover _ | Partition _
  | Heal _ | Loss _ | Duplication _ | Extra_jitter _ ->
    false

let attacker_of = function
  | Equivocate node
  | Corrupt_digest { node; _ }
  | Corrupt_mac { node; _ }
  | Silence { node; _ }
  | View_change_spam { node; _ }
  | Restore_honest node ->
    Some node
  | Crash_primary | Crash_instance_primary _ | Crash _ | Recover _ | Partition _ | Heal _ | Loss _
  | Duplication _ | Extra_jitter _ ->
    None

let describe = function
  | Crash_primary -> "crash primary"
  | Crash_instance_primary i -> Printf.sprintf "crash primary of instance %d" i
  | Crash i -> Printf.sprintf "crash replica %d" i
  | Recover i -> Printf.sprintf "recover replica %d" i
  | Partition { name; side_a; side_b } ->
    Printf.sprintf "partition %S: {%s} | {%s}" name
      (String.concat "," (List.map string_of_int side_a))
      (String.concat "," (List.map string_of_int side_b))
  | Heal name -> Printf.sprintf "heal %S" name
  | Loss r -> Printf.sprintf "loss %.1f%%" (100.0 *. r)
  | Duplication r -> Printf.sprintf "duplication %.1f%%" (100.0 *. r)
  | Extra_jitter j -> Printf.sprintf "extra jitter %dns" j
  | Equivocate node -> Printf.sprintf "replica %d equivocates" node
  | Corrupt_digest { node; rate } ->
    Printf.sprintf "replica %d corrupts digests (%.0f%%)" node (100.0 *. rate)
  | Corrupt_mac { node; rate } ->
    Printf.sprintf "replica %d forges MACs (%.0f%%)" node (100.0 *. rate)
  | Silence { node; peers } ->
    Printf.sprintf "replica %d silent towards {%s}" node
      (String.concat "," (List.map string_of_int peers))
  | View_change_spam { node; period } ->
    Printf.sprintf "replica %d spams view changes every %dns" node period
  | Restore_honest node -> Printf.sprintf "replica %d restored to honesty" node

let validate ~n schedule =
  let check_node what i =
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Nemesis: %s names replica %d outside [0, %d)" what i n)
  in
  List.iter
    (fun { at; fault } ->
      if at < 0 then invalid_arg "Nemesis: negative fault time";
      match fault with
      | Crash i -> check_node "crash" i
      | Recover i -> check_node "recover" i
      | Partition { side_a; side_b; _ } ->
        List.iter (check_node "partition") side_a;
        List.iter (check_node "partition") side_b;
        if List.exists (fun i -> List.mem i side_b) side_a then
          invalid_arg "Nemesis: partition sides overlap"
      | Heal _ | Crash_primary -> ()
      | Crash_instance_primary i ->
        if i < 0 then invalid_arg "Nemesis: negative consensus instance"
      | Loss r | Duplication r ->
        if r < 0.0 || r >= 1.0 then invalid_arg "Nemesis: rate must be in [0, 1)"
      | Extra_jitter j -> if j < 0 then invalid_arg "Nemesis: negative jitter"
      | Equivocate i | Restore_honest i -> check_node "byzantine" i
      | Corrupt_digest { node; rate } | Corrupt_mac { node; rate } ->
        check_node "byzantine" node;
        if rate < 0.0 || rate > 1.0 then invalid_arg "Nemesis: corruption rate must be in [0, 1]"
      | Silence { node; peers } ->
        check_node "byzantine" node;
        List.iter (check_node "silence peer") peers
      | View_change_spam { node; period } ->
        check_node "byzantine" node;
        if period <= 0 then invalid_arg "Nemesis: view-change spam period must be positive")
    schedule;
  (* The hardening guarantees only hold for f <= (n-1)/3 concurrent liars;
     reject schedules that name more distinct attackers than that. *)
  let attackers =
    List.sort_uniq compare
      (List.filter_map (fun { fault; _ } -> if is_byzantine fault then attacker_of fault else None)
         schedule)
  in
  let f = (n - 1) / 3 in
  if List.length attackers > f then
    invalid_arg
      (Printf.sprintf "Nemesis: %d byzantine attackers exceeds f = (n-1)/3 = %d for n = %d"
         (List.length attackers) f n)

(* ---- random schedule generation ------------------------------------------ *)

(* One source for randomized fault schedules, shared by the fault-campaign
   harness, the qcheck properties (test/testkit.ml wraps these into QCheck
   generators) and the examples.  All draws come from the caller's
   deterministic [Rng.t], so a (family, seed) pair names one schedule
   forever.  Times are tuned for sub-second runs (the campaign and test
   default): faults land inside the first ~450 ms, windows are 20–120 ms,
   except the deliberately run-covering heavy-loss family. *)
module Gen = struct
  module Rng = Rdb_des.Rng

  type family =
    | Fault_free
    | Crashes
    | Partitions
    | Loss
    | Heavy_loss
    | Duplication
    | Byzantine
    | Mixed

  let all_families =
    [ Fault_free; Crashes; Partitions; Loss; Heavy_loss; Duplication; Byzantine; Mixed ]

  let family_name = function
    | Fault_free -> "none"
    | Crashes -> "crash"
    | Partitions -> "partition"
    | Loss -> "loss"
    | Heavy_loss -> "heavy-loss"
    | Duplication -> "dup"
    | Byzantine -> "byzantine"
    | Mixed -> "mixed"

  let family_of_name s = List.find_opt (fun f -> family_name f = s) all_families

  let time rng lo_ms hi_ms = Sim.ms (float_of_int (lo_ms + Rng.int rng (hi_ms - lo_ms + 1)))

  (* Crash the primary, or a random backup, inside the first 400 ms. *)
  let crash ~n rng =
    if Rng.bool rng then crash_primary_at (time rng 100 400)
    else [ at (time rng 100 400) (Crash (1 + Rng.int rng (n - 1))) ]

  (* Cut the replica set in halves for a bounded window.  The minority side
     holds fewer than 2f+1 replicas, so progress depends on the majority
     side keeping (or electing) a primary. *)
  let partition ~n rng =
    let from_ = time rng 100 350 in
    let half = n / 2 in
    partition_window ~from_ ~until:(from_ + time rng 20 120) ~name:"gen"
      (List.init half Fun.id)
      (List.init (n - half) (fun i -> half + i))

  let loss_burst rng =
    let from_ = time rng 100 350 in
    loss_window ~from_ ~until:(from_ + time rng 20 120) 0.1

  (* 35–55% loss covering most of the run: the liveness-cliff probe.  With a
     generous view timeout the retransmission machinery grinds through it;
     with a short one the cluster spends the window electing primaries it
     cannot hear, which is exactly the wedge the campaign exists to map. *)
  let heavy_loss rng =
    let rate = 0.35 +. (0.05 *. float_of_int (Rng.int rng 5)) in
    loss_window ~from_:(time rng 80 150) ~until:(time rng 600 750) rate

  let duplication_burst rng =
    let from_ = time rng 100 350 in
    duplication_window ~from_ ~until:(from_ + time rng 20 120) 0.2

  let jitter_spike rng = [ at (time rng 50 300) (Extra_jitter (Sim.us 400.0)) ]

  (* The benign mix the qcheck safety properties throw at small clusters:
     each component present with probability 1/2. *)
  let random_benign ~n rng =
    let opt gen = if Rng.bool rng then gen rng else [] in
    List.concat
      [
        opt (crash ~n);
        opt (partition ~n);
        opt loss_burst;
        opt duplication_burst;
        opt jitter_spike;
      ]

  (* One byzantine attacker window: a single replica lies in one of the five
     adversarial modes for a bounded interval, then returns to honesty.
     Naming one attacker keeps the schedule inside the f <= (n-1)/3 bound
     [validate] enforces, by construction. *)
  let random_attack ~n rng =
    let node = Rng.int rng n in
    let from_ = time rng 100 350 in
    let until = from_ + time rng 20 120 in
    let rate () = float_of_int (1 + Rng.int rng 10) /. 10.0 in
    match Rng.int rng 5 with
    | 0 -> equivocate_window ~from_ ~until node
    | 1 -> corrupt_digest_window ~from_ ~until node (rate ())
    | 2 -> corrupt_mac_window ~from_ ~until node (rate ())
    | 3 ->
      let k = 1 + Rng.int rng 2 in
      silence_window ~from_ ~until node (List.init k (fun i -> (node + 1 + i) mod n))
    | _ -> view_change_spam_window ~from_ ~until node ~period:(Sim.ms 5.0)

  (* The full fault model: the benign mix plus, half the time, a byzantine
     attacker window. *)
  let random_schedule ~n rng =
    let benign = random_benign ~n rng in
    if Rng.bool rng then benign @ random_attack ~n rng else benign

  let generate family ~n rng =
    match family with
    | Fault_free -> []
    | Crashes -> crash ~n rng
    | Partitions -> partition ~n rng
    | Loss -> loss_burst rng
    | Heavy_loss -> heavy_loss rng
    | Duplication -> duplication_burst rng
    | Byzantine -> random_attack ~n rng
    | Mixed -> random_schedule ~n rng
end

(* The cluster hands over narrow capabilities instead of itself, so this
   module stays independent of the cluster's (large) internal state and the
   schedule types can be referenced from [Params] without a dependency
   cycle. *)
type driver = {
  sim : Sim.t;
  current_primary : unit -> int;
  current_instance_primary : int -> int;
  crash : int -> unit;
  recover : int -> unit;
  partition : name:string -> int list -> int list -> unit;
  heal : name:string -> unit;
  set_loss : float -> unit;
  set_duplication : float -> unit;
  set_extra_jitter : Sim.time -> unit;
  set_behavior : node:int -> behavior -> unit;
  note : fault -> unit;  (** observation hook, fired as each fault is injected *)
}

let apply d fault =
  (match fault with
  | Crash_primary -> d.crash (d.current_primary ())
  | Crash_instance_primary i -> d.crash (d.current_instance_primary i)
  | Crash i -> d.crash i
  | Recover i -> d.recover i
  | Partition { name; side_a; side_b } -> d.partition ~name side_a side_b
  | Heal name -> d.heal ~name
  | Loss r -> d.set_loss r
  | Duplication r -> d.set_duplication r
  | Extra_jitter j -> d.set_extra_jitter j
  | (Equivocate _ | Corrupt_digest _ | Corrupt_mac _ | Silence _ | View_change_spam _
    | Restore_honest _) as byz -> (
    match (attacker_of byz, behavior_of_fault byz) with
    | Some node, Some b -> d.set_behavior ~node b
    | _ -> assert false));
  d.note fault

let install d schedule =
  List.iter
    (fun { at; fault } -> ignore (Sim.schedule_at d.sim ~at (fun () -> apply d fault)))
    schedule
