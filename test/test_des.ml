(* Tests for the discrete-event simulation substrate: RNG determinism,
   statistics, simulator semantics and event-queue order, CPU resource. *)

module Rng = Rdb_des.Rng
module Stats = Rdb_des.Stats
module Sim = Rdb_des.Sim
module Cpu = Rdb_des.Cpu

let check = Alcotest.check
let qtest p = QCheck_alcotest.to_alcotest p

(* ---- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" false (Rng.int64 a = Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_range () =
  let rng = Rng.create 9L in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_float_mean () =
  let rng = Rng.create 11L in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  let mean = !acc /. float_of_int n in
  if abs_float (mean -. 0.5) > 0.01 then Alcotest.failf "mean suspicious: %f" mean

let test_rng_exponential_mean () =
  let rng = Rng.create 13L in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !acc /. float_of_int n in
  if abs_float (mean -. 5.0) > 0.15 then Alcotest.failf "exp mean suspicious: %f" mean

let test_rng_split_independence () =
  let root = Rng.create 21L in
  let a = Rng.split root in
  let b = Rng.split root in
  Alcotest.(check bool) "split streams differ" false (Rng.int64 a = Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create 5L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copies agree" (Rng.int64 a) (Rng.int64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 (fun i -> i)) sorted

(* ---- Stats -------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max s);
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.median s);
  check (Alcotest.float 1e-9) "total" 15.0 (Stats.total s);
  check Alcotest.int "count" 5 (Stats.count s);
  check (Alcotest.float 1e-9) "variance" 2.5 (Stats.variance s)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile s 50.0);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.percentile s 99.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1e-9) "p0 -> first" 1.0 (Stats.percentile s 0.5)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 1e-9) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.(check bool) "percentile of empty is nan" true (Float.is_nan (Stats.percentile s 50.0))

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  check Alcotest.int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m)

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 2.0; 5.0 |] in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 3.0; 10.0 ];
  check Alcotest.(array int) "bucket counts" [| 1; 2; 1; 1 |] (Stats.Histogram.counts h)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"online mean equals naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      let naive = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      abs_float (Stats.mean s -. naive) < 1e-6)

(* ---- Sim ---------------------------------------------------------------- *)

let test_sim_time_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~after:(Sim.ns 30) (fun () -> log := 3 :: !log));
  ignore (Sim.schedule sim ~after:(Sim.ns 10) (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~after:(Sim.ns 20) (fun () -> log := 2 :: !log));
  Sim.run sim;
  check Alcotest.(list int) "fires in time order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~after:(Sim.ns 10) (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  check Alcotest.(list int) "same-time events keep scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule sim ~after:(Sim.ns 10) (fun () -> fired := true) in
  Sim.cancel ev;
  Sim.run sim;
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check bool) "cancelled" true (Sim.cancelled ev)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~after:(Sim.ns (i * 10)) (fun () -> incr count))
  done;
  Sim.run ~until:(Sim.ns 50) sim;
  check Alcotest.int "only first five fire" 5 !count;
  check Alcotest.int "clock parked at limit" 50 (Sim.now sim);
  Sim.run sim;
  check Alcotest.int "rest fire on resume" 10 !count

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~after:(Sim.ns 10) (fun () ->
         log := "outer" :: !log;
         ignore (Sim.schedule sim ~after:(Sim.ns 5) (fun () -> log := "inner" :: !log))));
  Sim.run sim;
  check Alcotest.(list string) "nested event fires" [ "outer"; "inner" ] (List.rev !log);
  check Alcotest.int "clock" 15 (Sim.now sim)

let test_sim_units () =
  check Alcotest.int "us" 1_000 (Sim.us 1.0);
  check Alcotest.int "ms" 1_000_000 (Sim.ms 1.0);
  check Alcotest.int "s" 1_000_000_000 (Sim.seconds 1.0);
  check (Alcotest.float 1e-12) "roundtrip" 2.5 (Sim.to_seconds (Sim.seconds 2.5))

let test_sim_past_schedule_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~after:(Sim.ns 10) (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "past schedule" (Invalid_argument "Sim.schedule_at: time is in the past")
    (fun () -> ignore (Sim.schedule_at sim ~at:5 (fun () -> ())))

(* Model check of the event queue.  Events are scheduled at random
   (often tied) times, some are cancelled, a random number are fired with
   [step], more are scheduled relative to the new clock and more are
   cancelled, and the rest run.  The fire order must be the stable sort of
   all events by time in scheduling order (FIFO ties), less those cancelled
   while still pending. *)
let prop_sim_queue_order =
  let ops = QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 30) bool)) in
  QCheck.Test.make ~name:"fires in stable time order, cancelled skipped" ~count:300
    QCheck.(quad ops (int_bound 45) ops (list_of_size Gen.(0 -- 10) (int_bound 80)))
    (fun (first, steps, second, late_cancels) ->
      let sim = Sim.create () in
      let fired = ref [] in
      (* (id, time, handle) in scheduling order; ids count up from 0. *)
      let scheduled = ref [] and dropped = ref [] in
      let add ~at cancel =
        let id = List.length !scheduled in
        let ev = Sim.schedule_at sim ~at (fun () -> fired := id :: !fired) in
        scheduled := !scheduled @ [ (id, at, ev) ];
        if cancel then begin
          Sim.cancel ev;
          dropped := id :: !dropped
        end
      in
      List.iter (fun (at, cancel) -> add ~at cancel) first;
      for _ = 1 to steps do
        ignore (Sim.step sim)
      done;
      List.iter (fun (after, cancel) -> add ~at:(Sim.now sim + after) cancel) second;
      List.iter
        (fun i ->
          match List.nth_opt !scheduled i with
          | Some (id, _, ev) when not (List.mem id !fired) ->
            Sim.cancel ev;
            dropped := id :: !dropped
          | _ -> ())
        late_cancels;
      let live = List.filter (fun (id, _, _) -> not (List.mem id !dropped)) !scheduled in
      let pending_ok = Sim.pending sim = List.length live - List.length !fired in
      Sim.run sim;
      let expected =
        List.map (fun (id, _, _) -> id)
          (List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) live)
      in
      pending_ok && List.rev !fired = expected && Sim.pending sim = 0)

(* ---- Cpu ---------------------------------------------------------------- *)

let test_cpu_serializes_on_one_core () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Cpu.submit cpu ~service:(Sim.ns 100) (fun () -> done_at := Sim.now sim :: !done_at)
  done;
  Sim.run sim;
  check Alcotest.(list int) "FIFO completion times" [ 100; 200; 300 ] (List.rev !done_at)

let test_cpu_parallel_cores () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  let done_at = ref [] in
  for _ = 1 to 4 do
    Cpu.submit cpu ~service:(Sim.ns 100) (fun () -> done_at := Sim.now sim :: !done_at)
  done;
  Sim.run sim;
  check Alcotest.(list int) "two at a time" [ 100; 100; 200; 200 ] (List.rev !done_at)

let test_cpu_busy_accounting () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  Cpu.submit cpu ~service:(Sim.ns 100) (fun () -> ());
  Cpu.submit cpu ~service:(Sim.ns 50) (fun () -> ());
  Sim.run sim;
  check Alcotest.int "busy time summed" 150 (Cpu.busy_ns cpu)

let test_cpu_utilization () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  Cpu.submit cpu ~service:(Sim.ns 100) (fun () -> ());
  ignore (Sim.schedule sim ~after:(Sim.ns 200) (fun () -> ()));
  Sim.run sim;
  check (Alcotest.float 1e-9) "50% utilized" 0.5 (Cpu.utilization cpu ~since_busy_ns:0 ~since_time:0)

let test_cpu_oversubscription_inflates () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~cs_alpha:1.0 sim ~cores:1 in
  let done_at = ref [] in
  (* Two runnable jobs on one core: the second dispatch sees contention. *)
  Cpu.submit cpu ~service:(Sim.ns 100) (fun () -> done_at := Sim.now sim :: !done_at);
  Cpu.submit cpu ~service:(Sim.ns 100) (fun () -> done_at := Sim.now sim :: !done_at);
  Sim.run sim;
  match List.rev !done_at with
  | [ first; second ] ->
    (* First job dispatched with queue behind it -> inflated. *)
    Alcotest.(check bool) "inflation applied" true (first > 100 || second > first + 100)
  | _ -> Alcotest.fail "expected two completions"

let () =
  Alcotest.run "rdb_des"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          qtest prop_stats_mean_matches_naive;
        ] );
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_time_ordering;
          Alcotest.test_case "FIFO tie-break" `Quick test_sim_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_schedule;
          Alcotest.test_case "time units" `Quick test_sim_units;
          Alcotest.test_case "past schedule rejected" `Quick test_sim_past_schedule_rejected;
          qtest prop_sim_queue_order;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "one core serializes" `Quick test_cpu_serializes_on_one_core;
          Alcotest.test_case "parallel cores" `Quick test_cpu_parallel_cores;
          Alcotest.test_case "busy accounting" `Quick test_cpu_busy_accounting;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
          Alcotest.test_case "oversubscription inflates" `Quick test_cpu_oversubscription_inflates;
        ] );
    ]
