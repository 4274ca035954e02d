(* Conflict-aware parallel execution: the lane scheduler's invariants, the
   state-equivalence argument (E = 4 reaches the state of serial in-order
   execution), and the cluster/Local_runtime deployments of both.

   Three layers of evidence:
   - Scheduler unit + qcheck suites: conflicting transactions never share a
     round across lanes, every plan validates, and replaying a random
     YCSB-shaped block through the plan (with lanes deliberately drained in
     the wrong order) reaches the exact serial state.
   - Cluster (DES): E = 4 at k = 2 completes and stays safe, including
     under 60 random benign + byzantine fault schedules; E = 1 keeps the
     classic single execute-thread stage layout (the bit-identity
     regression) and stays deterministic.
   - Local_runtime: real execution on OCaml domains (E = 4) produces the
     same application-state digest, ledger digest and per-client results as
     the serial runtime. *)

open Rdb_core
module Exec_sched = Rdb_replica.Exec_sched
module Zipf = Rdb_workload.Zipf
module Ycsb = Rdb_workload.Ycsb
module Rng = Rdb_des.Rng
module Mem_store = Rdb_storage.Mem_store

let qtest p = QCheck_alcotest.to_alcotest p

(* ---- scheduler: unit suite ------------------------------------------------ *)

let fp ?(reads = []) writes = { Exec_sched.reads; writes }

let check_valid name fps plan =
  match Exec_sched.validate fps plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid plan (%s): %s" name (Exec_sched.stats plan) e

let test_disjoint_block_spreads () =
  (* No two transactions share a key: one round, all lanes busy. *)
  let fps = Array.init 16 (fun i -> fp [ Printf.sprintf "k%d" i ]) in
  let plan = Exec_sched.schedule ~lanes:4 fps in
  check_valid "disjoint" fps plan;
  Alcotest.(check int) "one round" 1 (List.length plan.Exec_sched.rounds);
  let round = List.hd plan.Exec_sched.rounds in
  Array.iter (fun lane -> Alcotest.(check int) "balanced" 4 (List.length lane)) round

let test_hot_key_serializes () =
  (* Every transaction writes the same key: they must all land in one lane
     (or successive rounds), never side by side. *)
  let fps = Array.init 8 (fun _ -> fp [ "hot" ]) in
  let plan = Exec_sched.schedule ~lanes:4 fps in
  check_valid "hot-key" fps plan;
  List.iter
    (fun round ->
      let busy = Array.to_list round |> List.filter (fun l -> l <> []) in
      Alcotest.(check int) "conflicting txns never run side by side" 1 (List.length busy))
    plan.Exec_sched.rounds

let test_read_read_shares_no_conflict () =
  (* Shared reads are not conflicts; a write to the same key is. *)
  let fps =
    [| fp ~reads:[ "x" ] [ "a" ]; fp ~reads:[ "x" ] [ "b" ]; fp ~reads:[] [ "x" ] |]
  in
  let plan = Exec_sched.schedule ~lanes:4 fps in
  check_valid "read-read" fps plan;
  (* The two readers may share round 0; the writer of x must come later
     (it conflicts with both). *)
  (match plan.Exec_sched.rounds with
  | first :: _ ->
    let members = Array.to_list first |> List.concat in
    Alcotest.(check bool) "readers run first" true
      (List.mem 0 members && List.mem 1 members && not (List.mem 2 members))
  | [] -> Alcotest.fail "empty plan");
  Alcotest.(check bool) "needs a second round" true (List.length plan.Exec_sched.rounds >= 2)

let test_lanes1_degenerates () =
  let fps = Array.init 10 (fun i -> fp [ Printf.sprintf "k%d" (i mod 3) ]) in
  let plan = Exec_sched.schedule ~lanes:1 fps in
  check_valid "lanes1" fps plan;
  Alcotest.(check int) "single round" 1 (List.length plan.Exec_sched.rounds);
  let order = Array.to_list (List.hd plan.Exec_sched.rounds) |> List.concat in
  Alcotest.(check (list int)) "block order preserved" (List.init 10 Fun.id) order

let test_empty_block () =
  let plan = Exec_sched.schedule ~lanes:4 [||] in
  check_valid "empty" [||] plan;
  Alcotest.(check int) "no rounds" 0 (List.length plan.Exec_sched.rounds)

let test_critical_path_bound () =
  (* Disjoint 16-txn block over 4 lanes: the critical path is a quarter of
     the serial one; the hot-key block has no parallelism at all. *)
  let disjoint = Array.init 16 (fun i -> fp [ Printf.sprintf "k%d" i ]) in
  let hot = Array.init 16 (fun _ -> fp [ "hot" ]) in
  let cp fps = Exec_sched.critical_ops fps (Exec_sched.schedule ~lanes:4 fps) in
  Alcotest.(check int) "disjoint critical path" 4 (cp disjoint);
  Alcotest.(check int) "hot-key critical path" 16 (cp hot)

(* ---- scheduler: qcheck properties ----------------------------------------- *)

(* A random block: footprints over a deliberately small keyspace so
   conflicts are dense (the adversarial case for the scheduler). *)
let gen_block =
  let open QCheck.Gen in
  let key = map (fun i -> Printf.sprintf "key-%d" i) (int_bound 12) in
  let footprint =
    map2
      (fun reads writes -> { Exec_sched.reads; writes })
      (list_size (int_bound 2) key)
      (list_size (int_bound 3) key)
  in
  map Array.of_list (list_size (int_range 0 60) footprint)

let print_block fps =
  String.concat "; "
    (Array.to_list fps
    |> List.map (fun f ->
           Printf.sprintf "r[%s] w[%s]"
             (String.concat "," f.Exec_sched.reads)
             (String.concat "," f.Exec_sched.writes)))

let arb_block = QCheck.make gen_block ~print:print_block

let prop_schedule_validates =
  QCheck.Test.make ~name:"exec_sched: every plan validates" ~count:300
    (QCheck.pair arb_block (QCheck.int_range 1 8))
    (fun (fps, lanes) ->
      match Exec_sched.validate fps (Exec_sched.schedule ~lanes fps) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_schedule_deterministic =
  QCheck.Test.make ~name:"exec_sched: schedule is a pure function" ~count:100
    (QCheck.pair arb_block (QCheck.int_range 1 8))
    (fun (fps, lanes) ->
      Exec_sched.schedule ~lanes fps = Exec_sched.schedule ~lanes fps)

(* State equivalence, model-checked: executing the block through the plan —
   with every round's lanes drained in the WRONG order (reversed, and
   round-robin interleaved) — ends in exactly the serial in-order state.
   Transactions are YCSB-shaped updates: write key := txn index. *)
let apply_serial fps =
  let store = Hashtbl.create 64 in
  Array.iteri
    (fun i f -> List.iter (fun k -> Hashtbl.replace store k i) f.Exec_sched.writes)
    fps;
  store

let apply_planned ~lanes fps =
  let plan = Exec_sched.schedule ~lanes fps in
  let store = Hashtbl.create 64 in
  let exec i = List.iter (fun k -> Hashtbl.replace store k i) fps.(i).Exec_sched.writes in
  List.iteri
    (fun ri round ->
      (* Drain lanes in reverse order on even rounds and round-robin
         one-at-a-time on odd rounds: any interleaving of conflict-free
         lanes must commute. *)
      if ri mod 2 = 0 then
        for l = Array.length round - 1 downto 0 do
          List.iter exec round.(l)
        done
      else begin
        let cursors = Array.map (fun l -> ref l) round in
        let again = ref true in
        while !again do
          again := false;
          Array.iter
            (fun c ->
              match !c with
              | [] -> ()
              | i :: rest ->
                exec i;
                c := rest;
                if rest <> [] then again := true)
            cursors
        done
      end)
    plan.Exec_sched.rounds;
  store

let stores_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v ok -> ok && Hashtbl.find_opt b k = Some v) a true

let prop_state_equivalence =
  QCheck.Test.make ~name:"exec_sched: planned execution = serial state" ~count:300
    (QCheck.pair arb_block (QCheck.int_range 1 8))
    (fun (fps, lanes) -> stores_equal (apply_serial fps) (apply_planned ~lanes fps))

(* The same property over a Zipfian YCSB block (the workload the cluster's
   footprint derivation draws): hot keys make write-write chains long. *)
let prop_state_equivalence_zipf =
  QCheck.Test.make ~name:"exec_sched: zipf YCSB block = serial state" ~count:100
    (QCheck.int_bound 10_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let zipf = Zipf.create ~n:50 () in
      let fps =
        Array.init 80 (fun _ -> fp [ Ycsb.key_of_index (Zipf.sample zipf rng) ])
      in
      List.for_all
        (fun lanes -> stores_equal (apply_serial fps) (apply_planned ~lanes fps))
        [ 2; 4; 8 ])

(* ---- cluster (DES): parallel lanes complete, stay safe, shift the stages -- *)

let small =
  Params.default
  |> Params.with_n 4
  |> Params.with_clients 2_000
  |> Params.with_windows ~warmup:(Rdb_des.Sim.seconds 0.2)
       ~measure:(Rdb_des.Sim.seconds 0.3)

let stage_names (m : Metrics.t) =
  let primary = List.find (fun r -> r.Metrics.is_primary) m.Metrics.replicas in
  List.map (fun s -> s.Metrics.stage) primary.Metrics.stages

let test_cluster_parallel_progress () =
  let p = small |> Params.with_execute_threads 4 |> Params.with_instances 2 in
  let c = Cluster.create p in
  let m = Cluster.measure c in
  Alcotest.(check bool) "completes" true (m.Metrics.completed_txns > 0);
  Alcotest.(check bool) "blocks appended" true (m.Metrics.ledger_blocks > 0);
  (match Cluster.check_safety c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "safety: %s" e);
  let names = stage_names m in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " present") true (List.mem s names))
    [ "exec-sched"; "execute-0"; "execute-1"; "execute-2"; "execute-3" ];
  Alcotest.(check bool) "no legacy execute stage" false (List.mem "execute" names)

let test_cluster_e1_legacy_layout () =
  (* The bit-identity regression for E = 1: the classic pipeline — a single
     "execute" stage, no scheduler stage — and deterministic metrics. *)
  let m = Cluster.run small in
  let names = stage_names m in
  Alcotest.(check bool) "classic execute stage" true (List.mem "execute" names);
  Alcotest.(check bool) "no lane stages" false
    (List.exists (fun s -> s = "exec-sched" || s = "execute-0") names);
  let m' = Cluster.run small in
  Alcotest.(check int) "deterministic completions" m.Metrics.completed_txns
    m'.Metrics.completed_txns;
  Alcotest.(check (float 1e-9)) "deterministic throughput" m.Metrics.throughput_tps
    m'.Metrics.throughput_tps

let test_cluster_conflict_knob () =
  (* A tiny keyspace forces conflicts; the run must still complete and
     agree (the schedule degrades towards serial, never towards races). *)
  let p =
    small |> Params.with_execute_threads 4
    |> Params.map_exec (fun e -> { e with Params.Exec.exec_records = 8 })
  in
  let c = Cluster.create p in
  let m = Cluster.measure c in
  Alcotest.(check bool) "completes under dense conflicts" true (m.Metrics.completed_txns > 0);
  match Cluster.check_safety c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "safety: %s" e

(* Safety under random benign + byzantine fault schedules with parallel
   lanes on — the exact property test_faults/test_byzantine establish for
   the classic pipeline, rerun at E = 4. *)
let prop_parallel_safety_under_faults =
  QCheck.Test.make ~name:"cluster: E=4 safety under random byzantine schedules" ~count:60
    (QCheck.pair Testkit.arb_byzantine_schedule (QCheck.int_bound 10_000))
    (fun (schedule, seed) ->
      let p =
        small
        |> Params.with_execute_threads 4
        |> Params.with_clients 150
        |> Params.with_client_timeout (Rdb_des.Sim.ms 80.0)
        |> Params.with_view_timeout (Rdb_des.Sim.ms 60.0)
        |> Params.with_nemesis schedule
        |> Params.with_seed (Int64.of_int (seed + 1))
        |> Params.with_windows ~warmup:(Rdb_des.Sim.seconds 0.2)
             ~measure:(Rdb_des.Sim.seconds 0.5)
      in
      let c = Cluster.create p in
      let _m = Cluster.measure c in
      match Cluster.check_safety c with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* ---- Local_runtime: real execution on OCaml domains ----------------------- *)

(* YCSB-shaped payloads "key value": apply writes key := value, the
   footprint declares the write.  Key pool small enough to make batches
   conflict. *)
let lr_apply ~replica:_ store ~client:_ ~payload =
  match String.index_opt payload ' ' with
  | Some i ->
    let key = String.sub payload 0 i in
    let v = String.sub payload (i + 1) (String.length payload - i - 1) in
    Mem_store.put store key v;
    "ok"
  | None -> "bad-payload"

let lr_footprint ~client:_ ~payload =
  match String.index_opt payload ' ' with
  | Some i -> { Exec_sched.reads = []; writes = [ String.sub payload 0 i ] }
  | None -> { Exec_sched.reads = []; writes = [] }

let lr_submit_workload rt =
  let rng = Rng.create 77L in
  for i = 0 to 79 do
    let key = Printf.sprintf "k%d" (Rng.int rng 10) in
    ignore (Local_runtime.submit rt ~client:(i mod 5) ~payload:(Printf.sprintf "%s v%d" key i))
  done;
  Local_runtime.flush rt;
  Local_runtime.run rt

let test_local_runtime_domains_equivalence () =
  let serial =
    Local_runtime.create
      ~config:{ Local_runtime.default_config with Local_runtime.batch_size = 16 }
      ~apply:lr_apply ()
  in
  let parallel =
    Local_runtime.create
      ~config:
        { Local_runtime.default_config with Local_runtime.batch_size = 16; exec_threads = 4 }
      ~footprint:lr_footprint ~apply:lr_apply ()
  in
  lr_submit_workload serial;
  lr_submit_workload parallel;
  (match Local_runtime.verify serial with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serial runtime diverged: %s" e);
  (match Local_runtime.verify parallel with
  | Ok () -> ()
  | Error e -> Alcotest.failf "parallel runtime diverged: %s" e);
  (* State equivalence across the two runtimes: identical application state
     and identical per-transaction results. *)
  Alcotest.(check string) "application state digest"
    (Mem_store.digest (Local_runtime.store serial 0))
    (Mem_store.digest (Local_runtime.store parallel 0));
  let results rt =
    List.sort compare (Local_runtime.completed rt)
  in
  Alcotest.(check (list (pair int string))) "per-transaction results" (results serial)
    (results parallel)

let test_local_runtime_domains_conflict_heavy () =
  (* Every transaction writes the same key: the plan serializes the batch
     and the last write must win on every replica. *)
  let parallel =
    Local_runtime.create
      ~config:
        { Local_runtime.default_config with Local_runtime.batch_size = 20; exec_threads = 4 }
      ~footprint:lr_footprint ~apply:lr_apply ()
  in
  for i = 0 to 19 do
    ignore (Local_runtime.submit parallel ~client:0 ~payload:(Printf.sprintf "hot v%d" i))
  done;
  Local_runtime.run parallel;
  (match Local_runtime.verify parallel with
  | Ok () -> ()
  | Error e -> Alcotest.failf "diverged: %s" e);
  Alcotest.(check (option string)) "last write wins" (Some "v19")
    (Mem_store.get (Local_runtime.store parallel 0) "hot")

let () =
  Alcotest.run "exec"
    [
      ( "scheduler",
        [
          Alcotest.test_case "disjoint block spreads" `Quick test_disjoint_block_spreads;
          Alcotest.test_case "hot key serializes" `Quick test_hot_key_serializes;
          Alcotest.test_case "read-read is no conflict" `Quick test_read_read_shares_no_conflict;
          Alcotest.test_case "lanes=1 degenerates" `Quick test_lanes1_degenerates;
          Alcotest.test_case "empty block" `Quick test_empty_block;
          Alcotest.test_case "critical path bound" `Quick test_critical_path_bound;
          qtest prop_schedule_validates;
          qtest prop_schedule_deterministic;
          qtest prop_state_equivalence;
          qtest prop_state_equivalence_zipf;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "E=4 k=2 completes safely" `Quick test_cluster_parallel_progress;
          Alcotest.test_case "E=1 keeps the classic layout" `Quick test_cluster_e1_legacy_layout;
          Alcotest.test_case "dense conflicts stay safe" `Quick test_cluster_conflict_knob;
          qtest prop_parallel_safety_under_faults;
        ] );
      ( "local-runtime",
        [
          Alcotest.test_case "domains = serial state" `Quick test_local_runtime_domains_equivalence;
          Alcotest.test_case "hot-key batch on domains" `Quick
            test_local_runtime_domains_conflict_heavy;
        ] );
    ]
