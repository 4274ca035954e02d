(* HotStuff protocol-core tests: the linear three-phase normal case
   (votes to the leader only, certificates back), out-of-order and
   duplicated delivery, equivocation safety under digest-keyed vote
   pooling, checkpoint garbage collection, pacemaker-driven leader
   rotation, and — at the cluster level — safety under 200 random
   byzantine schedules (f <= (n-1)/3), durable close/reopen resume, and
   E = 4 parallel execution lanes. *)

module Msg = Rdb_consensus.Message
module Action = Rdb_consensus.Action
module Config = Rdb_consensus.Config
module Hs = Rdb_consensus.Hotstuff_replica
module Client = Rdb_consensus.Hotstuff_client
module Params = Rdb_core.Params
module Cluster = Rdb_core.Cluster
module Metrics = Rdb_core.Metrics
module Nemesis = Rdb_core.Nemesis
module Sim = Rdb_des.Sim

let check = Alcotest.check
let qtest p = QCheck_alcotest.to_alcotest p

let hs_core t id = match t.Testkit.cores.(id) with Testkit.H c -> c | _ -> assert false

(* ---- normal case ----------------------------------------------------------- *)

let test_normal_case () =
  let t = Testkit.make_hotstuff () in
  ignore (Testkit.propose t 0 ~reqs:[ Testkit.req 1 ] ~digest:"d1");
  Testkit.run t;
  Testkit.assert_agreement ~expect:1 t;
  let replies =
    List.filter (fun (_, m) -> match m with Msg.Reply _ -> true | _ -> false) !(t.Testkit.client_inbox)
  in
  check Alcotest.int "one reply per replica" 4 (List.length replies)

let test_multiple_batches_in_order () =
  let t = Testkit.make_hotstuff () in
  for i = 1 to 10 do
    ignore (Testkit.propose t 0 ~reqs:[ Testkit.req i ] ~digest:(Printf.sprintf "d%d" i))
  done;
  Testkit.run t;
  Testkit.assert_agreement ~expect:10 t

let test_interleaved_random_delivery () =
  for seed = 1 to 10 do
    let t = Testkit.make_hotstuff ~rng_seed:(Int64.of_int seed) () in
    for i = 1 to 20 do
      ignore (Testkit.propose t 0 ~reqs:[ Testkit.req i ] ~digest:(Printf.sprintf "d%d" i))
    done;
    Testkit.run t;
    Testkit.assert_agreement ~expect:20 t
  done

let test_duplicate_messages_idempotent () =
  let t = Testkit.make_hotstuff () in
  t.Testkit.duplicate <- true;
  for i = 1 to 5 do
    ignore (Testkit.propose t 0 ~reqs:[ Testkit.req i ] ~digest:(Printf.sprintf "d%d" i))
  done;
  Testkit.run t;
  Testkit.assert_agreement ~expect:5 t

let test_non_leader_cannot_propose () =
  let t = Testkit.make_hotstuff () in
  let batch = Testkit.propose t 1 ~reqs:[ Testkit.req 1 ] ~digest:"d1" in
  Alcotest.(check bool) "backup propose refused" true (batch = None);
  Testkit.run t;
  Testkit.assert_agreement ~expect:0 t

(* The linearity itself: a backup answers a proposal with a Send to the
   leader, never a Broadcast — the all-to-all vote rounds are gone. *)
let test_votes_go_to_leader_only () =
  let t = Testkit.make_hotstuff () in
  let batch = { Msg.view = 0; seq = 1; digest = "d1"; reqs = [ Testkit.req 1 ]; wire_bytes = 1 } in
  let acts =
    Hs.handle_message (hs_core t 1)
      (Msg.Hs_proposal { view = 0; seq = 1; batch; parent = "genesis"; from = 0 })
  in
  List.iter
    (fun a ->
      match a with
      | Action.Send (0, Msg.Hs_vote { phase = 1; digest = "d1"; _ }) -> ()
      | Action.Broadcast _ -> Alcotest.fail "backup broadcast in the vote path"
      | _ -> Alcotest.fail "unexpected action answering a proposal")
    acts;
  check Alcotest.int "exactly one vote" 1 (List.length acts)

let test_backup_crash_tolerated () =
  let t = Testkit.make_hotstuff () in
  Testkit.crash t 3;
  for i = 1 to 5 do
    ignore (Testkit.propose t 0 ~reqs:[ Testkit.req i ] ~digest:(Printf.sprintf "d%d" i))
  done;
  Testkit.run t;
  Testkit.assert_agreement ~expect:5 t

let test_too_many_crashes_stall_no_divergence () =
  let t = Testkit.make_hotstuff () in
  Testkit.crash t 2;
  Testkit.crash t 3;
  ignore (Testkit.propose t 0 ~reqs:[ Testkit.req 1 ] ~digest:"d1");
  Testkit.run t;
  Testkit.assert_agreement ~expect:0 t

(* ---- equivocation: digest-keyed pooling splits the voters ------------------ *)

let test_equivocation_cannot_commit_two_values () =
  let t = Testkit.make_hotstuff () in
  let mk digest = { Msg.view = 0; seq = 1; digest; reqs = [ Testkit.req 1 ]; wire_bytes = 100 } in
  let prop digest = Msg.Hs_proposal { view = 0; seq = 1; batch = mk digest; parent = "genesis"; from = 0 } in
  (* Replicas 1 and 2 get digest A; replica 3 gets digest B.  Votes pool
     by (phase, digest) at the leader, so at most one digest can gather
     2f+1 = 3 (the equivocating leader's own vote included). *)
  Testkit.push t 1 (Hs.handle_message (hs_core t 1) (prop "A"));
  Testkit.push t 2 (Hs.handle_message (hs_core t 2) (prop "A"));
  Testkit.push t 3 (Hs.handle_message (hs_core t 3) (prop "B"));
  Testkit.run t;
  Array.iteri
    (fun id _ ->
      List.iter
        (fun (_, digest) ->
          if String.equal digest "B" then Alcotest.failf "replica %d executed minority digest" id)
        (Testkit.executions t id))
    t.Testkit.cores

let test_conflicting_proposal_counted () =
  let t = Testkit.make_hotstuff () in
  let core = hs_core t 1 in
  let mk digest = { Msg.view = 0; seq = 1; digest; reqs = [ Testkit.req 1 ]; wire_bytes = 1 } in
  let prop digest = Msg.Hs_proposal { view = 0; seq = 1; batch = mk digest; parent = "genesis"; from = 0 } in
  let a1 = Hs.handle_message core (prop "A") in
  Alcotest.(check bool) "first accepted (vote sent)" true
    (List.exists
       (function Action.Send (0, Msg.Hs_vote { digest = "A"; _ }) -> true | _ -> false)
       a1);
  let a2 = Hs.handle_message core (prop "B") in
  Alcotest.(check bool) "no vote for the conflicting digest" false
    (List.exists
       (function Action.Send (_, Msg.Hs_vote { digest = "B"; _ }) -> true | _ -> false)
       a2);
  check Alcotest.int "evidence counted" 1 (Hs.equivocations_detected core)

let test_wrong_view_or_sender_ignored () =
  let t = Testkit.make_hotstuff () in
  let core = hs_core t 1 in
  let batch = { Msg.view = 0; seq = 1; digest = "d"; reqs = [ Testkit.req 1 ]; wire_bytes = 1 } in
  check Alcotest.int "non-leader proposal dropped" 0
    (List.length
       (Hs.handle_message core (Msg.Hs_proposal { view = 0; seq = 1; batch; parent = "genesis"; from = 2 })));
  check Alcotest.int "future view dropped" 0
    (List.length
       (Hs.handle_message core
          (Msg.Hs_proposal
             { view = 3; seq = 1; batch = { batch with Msg.view = 3 }; parent = "genesis"; from = 3 })));
  (* An undersized certificate (fewer than 2f+1 distinct senders) is
     ignored no matter who signed it. *)
  check Alcotest.int "undersized qc dropped" 0
    (List.length
       (Hs.handle_message core
          (Msg.Hs_qc { view = 0; seq = 1; phase = 1; digest = "d"; senders = [ 0; 0; 0 ]; from = 0 })))

(* ---- checkpoints ------------------------------------------------------------ *)

let test_checkpoint_gc () =
  let interval = 5 in
  let t = Testkit.make_hotstuff ~checkpoint_interval:interval () in
  for i = 1 to 12 do
    ignore (Testkit.propose t 0 ~reqs:[ Testkit.req i ] ~digest:(Printf.sprintf "d%d" i))
  done;
  Testkit.run t;
  Testkit.assert_agreement ~expect:12 t;
  Array.iteri
    (fun id c ->
      match c with
      | Testkit.H core ->
        check Alcotest.int (Printf.sprintf "replica %d stable checkpoint" id) 10
          (Hs.last_stable_checkpoint core);
        Alcotest.(check bool) "slots pruned" true (Hs.pending_slots core <= 4)
      | _ -> ())
    t.Testkit.cores

(* ---- pacemaker: leader rotation --------------------------------------------- *)

let test_leader_rotation () =
  let t = Testkit.make_hotstuff () in
  ignore (Testkit.propose t 0 ~reqs:[ Testkit.req 1 ] ~digest:"d1");
  Testkit.run t;
  (* Leader 0 goes silent; the pacemaker (demand-timer escalation at the
     host, suspect_primary here) deposes it. *)
  Testkit.crash t 0;
  Array.iteri
    (fun id c ->
      match c with
      | Testkit.H core when id <> 0 -> Testkit.push t id (Hs.suspect_primary core)
      | _ -> ())
    t.Testkit.cores;
  Testkit.run t;
  Array.iteri
    (fun id c ->
      match c with
      | Testkit.H core when id <> 0 ->
        check Alcotest.int (Printf.sprintf "replica %d moved to view 1" id) 1 (Hs.view core);
        Alcotest.(check bool) "view change finished" false (Hs.in_view_change core)
      | _ -> ())
    t.Testkit.cores;
  Alcotest.(check bool) "replica 1 leads view 1" true (Hs.is_primary (hs_core t 1));
  ignore (Testkit.propose t 1 ~reqs:[ Testkit.req 2 ] ~digest:"d2");
  Testkit.run t;
  Testkit.assert_agreement ~expect:2 t

let test_rotation_preserves_certified_batch () =
  (* A batch certified (or committed) in view 0 must survive the rotation
     exactly once: the phase-1 certificate is the lock the view-change
     messages carry. *)
  let t = Testkit.make_hotstuff () in
  ignore (Testkit.propose t 0 ~reqs:[ Testkit.req 1 ] ~digest:"d-locked");
  Testkit.run t;
  Testkit.crash t 0;
  Array.iteri
    (fun id c ->
      match c with
      | Testkit.H core when id <> 0 -> Testkit.push t id (Hs.suspect_primary core)
      | _ -> ())
    t.Testkit.cores;
  Testkit.run t;
  ignore (Testkit.propose t 1 ~reqs:[ Testkit.req 2 ] ~digest:"d2");
  Testkit.run t;
  Testkit.assert_agreement t;
  let ex = Testkit.executions t 1 in
  check Alcotest.int "locked batch executed exactly once" 1
    (List.length (List.filter (fun (_, d) -> String.equal d "d-locked") ex))

(* ---- client ----------------------------------------------------------------- *)

let test_client_quorum () =
  let cfg = Config.make ~n:4 () in
  let c = Client.create cfg ~id:1000 in
  ignore (Client.submit c ~txn_id:7);
  check Alcotest.int "outstanding" 1 (Client.outstanding c);
  let reply from = Msg.Reply { view = 0; seq = 1; txn_id = 7; client = 1000; from; result = "ok" } in
  check Alcotest.int "first reply insufficient" 0 (List.length (Client.handle_reply c (reply 0)));
  check Alcotest.int "duplicate ignored" 0 (List.length (Client.handle_reply c (reply 0)));
  let acts = Client.handle_reply c (reply 1) in
  Alcotest.(check bool) "f+1 distinct replies complete" true
    (List.exists (function Client.Complete { txn_id = 7; _ } -> true | _ -> false) acts);
  check Alcotest.int "cleared" 0 (Client.outstanding c)

let test_client_follows_rotation () =
  let cfg = Config.make ~n:4 () in
  let c = Client.create cfg ~id:1000 in
  check Alcotest.int "starts at leader 0" 0 (Client.leader c);
  ignore (Client.submit c ~txn_id:7);
  (* A reply committed in view 2 re-targets the client at view 2's leader. *)
  ignore
    (Client.handle_reply c
       (Msg.Reply { view = 2; seq = 1; txn_id = 7; client = 1000; from = 2; result = "ok" }));
  check Alcotest.int "follows the pacemaker" 2 (Client.leader c)

(* ---- properties: protocol-core agreement ------------------------------------ *)

let prop_agreement_random_interleavings =
  QCheck.Test.make ~name:"hotstuff: agreement under random interleavings" ~count:25
    QCheck.(pair (int_range 1 15) (int_bound 10_000))
    (fun (batches, seed) ->
      let t = Testkit.make_hotstuff ~rng_seed:(Int64.of_int (seed + 1)) () in
      for i = 1 to batches do
        ignore (Testkit.propose t 0 ~reqs:[ Testkit.req i ] ~digest:(Printf.sprintf "d%d" i))
      done;
      Testkit.run t;
      Testkit.assert_agreement ~expect:batches t;
      true)

let prop_agreement_with_crash =
  QCheck.Test.make ~name:"hotstuff: agreement with one random crashed backup" ~count:25
    QCheck.(pair (int_range 1 10) (int_range 1 3))
    (fun (batches, victim) ->
      let t = Testkit.make_hotstuff ~rng_seed:99L () in
      Testkit.crash t victim;
      for i = 1 to batches do
        ignore (Testkit.propose t 0 ~reqs:[ Testkit.req i ] ~digest:(Printf.sprintf "d%d" i))
      done;
      Testkit.run t;
      Testkit.assert_agreement ~expect:batches t;
      true)

(* ---- cluster level: byzantine safety, durability, parallel lanes ------------ *)

(* Same shape as test_byzantine's base: tiny, liveness loop on. *)
let faulty =
  Params.default
  |> Params.with_protocol Params.Hotstuff
  |> Params.with_n 4
  |> Params.with_clients 400
  |> Params.map_topology (fun t -> { t with Params.Topology.client_machines = 1 })
  |> Params.with_batch_size 20
  |> Params.map_consensus (fun c ->
         { c with Params.Consensus.max_inflight_batches = 16; checkpoint_txns = 400 })
  |> Params.with_client_timeout (Sim.ms 40.0)
  |> Params.with_view_timeout (Sim.ms 30.0)
  |> Params.with_windows ~warmup:(Sim.seconds 0.2) ~measure:(Sim.seconds 0.8)

(* Safety under 200 random byzantine schedules: one attacker window (the
   f = (n-1)/3 bound for n = 4) mixed with benign faults — the property
   test_byzantine establishes for PBFT/Zyzzyva/multi, on the linear core. *)
let prop_safety_under_byzantine_schedules =
  QCheck.Test.make ~name:"hotstuff: safety under random byzantine schedules" ~count:200
    (QCheck.pair Testkit.arb_byzantine_schedule (QCheck.int_bound 10_000))
    (fun (nemesis, seed) ->
      let p =
        faulty
        |> Params.with_clients 150
        |> Params.with_batch_size 10
        |> Params.with_nemesis nemesis
        |> Params.with_seed (Int64.of_int (seed + 11))
        |> Params.with_client_timeout (Sim.ms 30.0)
        |> Params.with_view_timeout (Sim.ms 25.0)
      in
      let c = Cluster.create p in
      Cluster.start c;
      Sim.run ~until:(Sim.ms 700.0) (Cluster.sim c);
      match Cluster.check_safety c with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let temp_counter = ref 0

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rdb_hotstuff_test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  let rec rm_rf p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Two cluster lifetimes over one data directory: the checkpoint semantics
   match PBFT's, so the durable crash-replay resume works unmodified — the
   second lifetime reopens the stores and orders past the persisted tip. *)
let test_durable_close_reopen () =
  with_temp_dir (fun dir ->
      let p =
        faulty |> Params.with_durable true |> Params.with_data_dir (Some dir)
        |> Params.with_windows ~warmup:faulty.Params.warmup ~measure:(Sim.seconds 0.5)
      in
      let m1 = Cluster.run p in
      Alcotest.(check bool) "first lifetime appended blocks" true (m1.Metrics.ledger_blocks > 0);
      let c2 = Cluster.create (Params.with_seed 0x524553554D45L p) in
      let resumed_at = Cluster.ledger_height c2 0 in
      Alcotest.(check bool) "second lifetime resumes from persisted tip" true (resumed_at > 0);
      let _m2 = Cluster.measure c2 in
      Alcotest.(check bool) "chain advanced past the resume point" true
        (Cluster.ledger_height c2 0 > resumed_at);
      match Cluster.check_safety c2 with Ok () -> () | Error e -> Alcotest.fail e)

(* E = 4 conflict-aware execution lanes under the linear core: commits land
   through Hs_qc certificates instead of Commit quorums, the lane scheduler
   downstream must not care. *)
let test_parallel_lanes_safe () =
  let p = Params.with_execute_threads 4 faulty in
  let c = Cluster.create p in
  let m = Cluster.measure c in
  Alcotest.(check bool) "completes with E=4" true (m.Metrics.completed_txns > 0);
  match Cluster.check_safety c with Ok () -> () | Error e -> Alcotest.failf "safety: %s" e

let () =
  Alcotest.run "hotstuff"
    [
      ( "normal case",
        [
          Alcotest.test_case "single batch" `Quick test_normal_case;
          Alcotest.test_case "ten batches in order" `Quick test_multiple_batches_in_order;
          Alcotest.test_case "random delivery order" `Quick test_interleaved_random_delivery;
          Alcotest.test_case "duplicates idempotent" `Quick test_duplicate_messages_idempotent;
          Alcotest.test_case "non-leader cannot propose" `Quick test_non_leader_cannot_propose;
          Alcotest.test_case "votes go to the leader only" `Quick test_votes_go_to_leader_only;
        ] );
      ( "faults",
        [
          Alcotest.test_case "backup crash tolerated" `Quick test_backup_crash_tolerated;
          Alcotest.test_case "beyond f crashes: stall, no divergence" `Quick
            test_too_many_crashes_stall_no_divergence;
          Alcotest.test_case "equivocation cannot commit two values" `Quick
            test_equivocation_cannot_commit_two_values;
          Alcotest.test_case "conflicting proposal counted" `Quick test_conflicting_proposal_counted;
          Alcotest.test_case "wrong view/sender/undersized qc ignored" `Quick
            test_wrong_view_or_sender_ignored;
        ] );
      ("checkpoints", [ Alcotest.test_case "garbage collection" `Quick test_checkpoint_gc ]);
      ( "pacemaker",
        [
          Alcotest.test_case "leader rotation" `Quick test_leader_rotation;
          Alcotest.test_case "certified batch survives rotation" `Quick
            test_rotation_preserves_certified_batch;
        ] );
      ( "client",
        [
          Alcotest.test_case "f+1 quorum" `Quick test_client_quorum;
          Alcotest.test_case "client follows rotation" `Quick test_client_follows_rotation;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "durable close/reopen resume" `Quick test_durable_close_reopen;
          Alcotest.test_case "E=4 lanes safe" `Quick test_parallel_lanes_safe;
        ] );
      ( "properties",
        [
          qtest prop_agreement_random_interleavings;
          qtest prop_agreement_with_crash;
          qtest prop_safety_under_byzantine_schedules;
        ] );
    ]
