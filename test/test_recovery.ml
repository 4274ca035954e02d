(* Recovery tests: checkpoint-driven state transfer in the DES cluster
   (mid-run crash + rejoin, in-memory and durable), durable crash-replay
   resume across two cluster lifetimes over the same data directory, and a
   qcheck equivalence property on the real-cores local runtime — under
   random crash/recover schedules, a durable cluster ends bit-equal to a
   never-faulted reference, and its chains survive a full restart. *)

module Params = Rdb_core.Params
module Cluster = Rdb_core.Cluster
module Metrics = Rdb_core.Metrics
module Nemesis = Rdb_core.Nemesis
module Rt = Rdb_core.Local_runtime
module Ledger = Rdb_chain.Ledger
module Mem_store = Rdb_storage.Mem_store
module Sim = Rdb_des.Sim

let check = Alcotest.check
let qtest p = QCheck_alcotest.to_alcotest p

let temp_counter = ref 0

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rdb_recovery_test-%d-%d" (Unix.getpid ()) !temp_counter)
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

(* ---- DES cluster: crash + recover -> state transfer ----------------------- *)

let faulted =
  Params.default
  |> Params.with_clients 2_000
  |> Params.with_client_timeout (Sim.ms 200.0)
  |> Params.with_view_timeout (Sim.ms 100.0)
  |> Params.with_windows ~warmup:(Sim.seconds 0.2) ~measure:(Sim.seconds 0.8)

let victim = faulted.Params.n - 1 (* a backup: replica 0 leads view 0 *)

let crash_recover p =
  Params.with_nemesis
    [
      Nemesis.at_ms 300.0 (Nemesis.Crash victim);
      Nemesis.at_ms 600.0 (Nemesis.Recover victim);
    ]
    p

let assert_caught_up c (m : Metrics.t) =
  let f = m.Metrics.faults in
  Alcotest.(check bool) "state transfer installed" true (f.Metrics.state_transfers >= 1);
  Alcotest.(check bool) "catch-up time recorded" true (f.Metrics.time_to_catch_up_s <> None);
  Alcotest.(check bool) "victim reached current height" true (Cluster.ledger_gap c victim <= 1);
  Alcotest.(check bool) "cluster made progress" true (Cluster.ledger_height c victim > 0);
  match Cluster.check_safety c with Ok () -> () | Error e -> Alcotest.fail e

let test_state_transfer_catches_up () =
  let c = Cluster.create (crash_recover faulted) in
  assert_caught_up c (Cluster.measure c)

let test_state_transfer_durable () =
  let c = Cluster.create (crash_recover (Params.with_durable true faulted)) in
  assert_caught_up c (Cluster.measure c)

let test_healthy_run_no_transfers () =
  let m = Cluster.run faulted in
  check Alcotest.int "no transfers in a healthy run" 0 m.Metrics.faults.Metrics.state_transfers

(* Two cluster lifetimes over one data directory: the second reopens the
   durable stores (crash replay truncates each replica's unagreed tail
   back to the last stable flush, so all four resume at the same
   quorum-agreed point) and resumes ordering past it. *)
let test_durable_crash_replay_resume () =
  with_temp_dir (fun dir ->
      let p =
        faulted |> Params.with_durable true |> Params.with_data_dir (Some dir)
        |> Params.with_windows ~warmup:faulted.Params.warmup ~measure:(Sim.seconds 0.5)
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

(* ---- qcheck: durable-restore equivalence on the real-cores runtime -------- *)

let apply ~replica:_ store ~client ~payload =
  Mem_store.put store (Printf.sprintf "%d:%s" client payload) "v";
  "ok"

(* The ledger records the digest the stable-checkpoint certificate agreed
   on.  Six single-request batches are proposed before anything is
   delivered, so every replica has executed past seq 4 when the checkpoint
   there stabilises: hashing the live store then would persist the digest
   of a later state. *)
let test_checkpoint_records_certified_digest () =
  with_temp_dir (fun dir ->
      let cfg = { Rt.default_config with Rt.batch_size = 1; checkpoint_interval = 4 } in
      let cfg = { cfg with Rt.durable_dir = Some dir } in
      let rt = Rt.create ~config:cfg ~apply () in
      let payloads = List.init 6 (Printf.sprintf "p%d") in
      List.iter (fun payload -> ignore (Rt.submit rt ~client:1 ~payload)) payloads;
      Rt.run rt;
      check Alcotest.int "all six batches executed" 6 (Rt.last_executed rt 0);
      Rt.close rt;
      let at_4 = Mem_store.create () in
      List.iteri
        (fun i payload -> if i < 4 then ignore (apply ~replica:0 at_4 ~client:1 ~payload))
        payloads;
      for r = 0 to cfg.Rt.n - 1 do
        let module Bs = Rdb_chain.Block_store in
        let bs =
          Bs.open_dir
            ~dir:(Filename.concat dir (Printf.sprintf "replica-%d" r))
            ~genesis:(Rdb_chain.Block.genesis ~primary_id:0)
        in
        check Alcotest.int "stable checkpoint persisted" 4 (Bs.last_stable bs);
        check Alcotest.string (Printf.sprintf "replica %d persisted the certified digest" r)
          (Rdb_crypto.Sha256.hex (Mem_store.digest at_4))
          (Rdb_crypto.Sha256.hex (Bs.state_digest bs));
        Bs.close bs
      done)

(* A schedule is a list of small ints interpreted as a fault/submission
   script: most steps submit one request to BOTH runtimes, the rest crash a
   backup (at most one down at a time, f = 1), recover it, or just drain.
   Each recover is followed by enough traffic to cross a checkpoint
   boundary before the next fault: state transfer serves from *stable*
   checkpoints, and stabilising one takes 2f+1 executing replicas — with
   n = 4 a second fault while the first laggard is still behind leaves
   only two, and no retransmission path exists below the checkpoint
   horizon (the classic PBFT water-mark window, which this runtime does
   not model). *)
let arb_script =
  QCheck.(list_of_size (QCheck.Gen.int_range 15 50) (int_bound 9))

let prop_durable_matches_reference =
  QCheck.Test.make ~name:"recovery: durable crash/recover cluster matches reference" ~count:200
    arb_script
    (fun script ->
      with_temp_dir (fun dir ->
          let cfg = { Rt.default_config with Rt.batch_size = 1; checkpoint_interval = 3 } in
          let reference = Rt.create ~config:cfg ~apply () in
          let subject = Rt.create ~config:{ cfg with Rt.durable_dir = Some dir } ~apply () in
          let n = ref 0 in
          let crashed = ref None in
          let submit_both () =
            incr n;
            let payload = Printf.sprintf "p%d" !n in
            ignore (Rt.submit reference ~client:1 ~payload);
            ignore (Rt.submit subject ~client:1 ~payload);
            Rt.run reference;
            Rt.run subject
          in
          (* Traffic past a checkpoint boundary: stabilises a checkpoint the
             rejoiner's transfer can be served from, then lets it re-converge. *)
          let heal_window () =
            for _ = 1 to (2 * cfg.Rt.checkpoint_interval) + 1 do
              submit_both ()
            done
          in
          List.iter
            (fun c ->
              if c <= 5 then submit_both ()
              else if c = 6 then (
                match !crashed with
                | None ->
                  let r = 1 + (!n mod (cfg.Rt.n - 1)) in
                  Rt.crash subject r;
                  crashed := Some r
                | Some _ -> ())
              else if c = 7 then (
                match !crashed with
                | Some r ->
                  Rt.recover subject r;
                  Rt.run subject;
                  crashed := None;
                  heal_window ()
                | None -> ())
              else begin
                Rt.run reference;
                Rt.run subject
              end)
            script;
          (match !crashed with
          | Some r ->
            Rt.recover subject r;
            crashed := None
          | None -> ());
          heal_window ();
          Rt.run reference;
          Rt.run subject;
          (* Equivalence with the never-faulted reference. *)
          (match Rt.verify subject with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "subject diverged internally: %s" e);
          let ref_state = Mem_store.digest (Rt.store reference 0) in
          let ref_chain = Ledger.cumulative_digest (Rt.ledger reference 0) in
          for i = 0 to cfg.Rt.n - 1 do
            if not (String.equal (Mem_store.digest (Rt.store subject i)) ref_state) then
              QCheck.Test.fail_reportf "replica %d state differs from reference" i;
            if not (String.equal (Ledger.cumulative_digest (Rt.ledger subject i)) ref_chain) then
              QCheck.Test.fail_reportf "replica %d chain differs from reference" i;
            if Rt.applied subject i <> Rt.applied reference 0 then
              QCheck.Test.fail_reportf "replica %d applied %d, reference %d" i
                (Rt.applied subject i) (Rt.applied reference 0)
          done;
          (* Durable restore: flush, shut the subject down, reopen the same
             directory — every chain must come back bit-equal. *)
          for i = 0 to cfg.Rt.n - 1 do
            let l = Rt.ledger subject i in
            Ledger.checkpoint l ~seq:(Ledger.next_seq l - 1) ~state_digest:"final"
          done;
          Rt.close subject;
          let restored = Rt.create ~config:{ cfg with Rt.durable_dir = Some dir } ~apply () in
          for i = 0 to cfg.Rt.n - 1 do
            if not (String.equal (Ledger.cumulative_digest (Rt.ledger restored i)) ref_chain)
            then QCheck.Test.fail_reportf "replica %d chain changed across restart" i
          done;
          Rt.close restored;
          true))

let () =
  Alcotest.run "recovery"
    [
      ( "state-transfer",
        [
          Alcotest.test_case "crash + recover catches up" `Quick test_state_transfer_catches_up;
          Alcotest.test_case "crash + recover catches up (durable)" `Quick
            test_state_transfer_durable;
          Alcotest.test_case "healthy run needs none" `Quick test_healthy_run_no_transfers;
          Alcotest.test_case "durable crash-replay resume" `Quick
            test_durable_crash_replay_resume;
          Alcotest.test_case "checkpoint records the certified digest" `Quick
            test_checkpoint_records_certified_digest;
        ] );
      ("equivalence", [ qtest prop_durable_matches_reference ]);
    ]
