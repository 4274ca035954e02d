(* Tests for the embeddable in-process runtime: real signatures and MACs on
   the critical path, batching, agreement across replicas, crash tolerance,
   view changes, checkpointing, and rejection of forged traffic. *)

module Rt = Rdb_core.Local_runtime
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger

let check = Alcotest.check

let kv_apply ~replica:_ store ~client:_ ~payload =
  (match String.split_on_char '=' payload with
  | [ k; v ] -> Mem_store.put store k v
  | _ -> Mem_store.put store payload "1");
  "ok"

let mk ?(batch_size = 4) () = Rt.create ~config:{ Rt.default_config with Rt.batch_size } ~apply:kv_apply ()

let test_basic_agreement () =
  let rt = mk () in
  let ids = List.init 8 (fun i -> Rt.submit rt ~client:(100 + i) ~payload:(Printf.sprintf "k%d=v%d" i i)) in
  Rt.run rt;
  List.iter (fun id -> Alcotest.(check bool) "completed" true (List.mem_assoc id (Rt.completed rt))) ids;
  for r = 0 to 3 do
    for i = 0 to 7 do
      check
        Alcotest.(option string)
        (Printf.sprintf "replica %d key %d" r i)
        (Some (Printf.sprintf "v%d" i))
        (Mem_store.get (Rt.store rt r) (Printf.sprintf "k%d" i))
    done
  done;
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e)

let test_partial_batch_needs_flush () =
  let rt = mk () in
  let id = Rt.submit rt ~client:1 ~payload:"solo=1" in
  Rt.run rt;
  Alcotest.(check bool) "partial batch pending" false (List.mem_assoc id (Rt.completed rt));
  Rt.flush rt;
  Rt.run rt;
  Alcotest.(check bool) "flushed and completed" true (List.mem_assoc id (Rt.completed rt))

let test_ledgers_identical () =
  let rt = mk () in
  for i = 0 to 15 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "x%d=%d" i i))
  done;
  Rt.run rt;
  let d0 = Ledger.cumulative_digest (Rt.ledger rt 0) in
  for r = 1 to 3 do
    check Alcotest.string
      (Printf.sprintf "ledger %d digest" r)
      (Rdb_crypto.Sha256.hex d0)
      (Rdb_crypto.Sha256.hex (Ledger.cumulative_digest (Rt.ledger rt r)))
  done;
  check Alcotest.int "blocks = batches + genesis" 5 (Ledger.length (Rt.ledger rt 0))

let test_backup_crash () =
  let rt = mk () in
  Rt.crash rt 3;
  for i = 0 to 7 do
    ignore (Rt.submit rt ~client:2 ~payload:(Printf.sprintf "c%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "all executed on live replicas" 2 (Rt.last_executed rt 0);
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e);
  check Alcotest.int "crashed replica executed nothing" 0 (Rt.last_executed rt 3)

let test_view_change_after_primary_crash () =
  let rt = mk ~batch_size:2 () in
  ignore (Rt.submit rt ~client:1 ~payload:"a=1");
  ignore (Rt.submit rt ~client:2 ~payload:"b=2");
  Rt.run rt;
  Rt.crash rt 0;
  Rt.force_view_change rt;
  check Alcotest.int "view advanced" 1 (Rt.view rt);
  check Alcotest.int "primary rotated" 1 (Rt.primary rt);
  ignore (Rt.submit rt ~client:3 ~payload:"c=3");
  ignore (Rt.submit rt ~client:4 ~payload:"d=4");
  Rt.run rt;
  List.iter
    (fun r ->
      check Alcotest.(option string) "post-view-change write" (Some "3")
        (Mem_store.get (Rt.store rt r) "c"))
    [ 1; 2; 3 ];
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e)

let test_forged_messages_rejected () =
  let rt = mk () in
  Rt.inject_forged_message rt ~dst:2;
  Rt.inject_forged_message rt ~dst:1;
  Rt.run rt;
  check Alcotest.int "both rejected by MAC check" 2 (Rt.auth_failures rt);
  ignore (Rt.submit rt ~client:1 ~payload:"still=works");
  Rt.flush rt;
  Rt.run rt;
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e);
  check Alcotest.(option string) "cluster unharmed" (Some "works")
    (Mem_store.get (Rt.store rt 0) "still")

let test_checkpoint_prunes () =
  let rt =
    Rt.create
      ~config:{ Rt.default_config with Rt.batch_size = 1; checkpoint_interval = 5 }
      ~apply:kv_apply ()
  in
  for i = 0 to 24 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "k%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "executed 25 batches" 25 (Rt.last_executed rt 0);
  (* Retained chain was pruned at the stable checkpoint but total length and
     the cumulative digest survive. *)
  check Alcotest.int "length counts all blocks" 26 (Ledger.length (Rt.ledger rt 0));
  Alcotest.(check bool) "old blocks pruned" true (Ledger.find (Rt.ledger rt 0) 3 = None);
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e)

let test_interleaved_clients_free_ids () =
  (* Three clients interleave their submissions.  Each numbers its requests
     from 0 on the wire, so every host's per-client watermark absorbs all
     of them and no executed id is kept individually. *)
  let rt = Rt.create ~config:{ Rt.default_config with Rt.batch_size = 4 } ~apply:kv_apply () in
  for i = 0 to 11 do
    ignore (Rt.submit rt ~client:(1 + (i mod 3)) ~payload:(Printf.sprintf "k%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "all completed" 12 (List.length (Rt.completed rt));
  check Alcotest.(list int) "runtime-wide txn ids" (List.init 12 Fun.id)
    (List.sort compare (List.map fst (Rt.completed rt)));
  for id = 0 to 3 do
    check Alcotest.int (Printf.sprintf "replica %d keeps no id above a watermark" id) 0
      (Rt.ids_above_watermark rt id)
  done

let test_recovery_with_state_transfer () =
  (* A replica crashes, misses work, recovers, and catches up through the
     checkpoint + state-transfer path; afterwards the whole cluster agrees
     again — including the recovered replica. *)
  let rt =
    Rt.create
      ~config:{ Rt.default_config with Rt.batch_size = 1; checkpoint_interval = 4 }
      ~apply:kv_apply ()
  in
  for i = 0 to 3 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "pre%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "replica 3 in sync before crash" 4 (Rt.last_executed rt 3);
  Rt.crash rt 3;
  for i = 0 to 5 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "missed%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "replica 3 missed work" 4 (Rt.last_executed rt 3);
  Rt.recover rt 3;
  (* Enough new work to cross the next checkpoint boundary. *)
  for i = 0 to 7 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "post%d=%d" i i))
  done;
  Rt.run rt;
  Alcotest.(check bool) "replica 3 caught up" true (Rt.applied rt 3 >= 12);
  check Alcotest.(option string) "missed write transferred" (Some "2")
    (Rdb_storage.Mem_store.get (Rt.store rt 3) "missed2");
  check Alcotest.(option string) "post-recovery write executed" (Some "7")
    (Rdb_storage.Mem_store.get (Rt.store rt 3) "post7");
  match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e

let test_determinism_across_runs () =
  let run_once () =
    let rt = mk () in
    for i = 0 to 11 do
      ignore (Rt.submit rt ~client:(i mod 3) ~payload:(Printf.sprintf "k%d=%d" i i))
    done;
    Rt.run rt;
    Rdb_crypto.Sha256.hex (Mem_store.digest (Rt.store rt 0))
  in
  check Alcotest.string "identical state digests" (run_once ()) (run_once ())

let test_config_validation () =
  Alcotest.check_raises "too few replicas"
    (Invalid_argument "Local_runtime.create: need at least 4 replicas") (fun () ->
      ignore (Rt.create ~config:{ Rt.default_config with Rt.n = 3 } ~apply:kv_apply ()))

(* ---- Replica_host under an in-memory transport --------------------------- *)

module Host = Rdb_core.Replica_host
module Core = Rdb_consensus.Core

(* Four hosts joined by one FIFO queue, wired as resdb_node wires them over
   TCP, with replica 1 also handed client 2's txn 1 directly before the
   Pre-prepare that orders it arrives.  Two clients' txn ids overlap;
   duplicates are refused; a backup holds a request without queueing it; a
   bad tag is dropped; every request runs once on every replica, and no
   body or queued key outlives its execution. *)
let test_host_dedupe () =
  let config = Rdb_consensus.Config.make ~n:4 () in
  let mac = Rdb_crypto.Cmac.of_secret "host-test-secret" in
  let queue = Queue.create () and runs = Hashtbl.create 16 in
  let hosts =
    Array.init 4 (fun id ->
        Host.create ~config ~id ~core:(Core.pbft config ~id) ~ledger:(Ledger.create ~primary_id:0)
          ~mac ~batch_size:2 ~exec_threads:1 ~footprint:None
          ~apply:(fun store ~client ~payload ->
            let k = (id, client, payload) in
            Hashtbl.replace runs k (1 + Option.value ~default:0 (Hashtbl.find_opt runs k));
            Mem_store.put store (Printf.sprintf "%d/%s" client payload) "1";
            "ok")
          ~verify:(fun _ ~signature -> signature = "signed")
          ~send:(fun ~dst msg ~tag bodies -> Queue.push (dst, msg, tag, bodies) queue)
          ~reply:(fun ~client:_ _ -> ()))
  in
  let drain () =
    while not (Queue.is_empty queue) do
      let dst, msg, tag, bodies = Queue.pop queue in
      Alcotest.(check bool) "forged tag refused" true
        (Host.authenticate hosts.(dst) msg ~tag:(String.make 16 '\x00') = None);
      match Host.authenticate hosts.(dst) msg ~tag with
      | Some msg -> Host.deliver hosts.(dst) msg bodies
      | None -> Alcotest.fail "genuine tag refused"
    done
  in
  let submit ?(signature = "signed") h client txn_id expect =
    let r = { Host.client; txn_id; payload = Printf.sprintf "t%d" txn_id } in
    Alcotest.(check bool) (Printf.sprintf "admit %d/%d at %d" client txn_id h) expect
      (Host.submit hosts.(h) r ~signature)
  in
  submit ~signature:"forged" 0 1 0 false;
  submit 1 2 1 true;
  check Alcotest.int "a backup queues nothing" 0 (Host.queued hosts.(1));
  List.iter (fun (c, txn) -> submit 0 c txn true) [ (1, 0); (2, 0); (1, 1) ];
  submit 0 1 1 false;
  submit 0 2 1 true;
  drain ();
  submit 0 1 0 false;
  Array.iter
    (fun h ->
      let id = Host.id h in
      check Alcotest.int "two batches" 2 (Core.last_executed (Host.core h));
      List.iter
        (fun (c, p) ->
          check Alcotest.(option int) (Printf.sprintf "replica %d ran %d/%s once" id c p) (Some 1)
            (Hashtbl.find_opt runs (id, c, p)))
        [ (1, "t0"); (2, "t0"); (1, "t1"); (2, "t1") ];
      check Alcotest.int "both clients' writes" 4 (Mem_store.size (Host.store h));
      check Alcotest.int (Printf.sprintf "replica %d holds no bodies" id) 0 (Host.held h);
      check Alcotest.int (Printf.sprintf "replica %d queues nothing" id) 0 (Host.queued h))
    hosts

(* A full batch is proposed, then every replica suspects the live primary
   before its Pre-prepares are delivered: they arrive mid-view-change and
   are dropped, leaving their bodies at the backups, and the new view
   re-proposes nothing.  Handed the requests again, the new primary must
   still batch them. *)
let test_view_change_before_delivery () =
  let rt = mk ~batch_size:10 () in
  let ids = List.init 10 (fun i -> Rt.submit rt ~client:(1 + (i mod 2)) ~payload:(Printf.sprintf "k%d=%d" i i)) in
  Rt.force_view_change rt;
  Rt.run rt;
  check Alcotest.int "primary rotated" 1 (Rt.primary rt);
  List.iter
    (fun id -> Alcotest.(check bool) (Printf.sprintf "txn %d completed" id) true (List.mem_assoc id (Rt.completed rt)))
    ids;
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e);
  check Alcotest.(option string) "write applied" (Some "9") (Mem_store.get (Rt.store rt 3) "k9")

let () =
  Alcotest.run "local_runtime"
    [
      ( "runtime",
        [
          Alcotest.test_case "agreement + execution" `Quick test_basic_agreement;
          Alcotest.test_case "partial batch flush" `Quick test_partial_batch_needs_flush;
          Alcotest.test_case "identical ledgers" `Quick test_ledgers_identical;
          Alcotest.test_case "backup crash tolerated" `Quick test_backup_crash;
          Alcotest.test_case "view change" `Quick test_view_change_after_primary_crash;
          Alcotest.test_case "forged messages rejected" `Quick test_forged_messages_rejected;
          Alcotest.test_case "checkpoint pruning" `Quick test_checkpoint_prunes;
          Alcotest.test_case "interleaved clients free ids" `Quick test_interleaved_clients_free_ids;
          Alcotest.test_case "recovery + state transfer" `Quick test_recovery_with_state_transfer;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "replica host",
        [
          Alcotest.test_case "dedupe by (client, txn_id)" `Quick test_host_dedupe;
          Alcotest.test_case "view change before delivery" `Quick test_view_change_before_delivery;
        ] );
    ]
