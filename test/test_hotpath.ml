(* Hot-path performance pass tests: the bounded verify-sharing memo table,
   a host's pending queue, the buffer-pooled wire codec, the bench
   regression gate, and — the core claim — that caching changes *cost*,
   never *behavior*: with all
   cacheable crypto priced at zero, cached and uncached clusters produce
   identical metrics over random fault schedules, and with real prices the
   cached cluster is measurably faster while still safe. *)

module Vcache = Rdb_crypto.Verify_cache
module Cost = Rdb_crypto.Cost_model
module Codec = Rdb_consensus.Codec
module Msg = Rdb_consensus.Message
module Gate = Rdb_gate.Gate
module Rt = Rdb_core.Local_runtime
module Stats = Rdb_des.Stats
module Sim = Rdb_des.Sim
open Rdb_core

let check = Alcotest.check
let qtest p = QCheck_alcotest.to_alcotest p

(* ---- the memo table ------------------------------------------------------- *)

let test_cache_counts () =
  let c = Vcache.create ~capacity:4 in
  check Alcotest.bool "cold miss" false (Vcache.mem c "a");
  Vcache.add c "a" 1;
  check Alcotest.(option int) "find after add" (Some 1) (Vcache.find c "a");
  check Alcotest.bool "warm hit" true (Vcache.mem c "a");
  check Alcotest.int "hits" 2 (Vcache.hits c);
  check Alcotest.int "misses" 1 (Vcache.misses c);
  check (Alcotest.float 1e-9) "hit rate" (2.0 /. 3.0) (Vcache.hit_rate c);
  Vcache.clear c;
  check Alcotest.int "cleared" 0 (Vcache.size c);
  check Alcotest.(option int) "entry gone" None (Vcache.find c "a")

let test_cache_fifo_eviction () =
  let c = Vcache.create ~capacity:3 in
  List.iteri (fun i k -> Vcache.add c k i) [ "a"; "b"; "c" ];
  check Alcotest.int "at capacity" 3 (Vcache.size c);
  Vcache.add c "d" 3;
  check Alcotest.int "still bounded" 3 (Vcache.size c);
  check Alcotest.(option int) "oldest evicted" None (Vcache.find c "a");
  check Alcotest.(option int) "second oldest kept" (Some 1) (Vcache.find c "b");
  check Alcotest.(option int) "newest kept" (Some 3) (Vcache.find c "d");
  (* Re-adding an existing key is a no-op: no overwrite, no re-ordering. *)
  Vcache.add c "b" 99;
  check Alcotest.(option int) "no overwrite" (Some 1) (Vcache.find c "b");
  (* Arbitrary churn never grows the table past its bound. *)
  for i = 0 to 999 do
    Vcache.add c (string_of_int i) i
  done;
  check Alcotest.int "bounded after churn" 3 (Vcache.size c)

let test_cache_rejects_bad_capacity () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Verify_cache.create: capacity must be >= 1") (fun () ->
      ignore (Vcache.create ~capacity:0))

(* Model check against a list-based FIFO reference: random mem / add /
   check / find / clear sequences over capacities up to 8 and at most 12
   distinct keys, so eviction, backward-shift deletion, table and ring
   growth, and re-adding a present key all occur.  Every result, the size
   and both counters must match the model after every operation. *)
type cache_op = Mem of int | Add of int * int | Check of int * int | Find of int | Clear

let prop_cache_matches_fifo_model =
  let op =
    QCheck.Gen.(
      let key = int_bound 11 and v = int_bound 99 in
      frequency
        [
          (3, map (fun k -> Mem k) key);
          (3, map2 (fun k v -> Add (k, v)) key v);
          (4, map2 (fun k v -> Check (k, v)) key v);
          (2, map (fun k -> Find k) key);
          (1, return Clear);
        ])
  in
  let print = function
    | Mem k -> Printf.sprintf "mem %d" k
    | Add (k, v) -> Printf.sprintf "add %d %d" k v
    | Check (k, v) -> Printf.sprintf "check %d %d" k v
    | Find k -> Printf.sprintf "find %d" k
    | Clear -> "clear"
  in
  QCheck.Test.make ~name:"matches a FIFO list model" ~count:500
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(0 -- 80) (make ~print op)))
    (fun (capacity, ops) ->
      let c = Vcache.create ~capacity in
      (* Oldest first; counters persist across [clear], as in the cache. *)
      let entries = ref [] and hits = ref 0 and misses = ref 0 in
      let count found = if found then incr hits else incr misses in
      let insert k v =
        if not (List.mem_assoc k !entries) then begin
          let kept = if List.length !entries = capacity then List.tl !entries else !entries in
          entries := kept @ [ (k, v) ]
        end
      in
      let key k = "key|" ^ string_of_int k in
      List.for_all
        (fun o ->
          let agrees =
            match o with
            | Mem k ->
              let found = List.mem_assoc k !entries in
              count found;
              Vcache.mem c (key k) = found
            | Add (k, v) ->
              insert k v;
              Vcache.add c (key k) v;
              true
            | Check (k, v) ->
              let found = List.mem_assoc k !entries in
              count found;
              insert k v;
              Vcache.check c (key k) v = found
            | Find k ->
              let r = List.assoc_opt k !entries in
              count (r <> None);
              Vcache.find c (key k) = r
            | Clear ->
              entries := [];
              Vcache.clear c;
              true
          in
          agrees
          && Vcache.size c = List.length !entries
          && Vcache.hits c = !hits
          && Vcache.misses c = !misses)
        ops)

(* ---- a host's pending queue ------------------------------------------------ *)

(* The reference is the rebuild [Cluster] ran on every batching attempt
   before [Pending] kept its dead-entry count: a plain FIFO plus executed
   and in-flight sets, compacted by a full pass that keeps the first copy
   of each id neither executed nor in flight. *)
type pending_model = {
  q : int Queue.t;
  executed : (int, unit) Hashtbl.t;
  inflight : (int, unit) Hashtbl.t;
}

let model_compact m =
  let n = Queue.length m.q in
  if n > 0 then begin
    let seen = Hashtbl.create (2 * n) in
    for _ = 1 to n do
      let id = Queue.pop m.q in
      if
        (not (Hashtbl.mem m.executed id))
        && (not (Hashtbl.mem m.inflight id))
        && not (Hashtbl.mem seen id)
      then begin
        Hashtbl.add seen id ();
        Queue.push id m.q
      end
    done
  end

type pending_op =
  | Push of int
  | Take of int
  | Executed of int
  | Inflight of int
  | Clear_inflight of int
  | Compact

(* Without tracking the module is a bare FIFO: only push and take act. *)
let apply_pending ~track (p, m) = function
  | Push id ->
    Pending.push p id;
    Queue.push id m.q;
    true
  | Take k ->
    let k = min k (Queue.length m.q) in
    let expect = Array.init k (fun _ -> Queue.pop m.q) in
    Pending.take p k = expect
  | Executed id ->
    Pending.mark_executed p id;
    if track then Hashtbl.replace m.executed id ();
    true
  | Inflight id ->
    Pending.mark_inflight p id;
    if track then Hashtbl.replace m.inflight id ();
    true
  | Clear_inflight id ->
    Pending.clear_inflight p id;
    Hashtbl.remove m.inflight id;
    true
  | Compact ->
    Pending.compact p;
    if track then model_compact m;
    true

let pending_agrees (p, m) =
  Pending.to_list p = List.of_seq (Queue.to_seq m.q)
  && Pending.is_empty p = Queue.is_empty m.q
  && Pending.inflight p = Hashtbl.length m.inflight

(* Model check over random operation sequences with ids mostly from 0..7,
   so duplicates, re-pushes of executed and in-flight ids, and marks of
   queued ids are frequent; rarer ids up to 300 grow the per-id tables.
   Every prefix is replayed on a fresh queue and model: the raw queue,
   [is_empty] and the in-flight count must agree after it, and again after
   compacting both. *)
let prop_pending_matches_rebuild =
  let op =
    QCheck.Gen.(
      let id = frequency [ (9, int_bound 7); (1, int_bound 300) ] in
      frequency
        [
          (6, map (fun i -> Push i) id);
          (2, map (fun k -> Take k) (int_bound 4));
          (2, map (fun i -> Executed i) id);
          (2, map (fun i -> Inflight i) id);
          (2, map (fun i -> Clear_inflight i) id);
          (2, return Compact);
        ])
  in
  let print = function
    | Push i -> Printf.sprintf "push %d" i
    | Take k -> Printf.sprintf "take %d" k
    | Executed i -> Printf.sprintf "executed %d" i
    | Inflight i -> Printf.sprintf "inflight %d" i
    | Clear_inflight i -> Printf.sprintf "clear_inflight %d" i
    | Compact -> "compact"
  in
  QCheck.Test.make ~name:"matches the O(n) rebuild" ~count:300
    QCheck.(
      pair (make ~print:string_of_bool Gen.(frequency [ (4, return true); (1, return false) ]))
        (list_of_size Gen.(0 -- 60) (make ~print op)))
    (fun (track, ops) ->
      let fresh () =
        ( Pending.create ~track,
          { q = Queue.create (); executed = Hashtbl.create 8; inflight = Hashtbl.create 8 } )
      in
      let rec prefixes acc = function
        | [] -> true
        | o :: rest ->
          let pm = fresh () in
          let prefix = List.rev (o :: acc) in
          List.for_all (apply_pending ~track pm) prefix
          && pending_agrees pm
          && apply_pending ~track pm Compact
          && pending_agrees pm
          && prefixes (o :: acc) rest
      in
      prefixes [] ops)

(* Copy counts past a byte's range stay exact. *)
let test_pending_many_copies () =
  let p = Pending.create ~track:true in
  for _ = 1 to 600 do
    Pending.push p 3
  done;
  Pending.push p 4;
  ignore (Pending.take p 299);
  check Alcotest.int "raw entries" 302 (Pending.length p);
  Pending.compact p;
  check Alcotest.(list int) "one live copy each" [ 3; 4 ] (Pending.to_list p);
  Pending.mark_executed p 3;
  Pending.compact p;
  check Alcotest.(list int) "executed copy dropped" [ 4 ] (Pending.to_list p)

(* ---- the pooled codec ----------------------------------------------------- *)

let sample_batch =
  {
    Msg.view = 2;
    seq = 41;
    digest = "digest\x00\xff";
    reqs = [ { Msg.client = 7; txn_id = 99 }; { Msg.client = 8; txn_id = 100 } ];
    wire_bytes = 512;
  }

let sample_messages =
  [
    Msg.Pre_prepare { view = 2; seq = 41; batch = sample_batch; from = 0 };
    Msg.Prepare { view = 2; seq = 41; digest = "d"; from = 3 };
    Msg.Commit { view = 0; seq = 1; digest = String.make 32 '\x01'; from = 15 };
    Msg.Checkpoint { seq = 10_000; state_digest = "state"; from = 2 };
    Msg.Reply { view = 0; seq = 7; txn_id = 55; client = 1000; from = 3; result = "ok" };
  ]

let test_pool_churn_roundtrip () =
  let hits0, _, _ = Codec.pool_stats () in
  for _ = 1 to 200 do
    List.iter
      (fun m ->
        match Codec.decode (Codec.encode m) with
        | Ok m' -> if m <> m' then Alcotest.failf "%s did not roundtrip" (Msg.type_name m)
        | Error e -> Alcotest.failf "%s: %s" (Msg.type_name m) e)
      sample_messages
  done;
  let hits1, _, idle = Codec.pool_stats () in
  Alcotest.(check bool) "pool buffers were reused" true (hits1 > hits0);
  Alcotest.(check bool) "buffers returned to the pool" true (idle >= 1)

let test_encode_into_matches_encode () =
  List.iter
    (fun m ->
      let b = Buffer.create 64 in
      Codec.encode_into b m;
      check Alcotest.string (Msg.type_name m) (Codec.encode m) (Buffer.contents b))
    sample_messages

let test_with_buffer_reenters () =
  (* Nested use must hand out distinct buffers, and an exception must not
     lose the buffer for later callers. *)
  let a = Codec.with_buffer (fun b1 ->
      Buffer.add_string b1 "outer";
      Codec.with_buffer (fun b2 ->
          Buffer.add_string b2 "inner";
          if Buffer.contents b1 = Buffer.contents b2 then Alcotest.fail "buffers aliased");
      Buffer.contents b1)
  in
  check Alcotest.string "outer content intact" "outer" a;
  (try Codec.with_buffer (fun _ -> failwith "boom") with Failure _ -> ());
  check Alcotest.string "pool still serves after an exception" "x"
    (Codec.with_buffer (fun b -> Buffer.add_string b "x"; Buffer.contents b))

let test_decode_sub_zero_copy () =
  List.iter
    (fun m ->
      let payload = Codec.encode m in
      let s = "prefix-junk" ^ payload ^ "suffix-junk" in
      match Codec.decode_sub s ~pos:11 ~len:(String.length payload) with
      | Ok m' -> Alcotest.(check bool) (Msg.type_name m ^ " mid-string") true (m = m')
      | Error e -> Alcotest.failf "%s: %s" (Msg.type_name m) e)
    sample_messages;
  let payload = Codec.encode (List.hd sample_messages) in
  Alcotest.(check bool) "window too short" true
    (Result.is_error (Codec.decode_sub payload ~pos:0 ~len:(String.length payload - 1)));
  Alcotest.(check bool) "window too long" true
    (Result.is_error (Codec.decode_sub ("x" ^ payload) ~pos:1 ~len:(String.length payload + 5)));
  Alcotest.(check bool) "out of bounds" true
    (Result.is_error (Codec.decode_sub payload ~pos:2 ~len:(String.length payload)));
  Alcotest.(check bool) "negative pos" true
    (Result.is_error (Codec.decode_sub payload ~pos:(-1) ~len:3))

let test_read_frame_reentrant_deliver () =
  (* A deliver callback that appends more framed bytes (e.g. a handler that
     echoes) must not corrupt the stream: the appended frame is decoded
     too. *)
  let buf = Buffer.create 64 in
  let out = ref [] in
  Buffer.add_string buf (Codec.frame "first");
  Codec.read_frame buf (fun p ->
      out := p :: !out;
      if p = "first" then Buffer.add_string buf (Codec.frame "second"));
  check Alcotest.(list string) "both frames delivered" [ "first"; "second" ] (List.rev !out);
  check Alcotest.int "buffer drained" 0 (Buffer.length buf)

let test_read_frame_exception_preserves_tail () =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Codec.frame "a");
  Buffer.add_string buf (Codec.frame "b");
  (try Codec.read_frame buf (fun _ -> failwith "boom") with Failure _ -> ());
  let out = ref [] in
  Codec.read_frame buf (fun p -> out := p :: !out);
  check Alcotest.(list string) "tail survives a raising callback" [ "b" ] (List.rev !out)

(* ---- the regression gate -------------------------------------------------- *)

let row ?(unit_ = "x") ~higher figure config metric value =
  { Gate.figure; config; metric; value; unit_; higher_is_better = higher }

let tput v = row ~higher:true "consensus" "pbft" "tput_tps" v
let lat v = row ~higher:false "consensus" "pbft" "lat_p99_ms" v
let micro v = row ~higher:false "micro" "sha" "ns_per_op" v

let test_gate_parses_bench_json () =
  let text =
    {|{"schema_version": 1, "quick": true, "rows": [
        {"figure": "consensus", "config": "pbft-2B1E", "metric": "tput_tps",
         "value": 176667, "unit": "txn/s", "higher_is_better": true}]}|}
  in
  (match Gate.parse_doc text with
  | Ok d ->
    Alcotest.(check bool) "quick flag" true d.Gate.quick;
    (match d.Gate.rows with
    | [ r ] ->
      check Alcotest.string "figure" "consensus" r.Gate.figure;
      check (Alcotest.float 1e-6) "value" 176667.0 r.Gate.value;
      Alcotest.(check bool) "direction" true r.Gate.higher_is_better
    | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows))
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "truncated JSON rejected" true
    (Result.is_error (Gate.parse_doc "{\"rows\": ["));
  Alcotest.(check bool) "document without rows rejected" true
    (Result.is_error (Gate.parse_doc "{\"schema_version\": 1}"));
  Alcotest.(check bool) "row missing a field rejected" true
    (Result.is_error (Gate.parse_doc {|{"rows": [{"figure": "f"}]}|}))

let verdicts ~baseline ~current =
  List.map
    (fun c -> c.Gate.c_verdict)
    (Gate.compare_docs Gate.default_tolerance ~baseline:{ Gate.quick = true; rows = baseline }
       ~current:{ Gate.quick = true; rows = current })

let test_gate_flags_regressions () =
  (* 20% throughput drop: outside the 8% band, fails. *)
  let cs =
    Gate.compare_docs Gate.default_tolerance
      ~baseline:{ Gate.quick = true; rows = [ tput 100_000.0 ] }
      ~current:{ Gate.quick = true; rows = [ tput 80_000.0 ] }
  in
  check Alcotest.bool "20%% tput drop fails" true (Gate.failed cs);
  (* Within band: ok.  Improvement: ok. *)
  Alcotest.(check bool) "5%% drop within band" false
    (Gate.failed
       (Gate.compare_docs Gate.default_tolerance
          ~baseline:{ Gate.quick = true; rows = [ tput 100_000.0 ] }
          ~current:{ Gate.quick = true; rows = [ tput 95_000.0 ] }));
  check Alcotest.bool "improvement passes" false
    (Gate.failed
       (Gate.compare_docs Gate.default_tolerance
          ~baseline:{ Gate.quick = true; rows = [ tput 100_000.0 ] }
          ~current:{ Gate.quick = true; rows = [ tput 130_000.0 ] }));
  (match verdicts ~baseline:[ tput 100_000.0 ] ~current:[ tput 130_000.0 ] with
  | [ Gate.Improved ] -> ()
  | _ -> Alcotest.fail "expected Improved");
  (* Latency is lower-is-better: a 20% increase regresses, a drop improves. *)
  (match verdicts ~baseline:[ lat 100.0 ] ~current:[ lat 120.0 ] with
  | [ Gate.Regressed ] -> ()
  | _ -> Alcotest.fail "expected latency Regressed");
  (* A baseline row missing from the run is lost coverage. *)
  let cs =
    Gate.compare_docs Gate.default_tolerance
      ~baseline:{ Gate.quick = true; rows = [ tput 100_000.0; lat 100.0 ] }
      ~current:{ Gate.quick = true; rows = [ tput 100_000.0 ] }
  in
  check Alcotest.bool "missing row fails" true (Gate.failed cs);
  (* A run-only row is reported but never fails. *)
  let extra =
    Gate.unmatched
      ~baseline:{ Gate.quick = true; rows = [ tput 100_000.0 ] }
      ~current:{ Gate.quick = true; rows = [ tput 100_000.0; lat 90.0 ] }
  in
  check Alcotest.int "new row reported" 1 (List.length extra)

let test_gate_micro_advisory () =
  (* Hardware ns/op rows doubled: advisory by default, fatal under
     --strict-micro. *)
  (match verdicts ~baseline:[ micro 1000.0 ] ~current:[ micro 2000.0 ] with
  | [ Gate.Advisory ] -> ()
  | _ -> Alcotest.fail "expected Advisory");
  let strict = { Gate.default_tolerance with Gate.strict_micro = true } in
  let cs =
    Gate.compare_docs strict
      ~baseline:{ Gate.quick = true; rows = [ micro 1000.0 ] }
      ~current:{ Gate.quick = true; rows = [ micro 2000.0 ] }
  in
  check Alcotest.bool "strict micro fails" true (Gate.failed cs);
  (* 30% micro wobble stays inside the 50% band either way. *)
  match verdicts ~baseline:[ micro 1000.0 ] ~current:[ micro 1300.0 ] with
  | [ Gate.Within ] -> ()
  | _ -> Alcotest.fail "expected Within"

(* ---- caching is behavior-neutral ------------------------------------------ *)

(* All the costs the memo table can elide, priced at zero: now a cache hit
   (0 ns) and a full operation (0 ns) are indistinguishable, so cached and
   uncached clusters must produce *identical* metrics — any divergence
   means the cache changed scheduling or semantics, not just cost. *)
let free_crypto =
  {
    Cost.default with
    Cost.verify_cmac = 0;
    verify_ed25519 = 0;
    verify_ed25519_batch = 0;
    verify_rsa = 0;
    hash_base = 0;
    hash_per_byte = 0;
    cache_lookup = 0;
  }

let fingerprint (m : Metrics.t) =
  let lat = m.Metrics.latency in
  let pct p = if Stats.count lat = 0 then 0.0 else Stats.percentile lat p in
  Printf.sprintf "%.9g|%.9g|%d|%d|%d|%d|%d|%.9g|%.9g|%.9g|%d|%d|%d|%d"
    m.Metrics.throughput_tps m.Metrics.ops_per_second m.Metrics.completed_txns
    (Stats.count lat) m.Metrics.messages_sent m.Metrics.bytes_sent m.Metrics.ledger_blocks
    (if Stats.count lat = 0 then 0.0 else Stats.mean lat)
    (pct 50.0) (pct 99.0) m.Metrics.faults.Metrics.msgs_dropped
    m.Metrics.faults.Metrics.msgs_duplicated m.Metrics.faults.Metrics.retransmissions
    m.Metrics.faults.Metrics.view_changes

let neutral_base =
  Params.default
  |> Params.with_n 4
  |> Params.with_clients 150
  |> Params.map_topology (fun t -> { t with Params.Topology.client_machines = 1 })
  |> Params.with_batch_size 10
  |> Params.map_consensus (fun c ->
         { c with Params.Consensus.max_inflight_batches = 16; checkpoint_txns = 400 })
  |> Params.with_client_timeout (Sim.ms 30.0)
  |> Params.with_view_timeout (Sim.ms 25.0)
  |> Params.with_windows ~warmup:(Sim.seconds 0.2) ~measure:(Sim.seconds 0.5)
  |> Params.map_exec (fun e -> { e with Params.Exec.cost = free_crypto })

let with_sharing v p =
  Params.map_consensus (fun c -> { c with Params.Consensus.verify_sharing = v }) p

let prop_cache_neutral =
  QCheck.Test.make ~name:"verify-sharing: metric-neutral when crypto is free" ~count:60
    (QCheck.pair Testkit.arb_schedule (QCheck.int_bound 10_000))
    (fun (nemesis, seed) ->
      let p =
        neutral_base |> Params.with_nemesis nemesis
        |> Params.with_seed (Int64.of_int (seed + 13))
      in
      let cached = fingerprint (Cluster.run (with_sharing true p)) in
      let uncached = fingerprint (Cluster.run (with_sharing false p)) in
      if String.equal cached uncached then true
      else QCheck.Test.fail_reportf "cached %s\nuncached %s" cached uncached)

(* ---- and pays off under real prices ---------------------------------------- *)

let test_verify_sharing_gain () =
  let p =
    Params.default
    |> Params.with_n 4
    |> Params.with_clients 4_000
    |> Params.map_topology (fun t -> { t with Params.Topology.client_machines = 1 })
    |> Params.with_windows ~warmup:(Sim.seconds 0.3) ~measure:(Sim.seconds 0.7)
  in
  let c = Cluster.create p in
  let cached = Cluster.measure c in
  let hits, misses = Cluster.verify_cache_stats c in
  let uncached = Cluster.run (with_sharing false p) in
  Alcotest.(check bool) "caches were exercised" true (hits > 0 && misses > 0);
  Alcotest.(check bool)
    (Printf.sprintf "cached %.0f >= 1.1x uncached %.0f" cached.Metrics.throughput_tps
       uncached.Metrics.throughput_tps)
    true
    (cached.Metrics.throughput_tps >= 1.1 *. uncached.Metrics.throughput_tps);
  match Cluster.check_safety c with Ok () -> () | Error e -> Alcotest.fail e

(* ---- verify-sharing in the real-crypto runtime ----------------------------- *)

let kv_apply ~replica:_ store ~client:_ ~payload =
  (match String.split_on_char '=' payload with
  | [ k; v ] -> Rdb_storage.Mem_store.put store k v
  | _ -> Rdb_storage.Mem_store.put store payload "1");
  "ok"

let test_runtime_viewchange_reuses_verifications () =
  let rt = Rt.create ~config:{ Rt.default_config with Rt.batch_size = 2 } ~apply:kv_apply () in
  ignore (Rt.submit rt ~client:1 ~payload:"a=1");
  ignore (Rt.submit rt ~client:2 ~payload:"b=2");
  (* The batch was admitted (signatures verified and memoized) and proposed,
     but the primary crashes before anything is delivered: the Pre_prepare
     dies with it and the batch is lost. *)
  Rt.crash rt 0;
  Rt.run rt;
  check Alcotest.int "nothing completed under the dead primary" 0
    (List.length (Rt.completed rt));
  check Alcotest.int "no cache hits yet" 0 (Rt.verify_cache_hits rt);
  Rt.force_view_change rt;
  Rt.run rt;
  check Alcotest.int "view advanced" 1 (Rt.view rt);
  check Alcotest.int "lost batch re-proposed and completed" 2 (List.length (Rt.completed rt));
  Alcotest.(check bool) "admission signatures answered from the memo table" true
    (Rt.verify_cache_hits rt >= 2);
  check Alcotest.int "no spurious auth failures" 0 (Rt.auth_failures rt);
  List.iter
    (fun r ->
      check
        Alcotest.(option string)
        (Printf.sprintf "replica %d state" r)
        (Some "1")
        (Rdb_storage.Mem_store.get (Rt.store rt r) "a"))
    [ 1; 2; 3 ];
  match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e

let test_runtime_forgery_never_cached () =
  let rt = Rt.create ~apply:kv_apply () in
  Rt.inject_forged_message rt ~dst:2;
  Rt.run rt;
  check Alcotest.int "forged message rejected" 1 (Rt.auth_failures rt);
  (* Replaying the identical forged bytes must be rejected again: only
     successful verifications are memoized. *)
  Rt.inject_forged_message rt ~dst:2;
  Rt.run rt;
  check Alcotest.int "replayed forgery rejected too" 2 (Rt.auth_failures rt);
  ignore (Rt.submit rt ~client:1 ~payload:"still=works");
  Rt.flush rt;
  Rt.run rt;
  match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e

let () =
  Alcotest.run "hotpath"
    [
      ( "verify-cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_counts;
          Alcotest.test_case "FIFO eviction bound" `Quick test_cache_fifo_eviction;
          Alcotest.test_case "bad capacity rejected" `Quick test_cache_rejects_bad_capacity;
          qtest prop_cache_matches_fifo_model;
        ] );
      ( "pending",
        [
          qtest prop_pending_matches_rebuild;
          Alcotest.test_case "copy counts past a byte" `Quick test_pending_many_copies;
        ] );
      ( "codec-pool",
        [
          Alcotest.test_case "churned roundtrips reuse buffers" `Quick test_pool_churn_roundtrip;
          Alcotest.test_case "encode_into = encode" `Quick test_encode_into_matches_encode;
          Alcotest.test_case "with_buffer reentrancy + exceptions" `Quick test_with_buffer_reenters;
          Alcotest.test_case "decode_sub mid-string" `Quick test_decode_sub_zero_copy;
          Alcotest.test_case "read_frame reentrant deliver" `Quick test_read_frame_reentrant_deliver;
          Alcotest.test_case "read_frame exception safety" `Quick
            test_read_frame_exception_preserves_tail;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "parses bench JSON" `Quick test_gate_parses_bench_json;
          Alcotest.test_case "flags regressions and lost coverage" `Quick
            test_gate_flags_regressions;
          Alcotest.test_case "micro rows advisory unless strict" `Quick test_gate_micro_advisory;
        ] );
      ( "neutrality",
        [
          qtest prop_cache_neutral;
          Alcotest.test_case "real prices: >= 1.1x and safe" `Quick test_verify_sharing_gain;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "view change reuses admissions" `Quick
            test_runtime_viewchange_reuses_verifications;
          Alcotest.test_case "forgeries never cached" `Quick test_runtime_forgery_never_cached;
        ] );
    ]
