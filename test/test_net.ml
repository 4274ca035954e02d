(* Network layer tests: the wire codec (exhaustive roundtrips + malformed
   input), stream framing, the simulated datacenter network (latency,
   bandwidth serialization, crash drops), and the real TCP transport —
   including a full 4-replica PBFT agreement over localhost sockets. *)

module Codec = Rdb_consensus.Codec
module Msg = Rdb_consensus.Message
module Net = Rdb_net.Net
module Tcp = Rdb_net.Tcp_transport
module Sim = Rdb_des.Sim
module Rng = Rdb_des.Rng

let check = Alcotest.check
let qtest p = QCheck_alcotest.to_alcotest p

(* ---- codec ----------------------------------------------------------------- *)

let sample_batch =
  {
    Msg.view = 3;
    seq = 123_456_789_012;
    digest = "digest-bytes\x00\xff";
    reqs = [ { Msg.client = 7; txn_id = 99 }; { Msg.client = 8; txn_id = 100 } ];
    wire_bytes = 4096;
  }

let sample_messages =
  [
    Msg.Pre_prepare { view = 1; seq = 42; batch = sample_batch; from = 0 };
    Msg.Prepare { view = 1; seq = 42; digest = "d"; from = 3 };
    Msg.Commit { view = 0; seq = 1; digest = String.make 32 '\x01'; from = 15 };
    Msg.Checkpoint { seq = 10_000; state_digest = "state"; from = 2 };
    Msg.View_change
      {
        new_view = 2;
        last_stable = 100;
        prepared =
          [ { Msg.p_view = 1; p_seq = 101; p_digest = "pd"; p_batch = sample_batch } ];
        from = 1;
      };
    Msg.New_view { view = 2; vc_senders = [ 1; 2; 3 ]; pre_prepares = [ sample_batch ]; from = 2 };
    Msg.Order_request { view = 0; seq = 7; batch = sample_batch; history = "h"; from = 0 };
    Msg.Commit_cert { view = 0; seq = 7; digest = "h"; client = 1000; responders = [ 0; 1; 2 ] };
    Msg.Reply { view = 0; seq = 7; txn_id = 55; client = 1000; from = 3; result = "ok" };
    Msg.Spec_reply { view = 0; seq = 7; txn_id = 55; client = 1000; from = 3; history = "hh" };
    Msg.Local_commit { view = 0; seq = 7; client = 1000; from = 3 };
    Msg.Fill_hole { view = 1; from_seq = 10; to_seq = 20; from = 2 };
  ]

let test_codec_roundtrip_all_variants () =
  List.iter
    (fun m ->
      match Codec.decode (Codec.encode m) with
      | Ok m' ->
        Alcotest.(check bool) (Msg.type_name m ^ " roundtrips") true (m = m')
      | Error e -> Alcotest.failf "%s failed to decode: %s" (Msg.type_name m) e)
    sample_messages

let test_codec_rejects_malformed () =
  Alcotest.(check bool) "empty" true (Result.is_error (Codec.decode ""));
  Alcotest.(check bool) "unknown tag" true (Result.is_error (Codec.decode "\xfe\x00\x00"));
  let good = Codec.encode (List.hd sample_messages) in
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Codec.decode (String.sub good 0 (String.length good / 2))));
  Alcotest.(check bool) "trailing garbage" true (Result.is_error (Codec.decode (good ^ "x")))

let test_codec_never_raises_on_fuzz () =
  let rng = Rng.create 31337L in
  for _ = 1 to 5_000 do
    let len = Rng.int rng 64 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    match Codec.decode s with Ok _ | Error _ -> ()
  done

let arb_message =
  let open QCheck.Gen in
  let small = int_bound 1000 in
  let str = string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 40) in
  let req = map2 (fun c t -> { Msg.client = c; txn_id = t }) small small in
  let batch =
    map (fun (view, seq, digest, reqs, wire) -> { Msg.view; seq; digest; reqs; wire_bytes = wire })
      (tup5 small small str (list_size (0 -- 5) req) small)
  in
  let gen =
    frequency
      [
        (2, map2 (fun b f -> Msg.Pre_prepare { view = b.Msg.view; seq = b.Msg.seq; batch = b; from = f }) batch small);
        (3, map (fun (v, s, d, f) -> Msg.Prepare { view = v; seq = s; digest = d; from = f }) (tup4 small small str small));
        (3, map (fun (v, s, d, f) -> Msg.Commit { view = v; seq = s; digest = d; from = f }) (tup4 small small str small));
        (1, map (fun (s, d, f) -> Msg.Checkpoint { seq = s; state_digest = d; from = f }) (tup3 small str small));
        (1, map2 (fun b (v, h, f) -> Msg.Order_request { view = v; seq = b.Msg.seq; batch = b; history = h; from = f }) batch (tup3 small str small));
        (1, map (fun (v, s, t, c) -> Msg.Reply { view = v; seq = s; txn_id = t; client = c; from = 0; result = "r" }) (tup4 small small small small));
      ]
  in
  QCheck.make ~print:Msg.type_name gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec: decode . encode = id" ~count:500 arb_message (fun m ->
      Codec.decode (Codec.encode m) = Ok m)

(* ---- authenticated encoding ---------------------------------------------- *)

(* Golden bytes of [Message.auth_string]: the string the measured runtimes
   MAC on the wire, so any change to it is a wire-format change.  Every
   constructor appears, with multi-digit ints, empty and non-empty lists,
   and digests that contain the '|' separator. *)
let test_auth_string_golden () =
  let module Block = Rdb_chain.Block in
  let batch =
    { Msg.view = 12; seq = 3456; digest = "dig|est"; reqs = [ { Msg.client = 7; txn_id = 80 } ];
      wire_bytes = 512 }
  in
  let batch2 = { batch with Msg.seq = 3457; digest = "d2" } in
  let blk =
    { Block.seq = 1001; view = 12; digest = "bl|k"; txn_count = 100;
      link = Block.Certificate [ (0, "s") ] }
  in
  let kv_digest = Rdb_crypto.Sha256.digest "k1\x00v1\x00k|2\x00\x00" in
  let cases =
    [
      (Msg.Pre_prepare { view = 12; seq = 3456; batch; from = 15 }, "pre-prepare|12|3456|15|dig|est");
      (Msg.Prepare { view = 0; seq = 1_000_000; digest = "a|b"; from = 10 }, "prepare|0|1000000|10|a|b");
      (Msg.Commit { view = 123; seq = 45; digest = "|"; from = 0 }, "commit|123|45|0||");
      (Msg.Checkpoint { seq = 10_000; state_digest = "st|ate"; from = 13 }, "checkpoint|10000|13|st|ate");
      ( Msg.View_change
          {
            new_view = 21;
            last_stable = 300;
            prepared =
              [
                { Msg.p_view = 20; p_seq = 301; p_digest = "p|d"; p_batch = batch };
                { Msg.p_view = 19; p_seq = 302; p_digest = "q"; p_batch = batch2 };
              ];
            from = 11;
          },
        "view-change|21|300|11|20:301:p|d;19:302:q;" );
      (Msg.View_change { new_view = 1; last_stable = 0; prepared = []; from = 0 }, "view-change|1|0|0|");
      ( Msg.New_view { view = 21; vc_senders = [ 1; 12; 13 ]; pre_prepares = [ batch; batch2 ]; from = 5 },
        "new-view|21|5|1,12,13,3456:dig|est;3457:d2;" );
      (Msg.New_view { view = 1; vc_senders = []; pre_prepares = []; from = 0 }, "new-view|1|0|");
      ( Msg.Hs_proposal { view = 33; seq = 444; batch; parent = "par|ent"; from = 14 },
        "hs-proposal|33|444|14|dig|est|par|ent" );
      ( Msg.Hs_vote { view = 33; seq = 444; phase = 3; digest = "v|d"; from = 12 },
        "hs-vote|33|444|3|12|v|d" );
      ( Msg.Hs_qc { view = 33; seq = 444; phase = 2; digest = "q|c"; senders = [ 10; 11; 12 ]; from = 1 },
        "hs-qc|33|444|2|1|q|c|10,11,12," );
      ( Msg.Order_request { view = 7; seq = 89; batch; history = "hi|st"; from = 0 },
        "order-request|7|89|0|dig|esthi|st" );
      ( Msg.Commit_cert { view = 7; seq = 89; digest = "c|c"; client = 80_000; responders = [ 0; 10; 15 ] },
        "commit-cert|7|89|80000|c|c0,10,15," );
      (Msg.Fill_hole { view = 7; from_seq = 90; to_seq = 1234; from = 10 }, "fill-hole|7|90|1234|10");
      ( Msg.Reply { view = 7; seq = 89; txn_id = 123_456; client = 79_999; from = 15; result = "o|k" },
        "reply|7|89|123456|79999|15|o|k" );
      ( Msg.Spec_reply
          { view = 7; seq = 89; txn_id = 123_456; client = 79_999; from = 15; history = "h|h" },
        "spec-reply|7|89|123456|79999|15|h|h" );
      ( Msg.Local_commit { view = 7; seq = 89; client = 79_999; from = 15 },
        "local-commit|7|89|79999|15" );
      (Msg.State_request { low = 5001; from = 12 }, "state-request|5001|12");
      ( Msg.State_response
          {
            last_stable = 5000;
            state_digest = "s|d";
            cert = [ (0, "c|0"); (11, "c1") ];
            chain_digest = "ch|ain";
            appended = 5050;
            app_seq = 5000;
            app_export = [ ("k1", "v1"); ("k|2", "") ];
            blocks = [ blk; { blk with Block.seq = 1002; digest = "b2" } ];
            from = 10;
          },
        "state-response|5000|5050|5000|10|s|d|ch|ain|0:c|0;11:c1;1001:bl|k;1002:b2;" ^ kv_digest );
    ]
  in
  List.iter (fun (m, want) -> check Alcotest.string (Msg.type_name m) want (Msg.auth_string m)) cases

(* ---- application wire format (deployment layer) ----------------------------- *)

module Wire = Rdb_core.Wire

let test_wire_request_roundtrip () =
  let r =
    Wire.Request
      {
        client = 7;
        reply_host = "10.0.0.3";
        reply_port = 5123;
        txn_id = 99;
        payload = "SET k \x00binary";
        signature = String.make 64 's';
      }
  in
  Alcotest.(check bool) "request roundtrips" true (Wire.decode (Wire.encode r) = Ok r)

let test_wire_consensus_with_attachments () =
  let m = Msg.Pre_prepare { view = 0; seq = 5; batch = sample_batch; from = 0 } in
  let w =
    Wire.Consensus
      {
        msg = m;
        tag = String.make 16 't';
        attachments =
          [
            {
              Wire.a_txn_id = 99;
              a_client = 7;
              a_reply_host = "127.0.0.1";
              a_reply_port = 9000;
              a_payload = "SET a 1";
            };
          ];
      }
  in
  Alcotest.(check bool) "consensus+attachments roundtrips" true (Wire.decode (Wire.encode w) = Ok w)

let test_wire_reply_roundtrip () =
  let w = Wire.Reply { txn_id = 3; from = 2; result = "OK" } in
  Alcotest.(check bool) "reply roundtrips" true (Wire.decode (Wire.encode w) = Ok w)

let test_wire_rejects_garbage () =
  Alcotest.(check bool) "empty" true (Result.is_error (Wire.decode ""));
  Alcotest.(check bool) "unknown kind" true (Result.is_error (Wire.decode "Zjunk"));
  Alcotest.(check bool) "truncated request" true (Result.is_error (Wire.decode "R\x00\x00"))

let test_wire_request_signatures () =
  let rng = Rng.create 4242L in
  let signer = Rdb_crypto.Signer.create rng Rdb_crypto.Signer.Ed25519 in
  let verifier = Rdb_crypto.Signer.verifier signer in
  let signature = Wire.sign_request signer ~client:1 ~txn_id:5 ~payload:"SET a 1" in
  Alcotest.(check bool) "valid" true
    (Wire.verify_request verifier ~client:1 ~txn_id:5 ~payload:"SET a 1" ~signature);
  Alcotest.(check bool) "payload tamper" false
    (Wire.verify_request verifier ~client:1 ~txn_id:5 ~payload:"SET a 2" ~signature);
  Alcotest.(check bool) "txn splice" false
    (Wire.verify_request verifier ~client:1 ~txn_id:6 ~payload:"SET a 1" ~signature);
  Alcotest.(check bool) "client splice" false
    (Wire.verify_request verifier ~client:2 ~txn_id:5 ~payload:"SET a 1" ~signature)

(* ---- framing ------------------------------------------------------------------ *)

let test_deframer_reassembles_split_frames () =
  let payloads = [ "alpha"; ""; String.make 10_000 'z'; "omega" ] in
  let stream = String.concat "" (List.map Codec.frame payloads) in
  let out = ref [] in
  let buf = Buffer.create 64 in
  (* Feed the byte stream in pathological 3-byte chunks. *)
  let rec feed off =
    if off < String.length stream then begin
      let n = min 3 (String.length stream - off) in
      Buffer.add_substring buf stream off n;
      Codec.read_frame buf (fun p -> out := p :: !out);
      feed (off + n)
    end
  in
  feed 0;
  check Alcotest.(list string) "all frames, in order" payloads (List.rev !out);
  check Alcotest.int "no leftover bytes" 0 (Buffer.length buf)

let test_deframer_keeps_partial () =
  let buf = Buffer.create 16 in
  Buffer.add_string buf (String.sub (Codec.frame "hello") 0 4);
  let out = ref [] in
  Codec.read_frame buf (fun p -> out := p :: !out);
  check Alcotest.(list string) "nothing delivered yet" [] !out;
  check Alcotest.int "partial retained" 4 (Buffer.length buf)

(* ---- simulated network ----------------------------------------------------------- *)

let test_simnet_latency () =
  let sim = Sim.create () in
  let rng = Rng.create 1L in
  let arrivals = ref [] in
  let net = ref None in
  let deliver ~dst ~src:_ payload = arrivals := (dst, payload, Sim.now sim) :: !arrivals in
  net := Some (Net.create sim ~nodes:3 ~bandwidth_gbps:8.0 ~latency:(Sim.us 100.0) ~rng ~deliver ());
  let n = Option.get !net in
  Net.send n ~src:0 ~dst:1 ~bytes:1000 "hello";
  Sim.run sim;
  (match !arrivals with
  | [ (1, "hello", at) ] ->
    (* 1000 bytes at 8 Gbit/s = 1 us transmission + 100 us latency. *)
    check Alcotest.int "arrival time" (Sim.us 101.0) at
  | _ -> Alcotest.fail "expected exactly one arrival");
  check Alcotest.int "bytes accounted" 1000 (Net.bytes_sent n)

let test_simnet_nic_serializes () =
  let sim = Sim.create () in
  let rng = Rng.create 2L in
  let arrivals = ref [] in
  let net = ref None in
  let deliver ~dst:_ ~src:_ () = arrivals := Sim.now sim :: !arrivals in
  net := Some (Net.create sim ~nodes:2 ~bandwidth_gbps:8.0 ~latency:0 ~rng ~deliver ());
  let n = Option.get !net in
  (* Two 1KB messages from the same NIC: the second waits for the first. *)
  Net.send n ~src:0 ~dst:1 ~bytes:1000 ();
  Net.send n ~src:0 ~dst:1 ~bytes:1000 ();
  Sim.run sim;
  check Alcotest.(list int) "serialized transmissions" [ Sim.us 2.0; Sim.us 1.0 ] !arrivals

let test_simnet_crash_drops () =
  let sim = Sim.create () in
  let rng = Rng.create 3L in
  let count = ref 0 in
  let net = ref None in
  let deliver ~dst:_ ~src:_ () = incr count in
  net := Some (Net.create sim ~nodes:3 ~bandwidth_gbps:8.0 ~latency:0 ~rng ~deliver ());
  let n = Option.get !net in
  Net.crash n 1;
  Net.send n ~src:0 ~dst:1 ~bytes:10 ();
  (* crashed dst *)
  Net.send n ~src:1 ~dst:0 ~bytes:10 ();
  (* crashed src *)
  Net.send n ~src:0 ~dst:2 ~bytes:10 ();
  (* live *)
  Sim.run sim;
  check Alcotest.int "only the live pair delivers" 1 !count;
  Alcotest.(check bool) "is_crashed" true (Net.is_crashed n 1);
  Net.recover n 1;
  Net.send n ~src:0 ~dst:1 ~bytes:10 ();
  Sim.run sim;
  check Alcotest.int "recovered node receives" 2 !count

(* ---- TCP transport ------------------------------------------------------------------ *)

let rec wait_until ?(tries = 500) pred =
  if tries = 0 then false
  else if pred () then true
  else begin
    Thread.delay 0.01;
    wait_until ~tries:(tries - 1) pred
  end

let test_tcp_two_nodes () =
  let got = ref [] in
  let lock = Mutex.create () in
  let a = Tcp.create ~on_message:(fun ~payload ->
      Mutex.lock lock; got := payload :: !got; Mutex.unlock lock) () in
  let b = Tcp.create ~on_message:(fun ~payload:_ -> ()) () in
  Tcp.set_peers b [ (0, ("127.0.0.1", Tcp.port a)) ];
  Alcotest.(check bool) "send succeeds" true (Tcp.send b ~to_:0 "ping-1");
  Alcotest.(check bool) "second send" true (Tcp.send b ~to_:0 "ping-2");
  Alcotest.(check bool) "delivery" true (wait_until (fun () ->
      Mutex.lock lock;
      let n = List.length !got in
      Mutex.unlock lock;
      n = 2));
  Mutex.lock lock;
  check Alcotest.(list string) "order preserved" [ "ping-1"; "ping-2" ] (List.rev !got);
  Mutex.unlock lock;
  Alcotest.(check bool) "unknown peer fails" false (Tcp.send b ~to_:42 "nope");
  Tcp.shutdown a;
  Tcp.shutdown b

let test_tcp_pbft_cluster_agreement () =
  (* Four PBFT replicas in one process, communicating exclusively through
     real TCP sockets and the binary codec. *)
  let module Pbft = Rdb_consensus.Pbft_replica in
  let module Action = Rdb_consensus.Action in
  let n = 4 in
  let cfg = Rdb_consensus.Config.make ~n () in
  let cores = Array.init n (fun id -> Pbft.create cfg ~id) in
  let locks = Array.init n (fun _ -> Mutex.create ()) in
  let executed = Array.make n [] in
  let transports = Array.make n None in
  let tp i = Option.get transports.(i) in
  let rec dispatch id actions =
    List.iter
      (fun a ->
        match a with
        | Action.Broadcast m ->
          let payload = Codec.encode m in
          for dst = 0 to n - 1 do
            if dst <> id then ignore (Tcp.send (tp id) ~to_:dst payload)
          done
        | Action.Send (dst, m) -> ignore (Tcp.send (tp id) ~to_:dst (Codec.encode m))
        | Action.Send_client _ -> ()
        | Action.Execute b ->
          executed.(id) <- (b.Msg.seq, b.Msg.digest) :: executed.(id);
          dispatch id (Pbft.handle_executed cores.(id) ~seq:b.Msg.seq ~state_digest:"s" ~result:"ok")
        | Action.Stable_checkpoint _ -> ())
      actions
  in
  Array.iteri
    (fun id _ ->
      let on_message ~payload =
        match Codec.decode payload with
        | Ok m ->
          (* Hold the core's lock across handling AND the dispatch of its
             actions: dispatch may call handle_executed on the same core. *)
          Mutex.lock locks.(id);
          (try dispatch id (Pbft.handle_message cores.(id) m)
           with e ->
             Mutex.unlock locks.(id);
             raise e);
          Mutex.unlock locks.(id)
        | Error _ -> ()
      in
      transports.(id) <- Some (Tcp.create ~on_message ()))
    cores;
  let directory = Array.to_list (Array.mapi (fun id _ -> (id, ("127.0.0.1", Tcp.port (tp id)))) cores) in
  Array.iteri (fun id _ -> Tcp.set_peers (tp id) directory) cores;
  (* The primary proposes three batches. *)
  for i = 1 to 3 do
    Mutex.lock locks.(0);
    let _, actions =
      Pbft.propose cores.(0)
        ~reqs:[ { Msg.client = 1; txn_id = i } ]
        ~digest:(Printf.sprintf "tcp-batch-%d" i)
        ~wire_bytes:64
    in
    dispatch 0 actions;
    Mutex.unlock locks.(0)
  done;
  let all_executed () = Array.for_all (fun l -> List.length l = 3) executed in
  Alcotest.(check bool) "all replicas executed all batches over TCP" true (wait_until all_executed);
  let reference = List.rev executed.(0) in
  Array.iteri
    (fun id l ->
      Alcotest.(check bool) (Printf.sprintf "replica %d agrees" id) true (List.rev l = reference))
    executed;
  Array.iter (fun t -> Tcp.shutdown (Option.get t)) transports

let () =
  Alcotest.run "rdb_net"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip all variants" `Quick test_codec_roundtrip_all_variants;
          Alcotest.test_case "rejects malformed" `Quick test_codec_rejects_malformed;
          Alcotest.test_case "never raises on fuzz" `Quick test_codec_never_raises_on_fuzz;
          qtest prop_codec_roundtrip;
          Alcotest.test_case "auth_string golden bytes" `Quick test_auth_string_golden;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "consensus + attachments" `Quick test_wire_consensus_with_attachments;
          Alcotest.test_case "reply roundtrip" `Quick test_wire_reply_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "request signature binding" `Quick test_wire_request_signatures;
        ] );
      ( "framing",
        [
          Alcotest.test_case "split frames reassemble" `Quick test_deframer_reassembles_split_frames;
          Alcotest.test_case "partial frame retained" `Quick test_deframer_keeps_partial;
        ] );
      ( "simulated",
        [
          Alcotest.test_case "latency model" `Quick test_simnet_latency;
          Alcotest.test_case "NIC serialization" `Quick test_simnet_nic_serializes;
          Alcotest.test_case "crash drops traffic" `Quick test_simnet_crash_drops;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "two nodes over sockets" `Quick test_tcp_two_nodes;
          Alcotest.test_case "4-replica PBFT over TCP" `Quick test_tcp_pbft_cluster_agreement;
        ] );
    ]
