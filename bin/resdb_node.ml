(* resdb_node: one ResilientDB replica as a real networked process.

   Runs the pure PBFT core over TCP with the binary wire codec, CMAC
   authenticators on consensus messages, digital-signature verification on
   client requests, a key-value execution layer and a certificate-linked
   ledger.  A 4-node cluster on one machine:

     resdb_sim_build=_build/default/bin
     for i in 0 1 2 3; do
       $resdb_sim_build/resdb_node.exe --id $i \
         --peers 127.0.0.1:5000,127.0.0.1:5001,127.0.0.1:5002,127.0.0.1:5003 \
         --batch 10 --duration 30 &
     done
     $resdb_sim_build/resdb_client.exe \
       --peers 127.0.0.1:5000,127.0.0.1:5001,127.0.0.1:5002,127.0.0.1:5003 \
       --count 2000

   Demo key provisioning: all parties derive the client keypair and the
   replica group MAC secret from fixed seeds, standing in for the offline
   key ceremony of a permissioned deployment. *)

open Cmdliner
module Pbft = Rdb_consensus.Pbft_replica
module Action = Rdb_consensus.Action
module Msg = Rdb_consensus.Message
module Config = Rdb_consensus.Config
module Tcp = Rdb_net.Tcp_transport
module Wire = Rdb_core.Wire
module Signer = Rdb_crypto.Signer
module Cmac = Rdb_crypto.Cmac
module Sha256 = Rdb_crypto.Sha256
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger
module Block = Rdb_chain.Block

let group_mac = Cmac.of_secret "resdb-demo-mac!!"

let client_verifier () =
  Signer.verifier (Signer.create (Rdb_des.Rng.create 4242L) Signer.Ed25519)

type pending_req = { p_payload : string; p_host : string; p_port : int }

(* The (client, txn_id) keys this replica has executed.  Clients number
   their transactions upward from 0, so one client's set is a watermark,
   below which every id is executed, plus the executed ids above it: its
   size is bounded by how far execution runs out of id order, not by how
   many transactions the client has sent. *)
module Executed = struct
  type client = { mutable below : int; above : (int, unit) Hashtbl.t }

  let create () : (int, client) Hashtbl.t = Hashtbl.create 16

  let mem t (client, txn_id) =
    match Hashtbl.find_opt t client with
    | Some c -> (0 <= txn_id && txn_id < c.below) || Hashtbl.mem c.above txn_id
    | None -> false

  let add t (client, txn_id) =
    let c =
      match Hashtbl.find_opt t client with
      | Some c -> c
      | None ->
        let c = { below = 0; above = Hashtbl.create 64 } in
        Hashtbl.replace t client c;
        c
    in
    if not (0 <= txn_id && txn_id < c.below) then begin
      Hashtbl.replace c.above txn_id ();
      while Hashtbl.mem c.above c.below do
        Hashtbl.remove c.above c.below;
        c.below <- c.below + 1
      done
    end
end

let parse_peers s =
  String.split_on_char ',' s
  |> List.mapi (fun i hp ->
         match String.split_on_char ':' hp with
         | [ host; port ] -> (i, (host, int_of_string port))
         | _ -> failwith ("bad peer: " ^ hp))

let apply_kv store payload =
  match String.split_on_char ' ' payload with
  | [ "SET"; k; v ] ->
    Mem_store.put store k v;
    "OK"
  | [ "GET"; k ] -> Option.value ~default:"(nil)" (Mem_store.get store k)
  | [ "DEL"; k ] ->
    Mem_store.delete store k;
    "OK"
  | _ -> "ERR"

let run id peers_s batch_size duration verbose =
  let peers = parse_peers peers_s in
  let n = List.length peers in
  let _, (_, my_port) = List.nth peers id in
  let cfg = Config.make ~n () in
  let core = Pbft.create cfg ~id in
  let store = Mem_store.create () in
  let ledger = Ledger.create ~primary_id:0 in
  let verifier = client_verifier () in
  let lock = Mutex.create () in
  (* Requests are keyed by (client, txn_id): transaction ids are only
     unique per client.  A body is held from arrival until its batch
     executes; after that only its key is remembered, in [executed], so a
     duplicate is still refused but the payload is freed. *)
  let pending : (int * int) Queue.t = Queue.create () in
  let requests : (int * int, pending_req) Hashtbl.t = Hashtbl.create 256 in
  let executed = Executed.create () in
  let admit key req =
    if not (Hashtbl.mem requests key || Executed.mem executed key) then begin
      Hashtbl.replace requests key req;
      true
    end
    else false
  in
  let executed_txns = ref 0 in
  let transport = ref None in
  let tp () = Option.get !transport in
  (* Client ids are mapped into the transport directory above the replica
     id space. *)
  let client_peer_id c = n + c in
  let send_consensus ?(attachments = []) ~to_ msg =
    let tag = Cmac.mac group_mac (Msg.auth_string msg) in
    ignore (Tcp.send (tp ()) ~to_ (Wire.encode (Wire.Consensus { msg; tag; attachments })))
  in
  (* Pre-prepares ship the request bodies and client reply addresses the
     batch references: the protocol core itself is payload-agnostic. *)
  let attachments_for msg =
    match msg with
    | Msg.Pre_prepare { batch; _ } ->
      List.filter_map
        (fun (r : Msg.request_ref) ->
          match Hashtbl.find_opt requests (r.Msg.client, r.Msg.txn_id) with
          | Some req ->
            Some
              {
                Wire.a_txn_id = r.Msg.txn_id;
                a_client = r.Msg.client;
                a_reply_host = req.p_host;
                a_reply_port = req.p_port;
                a_payload = req.p_payload;
              }
          | None -> None)
        batch.Msg.reqs
    | _ -> []
  in
  let broadcast_consensus msg =
    let attachments = attachments_for msg in
    List.iter (fun (pid, _) -> if pid <> id then send_consensus ~attachments ~to_:pid msg) peers
  in
  let rec dispatch actions =
    List.iter
      (fun a ->
        match a with
        | Action.Broadcast m -> broadcast_consensus m
        | Action.Send (dst, m) -> send_consensus ~to_:dst m
        | Action.Send_client (client, m) -> (
          match m with
          | Msg.Reply { txn_id; from; result; _ } ->
            ignore
              (Tcp.send (tp ()) ~to_:(client_peer_id client)
                 (Wire.encode (Wire.Reply { txn_id; from; result })))
          | _ -> ())
        | Action.Execute batch ->
          let results =
            List.map
              (fun (r : Msg.request_ref) ->
                incr executed_txns;
                let key = (r.Msg.client, r.Msg.txn_id) in
                let result =
                  match Hashtbl.find_opt requests key with
                  | Some req -> apply_kv store req.p_payload
                  | None -> "missing"
                in
                Hashtbl.remove requests key;
                Executed.add executed key;
                result)
              batch.Msg.reqs
          in
          let cert = List.init (Config.commit_quorum cfg) (fun i -> (i, "share")) in
          if Ledger.next_seq ledger = batch.Msg.seq then
            Ledger.append ledger
              {
                Block.seq = batch.Msg.seq;
                view = batch.Msg.view;
                digest = batch.Msg.digest;
                txn_count = List.length batch.Msg.reqs;
                link = Block.Certificate cert;
              };
          let result = Sha256.hex (String.sub (Sha256.digest (String.concat "|" results)) 0 8) in
          dispatch
            (Pbft.handle_executed core ~seq:batch.Msg.seq ~state_digest:(Mem_store.digest store)
               ~result)
        | Action.Stable_checkpoint seq -> ignore (Ledger.prune_below ledger seq))
      actions
  in
  let try_batch ~force =
    if Pbft.is_primary core then begin
      let form k =
        let txns = List.init k (fun _ -> Queue.pop pending) in
        let payloads = List.map (fun key -> (Hashtbl.find requests key).p_payload) txns in
        let digest = Sha256.digest (String.concat "\x00" payloads) in
        let reqs = List.map (fun (client, txn_id) -> { Msg.client; txn_id }) txns in
        let wire = List.fold_left (fun a p -> a + String.length p) 0 payloads in
        let _, actions = Pbft.propose core ~reqs ~digest ~wire_bytes:wire in
        dispatch actions
      in
      while Queue.length pending >= batch_size do
        form batch_size
      done;
      if force && not (Queue.is_empty pending) then form (Queue.length pending)
    end
  in
  let on_message ~payload =
    match Wire.decode payload with
    | Error e -> if verbose then Printf.eprintf "[node %d] bad frame: %s\n%!" id e
    | Ok (Wire.Request { client; reply_host; reply_port; txn_id; payload; signature }) ->
      if Wire.verify_request verifier ~client ~txn_id ~payload ~signature then begin
        Mutex.lock lock;
        Tcp.add_peer (tp ()) (client_peer_id client) (reply_host, reply_port);
        if
          admit (client, txn_id)
            { p_payload = payload; p_host = reply_host; p_port = reply_port }
        then Queue.push (client, txn_id) pending;
        try_batch ~force:false;
        Mutex.unlock lock
      end
      else if verbose then Printf.eprintf "[node %d] bad request signature\n%!" id
    | Ok (Wire.Consensus { msg; tag; attachments }) ->
      if Cmac.verify group_mac (Msg.auth_string msg) ~tag then begin
        Mutex.lock lock;
        List.iter
          (fun (a : Wire.attachment) ->
            Tcp.add_peer (tp ()) (client_peer_id a.Wire.a_client) (a.Wire.a_reply_host, a.Wire.a_reply_port);
            ignore
              (admit (a.Wire.a_client, a.Wire.a_txn_id)
                 {
                   p_payload = a.Wire.a_payload;
                   p_host = a.Wire.a_reply_host;
                   p_port = a.Wire.a_reply_port;
                 }))
          attachments;
        dispatch (Pbft.handle_message core msg);
        Mutex.unlock lock
      end
      else if verbose then Printf.eprintf "[node %d] bad MAC\n%!" id
    | Ok (Wire.Reply _) -> ()
  in
  let t = Tcp.create ~port:my_port ~on_message () in
  transport := Some t;
  Tcp.set_peers t peers;
  Printf.printf "[node %d] listening on port %d (%s), n=%d f=%d batch=%d\n%!" id my_port
    (if Pbft.is_primary core then "PRIMARY" else "backup")
    n ((n - 1) / 3) batch_size;
  (* Flush partial batches and report progress. *)
  let start = Unix.gettimeofday () in
  let last_report = ref start in
  let last_count = ref 0 in
  let running = ref true in
  while !running do
    Thread.delay 0.005;
    Mutex.lock lock;
    try_batch ~force:true;
    Mutex.unlock lock;
    let now = Unix.gettimeofday () in
    if now -. !last_report >= 2.0 then begin
      Mutex.lock lock;
      let ex = !executed_txns in
      let seq = Pbft.last_executed core in
      Mutex.unlock lock;
      Printf.printf "[node %d] executed %d txns (%.0f/s), seq %d, chain %d blocks\n%!" id ex
        (float_of_int (ex - !last_count) /. (now -. !last_report))
        seq (Ledger.length ledger);
      last_count := ex;
      last_report := now
    end;
    if duration > 0.0 && now -. start > duration then running := false
  done;
  Printf.printf "[node %d] shutting down: %d txns executed, state digest %s\n%!" id !executed_txns
    (String.sub (Sha256.hex (Mem_store.digest store)) 0 16);
  Tcp.shutdown t;
  0

let cmd =
  let open Arg in
  let id = required & opt (some int) None & info [ "id" ] ~doc:"This replica's id (0-based)." in
  let peers =
    required
    & opt (some string) None
    & info [ "peers" ] ~doc:"Comma-separated host:port list; position = replica id."
  in
  let batch = value & opt int 10 & info [ "batch" ] ~doc:"Transactions per batch." in
  let duration =
    value & opt float 0.0 & info [ "duration" ] ~doc:"Exit after this many seconds (0 = run forever)."
  in
  let verbose = value & flag & info [ "v"; "verbose" ] ~doc:"Log rejected traffic." in
  Cmd.v
    (Cmd.info "resdb_node" ~doc:"Run one ResilientDB PBFT replica over real TCP")
    Term.(const run $ id $ peers $ batch $ duration $ verbose)

let () = exit (Cmd.eval' cmd)
