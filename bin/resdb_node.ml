(* resdb_node: one ResilientDB replica as a real networked process.

   A thin shell around Rdb_core.Replica_host, the replica logic this node
   shares with the in-process Local_runtime (admission, batching, the PBFT
   core, CMAC checks, key-value execution, the ledger, and state transfer,
   which the node asks for when it falls behind a stable checkpoint and
   answers for lagging peers).  This file adds the CLI, the Tcp_transport
   and Wire wiring, the node lock, the map from client ids to reply
   addresses and the progress loop.  A 4-node cluster on one machine:

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
module Host = Rdb_core.Replica_host
module Core = Rdb_consensus.Core
module Msg = Rdb_consensus.Message
module Config = Rdb_consensus.Config
module Tcp = Rdb_net.Tcp_transport
module Wire = Rdb_core.Wire
module Signer = Rdb_crypto.Signer
module Cmac = Rdb_crypto.Cmac
module Sha256 = Rdb_crypto.Sha256
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger

let group_mac = Cmac.of_secret "resdb-demo-mac!!"

let apply_kv store ~client:_ ~payload =
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
  let peers = Wire.parse_peers peers_s in
  let n = List.length peers in
  let _, (_, my_port) = List.nth peers id in
  let config = Config.make ~n () in
  let verifier = Signer.verifier (Signer.create (Rdb_des.Rng.create 4242L) Signer.Ed25519) in
  let lock = Mutex.create () in
  let transport = ref None in
  let tp () = Option.get !transport in
  (* Client ids are mapped into the transport directory above the replica
     id space; [reply_to] keeps each client's address for the attachments
     that carry its requests to the backups. *)
  let client_peer_id c = n + c in
  let reply_to : (int, string * int) Hashtbl.t = Hashtbl.create 16 in
  let learn_client client addr =
    Hashtbl.replace reply_to client addr;
    Tcp.add_peer (tp ()) (client_peer_id client) addr
  in
  (* The reply address of the Request frame being admitted.  It is learned
     only once the request's signature checks out, before the batch that
     may carry it to the backups is formed, so a forged frame cannot
     redirect another client's replies. *)
  let arriving = ref ("", 0) in
  let send ~dst msg ~tag bodies =
    let attachments =
      List.map
        (fun (r : Host.request) ->
          let a_reply_host, a_reply_port = Hashtbl.find reply_to r.Host.client in
          {
            Wire.a_txn_id = r.Host.txn_id;
            a_client = r.Host.client;
            a_reply_host;
            a_reply_port;
            a_payload = r.Host.payload;
          })
        bodies
    in
    ignore (Tcp.send (tp ()) ~to_:dst (Wire.encode (Wire.Consensus { msg; tag; attachments })))
  in
  let reply ~client = function
    | Msg.Reply { txn_id; from; result; _ } ->
      ignore
        (Tcp.send (tp ()) ~to_:(client_peer_id client)
           (Wire.encode (Wire.Reply { txn_id; from; result })))
    | _ -> ()
  in
  let host =
    Host.create ~config ~id ~core:(Core.pbft config ~id) ~ledger:(Ledger.create ~primary_id:0)
      ~mac:group_mac ~batch_size ~exec_threads:1 ~footprint:None ~apply:apply_kv
      ~verify:(fun (r : Host.request) ~signature ->
        let ok =
          Wire.verify_request verifier ~client:r.Host.client ~txn_id:r.Host.txn_id
            ~payload:r.Host.payload ~signature
        in
        if ok then learn_client r.Host.client !arriving;
        ok)
      ~send ~reply
  in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let on_message ~payload =
    match Wire.decode payload with
    | Error e -> if verbose then Printf.eprintf "[node %d] bad frame: %s\n%!" id e
    | Ok (Wire.Request { client; reply_host; reply_port; txn_id; payload; signature }) ->
      let admitted =
        locked (fun () ->
            arriving := (reply_host, reply_port);
            Host.submit host { Host.client; txn_id; payload } ~signature)
      in
      if verbose && not admitted then
        Printf.eprintf "[node %d] refused request %d/%d (duplicate or bad signature)\n%!" id
          client txn_id
    | Ok (Wire.Consensus { msg; tag; attachments }) ->
      locked (fun () ->
          match Host.authenticate host msg ~tag with
          | Some msg ->
            Host.deliver host msg
              (List.map
                 (fun { Wire.a_txn_id; a_client; a_reply_host; a_reply_port; a_payload } ->
                   learn_client a_client (a_reply_host, a_reply_port);
                   { Host.client = a_client; txn_id = a_txn_id; payload = a_payload })
                 attachments)
          | None -> if verbose then Printf.eprintf "[node %d] bad MAC\n%!" id)
    | Ok (Wire.Reply _) -> ()
  in
  let t = Tcp.create ~port:my_port ~on_message () in
  transport := Some t;
  Tcp.set_peers t peers;
  let core = Host.core host in
  Printf.printf "[node %d] listening on port %d (%s), n=%d f=%d batch=%d\n%!" id my_port
    (if Core.leads_any core then "PRIMARY" else "backup")
    n ((n - 1) / 3) batch_size;
  (* Flush partial batches and report progress. *)
  let start = Unix.gettimeofday () in
  let last_report = ref start in
  let last_count = ref 0 in
  let running = ref true in
  while !running do
    Thread.delay 0.005;
    locked (fun () -> Host.flush host);
    let now = Unix.gettimeofday () in
    if now -. !last_report >= 2.0 then begin
      let ex, seq, blocks =
        locked (fun () ->
            (Host.executed_txns host, Core.last_executed core, Ledger.length (Host.ledger host)))
      in
      Printf.printf "[node %d] executed %d txns (%.0f/s), seq %d, chain %d blocks\n%!" id ex
        (float_of_int (ex - !last_count) /. (now -. !last_report))
        seq blocks;
      last_count := ex;
      last_report := now
    end;
    if duration > 0.0 && now -. start > duration then running := false
  done;
  Printf.printf "[node %d] shutting down: %d txns executed, state digest %s\n%!" id
    (Host.executed_txns host)
    (String.sub (Sha256.hex (Mem_store.digest (Host.store host))) 0 16);
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
