(* resdb_client: a closed-loop client for a networked resdb_node cluster.

   Signs each request (demo keys, see resdb_node.ml), sends it to the
   primary, listens for replies on its own socket, accepts a result once
   f+1 distinct replicas returned matching answers, and reports throughput
   and latency percentiles at the end. *)

open Cmdliner
module Tcp = Rdb_net.Tcp_transport
module Wire = Rdb_core.Wire
module Signer = Rdb_crypto.Signer
module Stats = Rdb_des.Stats

type track = {
  mutable results : (string * int) list;  (** result -> distinct reply count *)
  mutable senders : int list;
  mutable done_ : bool;
  sent_at : float;
}

let run peers_s client_id count window =
  let peers = Wire.parse_peers peers_s in
  let n = List.length peers in
  let f = (n - 1) / 3 in
  let quorum = f + 1 in
  let signer = Signer.create (Rdb_des.Rng.create 4242L) Signer.Ed25519 in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let inflight : (int, track) Hashtbl.t = Hashtbl.create 64 in
  let completed = ref 0 in
  let latencies = Stats.create () in
  let on_message ~payload =
    match Wire.decode payload with
    | Ok (Wire.Reply { txn_id; from; result }) ->
      Mutex.lock lock;
      (match Hashtbl.find_opt inflight txn_id with
      | Some t when (not t.done_) && not (List.mem from t.senders) ->
        t.senders <- from :: t.senders;
        let c = try List.assoc result t.results + 1 with Not_found -> 1 in
        t.results <- (result, c) :: List.remove_assoc result t.results;
        if c >= quorum then begin
          t.done_ <- true;
          Hashtbl.remove inflight txn_id;
          incr completed;
          Stats.add latencies (Unix.gettimeofday () -. t.sent_at);
          Condition.signal cond
        end
      | _ -> ());
      Mutex.unlock lock
    | Ok _ | Error _ -> ()
  in
  let transport = Tcp.create ~on_message () in
  let my_port = Tcp.port transport in
  Tcp.set_peers transport peers;
  Printf.printf "[client %d] replies on port %d; %d requests, window %d, quorum %d of %d\n%!"
    client_id my_port count window quorum n;
  let primary = 0 in
  let start = Unix.gettimeofday () in
  for txn_id = 0 to count - 1 do
    let payload = Printf.sprintf "SET key%d v%d" (txn_id mod 1000) txn_id in
    let signature = Wire.sign_request signer ~client:client_id ~txn_id ~payload in
    Mutex.lock lock;
    (* Closed-loop window: wait until fewer than [window] outstanding. *)
    while Hashtbl.length inflight >= window do
      Condition.wait cond lock
    done;
    Hashtbl.replace inflight txn_id
      { results = []; senders = []; done_ = false; sent_at = Unix.gettimeofday () };
    Mutex.unlock lock;
    ignore
      (Tcp.send transport ~to_:primary
         (Wire.encode
            (Wire.Request
               { client = client_id; reply_host = "127.0.0.1"; reply_port = my_port; txn_id; payload; signature })))
  done;
  (* Drain. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  Mutex.lock lock;
  while Hashtbl.length inflight > 0 && Unix.gettimeofday () < deadline do
    Mutex.unlock lock;
    Thread.delay 0.02;
    Mutex.lock lock
  done;
  let leftover = Hashtbl.length inflight in
  Mutex.unlock lock;
  let elapsed = Unix.gettimeofday () -. start in
  Printf.printf "[client %d] %d/%d completed in %.2fs = %.0f txn/s\n%!" client_id !completed count
    elapsed
    (float_of_int !completed /. elapsed);
  if Stats.count latencies > 0 then
    Printf.printf "[client %d] latency avg %.4fs p50 %.4fs p99 %.4fs\n%!" client_id
      (Stats.mean latencies)
      (Stats.percentile latencies 50.0)
      (Stats.percentile latencies 99.0);
  if leftover > 0 then Printf.printf "[client %d] WARNING: %d requests unanswered\n%!" client_id leftover;
  Tcp.shutdown transport;
  if leftover > 0 then 1 else 0

let cmd =
  let open Arg in
  let peers =
    required
    & opt (some string) None
    & info [ "peers" ] ~doc:"Comma-separated replica host:port list (position = id)."
  in
  let client_id = value & opt int 1 & info [ "client-id" ] ~doc:"This client's id." in
  let count = value & opt int 1000 & info [ "count" ] ~doc:"Requests to send." in
  let window = value & opt int 64 & info [ "window" ] ~doc:"Max outstanding requests." in
  Cmd.v
    (Cmd.info "resdb_client" ~doc:"Drive a networked resdb_node cluster")
    Term.(const run $ peers $ client_id $ count $ window)

let () = exit (Cmd.eval' cmd)
