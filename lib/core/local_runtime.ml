module Msg = Rdb_consensus.Message
module Config = Rdb_consensus.Config
module Core = Rdb_consensus.Core
module Client = Rdb_consensus.Pbft_client
module Signer = Rdb_crypto.Signer
module Cmac = Rdb_crypto.Cmac
module Vcache = Rdb_crypto.Verify_cache
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger
module Rng = Rdb_des.Rng
module Trace = Rdb_obs.Trace
module Host = Replica_host

(* Documented in the interface. *)
type config = {
  n : int;
  batch_size : int;
  checkpoint_interval : int;
  seed : int64;
  durable_dir : string option;
  exec_threads : int;
}

let default_config =
  {
    n = 4;
    batch_size = 10;
    checkpoint_interval = 50;
    seed = 0x4C6F63616CL;
    durable_dir = None;
    exec_threads = 1;
  }

(* One message in flight between replicas. *)
type envelope = {
  origin : int;
  dst : int;
  msg : Msg.t;
  tag : string;
  bodies : Host.request list;
}

type t = {
  cfg : config;
  ccfg : Config.t;
  mutable hosts : Host.t array;
  client_signer : Signer.t;
  queue : envelope Queue.t;
  outstanding : (int * int, int * (Host.request * string)) Hashtbl.t;
      (** (client, wire id) -> the txn id and signed request, held as its
          client would until the result is accepted, so a new primary can
          be handed it again *)
  clients : (int, Client.t) Hashtbl.t;
  mutable next_txn : int;
  next_wire_id : (int, int) Hashtbl.t;
      (** client -> its next wire id.  On the wire each client numbers its
          requests from 0, as [resdb_client] does, so a host's executed-id
          watermark advances for every client; the runtime-wide txn id is
          this API's name for a request only. *)
  mutable crashed : int list;
  mutable completed : (int * string) list;  (** newest first *)
  mutable auth_failures : int;
  verified_reqs : unit Vcache.t;
      (** client signatures a primary has accepted, keyed by the signed
          content plus the signature: a view change re-batches pending
          requests without re-verifying *)
  seen : unit Vcache.t array;
      (** per replica, the (message, tag) pairs it has accepted: a repeated
          message (a laggard re-asking for state) skips the CMAC *)
  (* Message-flow trace: this runtime has no simulated clock, so delivery
     order (the step index) stands in for time — one "tick" per message. *)
  obs_trace : Trace.t option;
  mutable trace_step : int;
}

(* A single pre-shared group secret, as in a permissioned deployment. *)
let group_secret = "local-runtime-k!"

let client_for t id =
  match Hashtbl.find_opt t.clients id with
  | Some c -> c
  | None ->
    let c = Client.create t.ccfg ~id in
    Hashtbl.add t.clients id c;
    c

let deliver_client t cid msg =
  List.iter
    (function
      | Client.Complete { txn_id = wire_id; result } ->
        let txn_id, _ = Hashtbl.find t.outstanding (cid, wire_id) in
        Hashtbl.remove t.outstanding (cid, wire_id);
        t.completed <- (txn_id, result) :: t.completed
      | Client.Send _ | Client.Broadcast_request _ -> ())
    (Client.handle_reply (client_for t cid) msg)

let create ?(config = default_config) ?(trace = false) ?footprint ~apply () =
  if config.n < 4 then invalid_arg "Local_runtime.create: need at least 4 replicas";
  if config.batch_size < 1 then invalid_arg "Local_runtime.create: bad batch size";
  if config.exec_threads < 1 || config.exec_threads > 64 then
    invalid_arg "Local_runtime.create: exec_threads must be in [1, 64]";
  let ccfg = Config.make ~checkpoint_interval:config.checkpoint_interval ~n:config.n () in
  let rng = Rng.create config.seed in
  let client_signer = Signer.create rng Signer.Ed25519 in
  let obs_trace =
    if not trace then None
    else begin
      let tr = Trace.create (Rdb_des.Sim.create ()) in
      for id = 0 to config.n - 1 do
        Trace.set_process_name tr ~pid:id (Printf.sprintf "replica %d" id)
      done;
      Some tr
    end
  in
  let t =
    {
      cfg = config;
      ccfg;
      hosts = [||];
      client_signer;
      queue = Queue.create ();
      outstanding = Hashtbl.create 256;
      clients = Hashtbl.create 16;
      next_txn = 0;
      next_wire_id = Hashtbl.create 16;
      crashed = [];
      completed = [];
      auth_failures = 0;
      verified_reqs = Vcache.create ~capacity:4096;
      seen = Array.init config.n (fun _ -> Vcache.create ~capacity:4096);
      obs_trace;
      trace_step = 0;
    }
  in
  let client_verifier = Signer.verifier client_signer in
  (* The primary verifies each client signature at admission (§4.3).
     Verify-sharing: a request admitted once (then re-batched by a new
     primary after a view change) skips straight to the memo table, keyed
     by exactly the bytes the signature covers plus the signature. *)
  let verify { Host.client; txn_id; payload } ~signature =
    let key = Wire.request_auth ~client ~txn_id ~payload ^ signature in
    Vcache.mem t.verified_reqs key
    ||
    let ok = Wire.verify_request client_verifier ~client ~txn_id ~payload ~signature in
    if ok then Vcache.add t.verified_reqs key ();
    ok
  in
  t.hosts <-
    Array.init config.n (fun id ->
        let ledger =
          match config.durable_dir with
          | Some dir ->
            Ledger.open_durable
              ~dir:(Filename.concat dir (Printf.sprintf "replica-%d" id))
              ~primary_id:0
          | None -> Ledger.create ~primary_id:0
        in
        Host.create ~config:ccfg ~id ~core:(Core.pbft ccfg ~id) ~ledger
          ~mac:(Cmac.of_secret group_secret) ~batch_size:config.batch_size
          ~exec_threads:config.exec_threads ~footprint ~apply:(apply ~replica:id) ~verify
          ~send:(fun ~dst msg ~tag bodies ->
            Queue.push { origin = id; dst; msg; tag; bodies } t.queue)
          ~reply:(fun ~client msg -> deliver_client t client msg));
  t

let is_crashed t id = List.mem id t.crashed

(* Cluster-level view/primary reads come from a live replica: a crashed
   replica's core is frozen in the old view. *)
let live_host t =
  let rec find i =
    if i >= t.cfg.n then t.hosts.(0) else if is_crashed t i then find (i + 1) else t.hosts.(i)
  in
  find 0

let view t = Core.view (Host.core (live_host t)) ~inst:0

let primary t = Config.primary_of_view t.ccfg (view t)

(* Hand a signed request to the primary, as its client would. *)
let to_primary t (req, signature) =
  let p = primary t in
  if not (is_crashed t p) then ignore (Host.submit t.hosts.(p) req ~signature)

let submit t ~client ~payload =
  let txn_id = t.next_txn in
  t.next_txn <- txn_id + 1;
  let wire_id = Option.value ~default:0 (Hashtbl.find_opt t.next_wire_id client) in
  Hashtbl.replace t.next_wire_id client (wire_id + 1);
  let signature = Wire.sign_request t.client_signer ~client ~txn_id:wire_id ~payload in
  let signed = ({ Host.client; txn_id = wire_id; payload }, signature) in
  Hashtbl.replace t.outstanding (client, wire_id) (txn_id, signed);
  ignore (Client.submit (client_for t client) ~txn_id:wire_id);
  to_primary t signed;
  txn_id

let flush t =
  let p = primary t in
  if not (is_crashed t p) then Host.flush t.hosts.(p)

let step t =
  match Queue.take_opt t.queue with
  | None -> false
  | Some e ->
    (* A crash silences the replica's not-yet-delivered outbound too: its
       queued messages model sends that never made it onto the wire. *)
    if not (is_crashed t e.origin) && not (is_crashed t e.dst) then begin
      (match t.obs_trace with
      | Some tr ->
        t.trace_step <- t.trace_step + 1;
        Trace.complete tr ~pid:e.dst ~tid:0 ~name:(Msg.type_name e.msg)
          ~ts:(t.trace_step * 1000) ~dur:1000
      | None -> ());
      let h = t.hosts.(e.dst) in
      match Host.authenticate h ~seen:t.seen.(e.dst) e.msg ~tag:e.tag with
      | Some msg -> Host.deliver h msg e.bodies
      | None -> t.auth_failures <- t.auth_failures + 1
    end;
    true

let run t =
  while step t do
    ()
  done

let crash t id =
  if id < 0 || id >= t.cfg.n then invalid_arg "Local_runtime.crash: no such replica";
  if not (List.mem id t.crashed) then t.crashed <- id :: t.crashed

let recover t id =
  if id < 0 || id >= t.cfg.n then invalid_arg "Local_runtime.recover: no such replica";
  t.crashed <- List.filter (fun c -> c <> id) t.crashed;
  (* The recovered replica asks for a state transfer right away instead of
     waiting out a full checkpoint interval.  If no peer holds a stable
     certificate yet the request goes unanswered, and the next stable
     checkpoint its own core observes triggers another one. *)
  Host.request_state t.hosts.(id)

let applied t id = Host.applied t.hosts.(id)

let ids_above_watermark t id = Host.ids_above_watermark t.hosts.(id)

let close t = Array.iter (fun h -> Ledger.close (Host.ledger h)) t.hosts
(* Durable backends flush their WAL and persist counters on close, so a
   later [create] over the same [durable_dir] resumes at the tip. *)

let force_view_change t =
  Array.iter (fun h -> if not (is_crashed t (Host.id h)) then Host.suspect h) t.hosts;
  run t;
  (* Requests whose replies never reached the client — still pending at the
     old primary, or admitted into a batch the crash lost — go to the new
     primary, as clients would retransmit them in a networked deployment.
     Completed transactions are no longer outstanding, so they are never
     re-proposed, and verify-sharing makes a re-batched admitted request
     cost a memo-table probe, not a second signature verification. *)
  Hashtbl.fold (fun _ pending acc -> pending :: acc) t.outstanding []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, signed) -> to_primary t signed)

let completed t = List.rev t.completed

let store t id = Host.store t.hosts.(id)

let ledger t id = Host.ledger t.hosts.(id)

let last_executed t id = Core.last_executed (Host.core t.hosts.(id))

let auth_failures t = t.auth_failures

let verify_cache_hits t =
  Array.fold_left (fun acc s -> acc + Vcache.hits s) (Vcache.hits t.verified_reqs) t.seen

let trace_json t = match t.obs_trace with Some tr -> Some (Trace.to_string tr) | None -> None

let inject_forged_message t ~dst =
  let msg = Msg.Prepare { view = view t; seq = 999_999; digest = "forged"; from = 0 } in
  (* The adversary is not a replica: route around the origin-crash drop by
     naming a live replica as the nominal origin. *)
  let origin = Host.id (live_host t) in
  Queue.push { origin; dst; msg; tag = String.make 16 '\x00'; bodies = [] } t.queue

let verify t =
  match List.filter (fun h -> not (is_crashed t (Host.id h))) (Array.to_list t.hosts) with
  | [] -> Error "no live replicas"
  | first :: rest ->
    let cum0 = Ledger.cumulative_digest (Host.ledger first) in
    let state0 = Mem_store.digest (Host.store first) in
    let diverged h what =
      Error
        (Printf.sprintf "replica %d %s diverged from replica %d" (Host.id h) what (Host.id first))
    in
    let rec check = function
      | [] -> Ok ()
      | h :: more ->
        if not (String.equal (Ledger.cumulative_digest (Host.ledger h)) cum0) then
          diverged h "ledger"
        else if not (String.equal (Mem_store.digest (Host.store h)) state0) then diverged h "state"
        else begin
          match
            Ledger.verify (Host.ledger h) ~check_certificate:(fun ~seq:_ ~digest:_ shares ->
                List.length shares >= Config.commit_quorum t.ccfg)
          with
          | Ok () -> check more
          | Error e -> Error (Printf.sprintf "replica %d ledger: %s" (Host.id h) e)
        end
    in
    check rest
