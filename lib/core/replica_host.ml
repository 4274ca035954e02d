module Msg = Rdb_consensus.Message
module Action = Rdb_consensus.Action
module Config = Rdb_consensus.Config
module Core = Rdb_consensus.Core
module St = Rdb_consensus.State_transfer
module Sha256 = Rdb_crypto.Sha256
module Cmac = Rdb_crypto.Cmac
module Vcache = Rdb_crypto.Verify_cache
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger
module Block = Rdb_chain.Block
module Exec_sched = Rdb_replica.Exec_sched

type request = { client : int; txn_id : int; payload : string }

(* The (client, txn_id) keys this replica has executed.  Clients number
   their transactions upward, so one client's set is a watermark, below
   which every id is executed, plus the executed ids above it: its size is
   bounded by how far execution runs out of id order, not by how many
   transactions the client has sent. *)
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

type t = {
  config : Config.t;
  id : int;
  core : Core.t;
  mutable store : Mem_store.t;
  ledger : Ledger.t;
  mac : Cmac.key;  (** group MAC key for replica-to-replica traffic *)
  batch_size : int;
  exec_threads : int;
  footprint : (client:int -> payload:string -> Exec_sched.footprint) option;
  apply : Mem_store.t -> client:int -> payload:string -> string;
  verify : request -> signature:string -> bool;
  send : dst:int -> Msg.t -> tag:string -> request list -> unit;
  reply : client:int -> Msg.t -> unit;
  requests : (int * int, request) Hashtbl.t;  (** bodies held, not yet executed *)
  pending : (int * int) Queue.t;  (** keys awaiting batching *)
  queued : (int * int, unit) Hashtbl.t;
      (** keys this host queued or proposed while leading [view], not yet
          executed: a second submission of one is a duplicate *)
  mutable view : int;
  executed : (int, Executed.client) Hashtbl.t;
  mutable applied : int;  (** highest sequence number applied to [store] *)
  mutable executed_txns : int;
}

let create ~config ~id ~core ~ledger ~mac ~batch_size ~exec_threads ~footprint ~apply ~verify
    ~send ~reply =
  (* A reopened durable ledger already holds a chain: fast-forward the fresh
     core past the persisted tip so ordering resumes there instead of
     re-proposing sequence numbers the chain already contains.  The
     application state restarts empty — the chain is what survives. *)
  let tip = Ledger.next_seq ledger - 1 in
  if tip > 0 then
    ignore (Core.step core (Core.Install_checkpoint { seq = tip; state_digest = "" }));
  {
    config;
    id;
    core;
    store = Mem_store.create ();
    ledger;
    mac;
    batch_size;
    exec_threads;
    footprint;
    apply;
    verify;
    send;
    reply;
    requests = Hashtbl.create 256;
    pending = Queue.create ();
    queued = Hashtbl.create 256;
    view = Core.view core ~inst:0;
    executed = Executed.create ();
    applied = tip;
    executed_txns = 0;
  }

let key (r : request) = (r.client, r.txn_id)

(* Free the body behind one executed reference and remember its key. *)
let take t (r : Msg.request_ref) =
  let k = (r.Msg.client, r.Msg.txn_id) in
  Executed.add t.executed k;
  let body = Hashtbl.find_opt t.requests k in
  Hashtbl.remove t.requests k;
  Hashtbl.remove t.queued k;
  body

let tag_of t msg = Cmac.mac t.mac (Msg.auth_string msg)

(* Pre-prepares ship the bodies of the requests they reference. *)
let bodies_for t = function
  | Msg.Pre_prepare { batch; _ } ->
    List.filter_map
      (fun (r : Msg.request_ref) ->
        Hashtbl.find_opt t.requests (r.Msg.client, r.Msg.txn_id))
      batch.Msg.reqs
  | _ -> []

let send t ~dst msg = t.send ~dst msg ~tag:(tag_of t msg) (bodies_for t msg)

let broadcast t msg =
  let tag = tag_of t msg and bodies = bodies_for t msg in
  for dst = 0 to t.config.Config.n - 1 do
    if dst <> t.id then t.send ~dst msg ~tag bodies
  done

(* Conflict-aware parallel execution of one batch on real OCaml domains.
   Exec_sched partitions the batch into key-disjoint lanes separated by
   barrier rounds.  Mem_store is not thread-safe, so a domain applies its
   lane against a private staging store seeded with the lane's declared
   footprint, and after joining, the main thread merges every declared
   write back.  Within a round the lanes' write sets are disjoint, so the
   merged state equals serial in-order execution, provided [apply] touches
   only declared keys (an undeclared read sees an empty slot, an undeclared
   write is dropped at the merge). *)
let execute_parallel t (lookup : request option array) fp_of =
  let fps =
    Array.map
      (function
        | None -> { Exec_sched.reads = []; writes = [] }
        | Some r -> fp_of ~client:r.client ~payload:r.payload)
      lookup
  in
  let results = Array.make (Array.length lookup) "missing-payload" in
  let run_lane idxs () =
    let staged = Mem_store.create () in
    let seed key = Option.iter (Mem_store.put staged key) (Mem_store.get t.store key) in
    List.iter (fun i -> List.iter seed (fps.(i).Exec_sched.reads @ fps.(i).Exec_sched.writes)) idxs;
    let apply i = Option.map (fun r -> (i, t.apply staged ~client:r.client ~payload:r.payload)) in
    (staged, List.filter_map (fun i -> apply i lookup.(i)) idxs)
  in
  let merge (staged, lane_results) =
    List.iter
      (fun (i, res) ->
        results.(i) <- res;
        List.iter
          (fun key ->
            match Mem_store.get staged key with
            | Some v -> Mem_store.put t.store key v
            | None -> Mem_store.delete t.store key)
          fps.(i).Exec_sched.writes)
      lane_results
  in
  List.iter
    (fun (round : Exec_sched.round) ->
      match List.filter (( <> ) []) (Array.to_list round) with
      | [] -> ()
      | first :: rest ->
        (* Spawn the other lanes and run the first here; merge once all
           have joined, since running lanes still read the shared store. *)
        let spawned = List.map (fun idxs -> Domain.spawn (run_lane idxs)) rest in
        List.iter merge (run_lane first () :: List.map Domain.join spawned))
    (Exec_sched.schedule ~lanes:t.exec_threads fps).Exec_sched.rounds;
  Array.to_list results

(* Execution: apply every request of the batch, then append a block whose
   linkage is the commit certificate (§4.6).  Each body is freed as its
   batch executes; a reference whose body this replica never held (or
   already executed) applies nothing. *)
let execute t (batch : Msg.batch) =
  let lookup = List.map (take t) batch.Msg.reqs in
  t.executed_txns <- t.executed_txns + List.length lookup;
  if batch.Msg.seq <= t.applied then
    (* Already covered by a state transfer: the snapshot included this
       batch's effects, so re-applying would double-execute. *)
    List.map (fun _ -> "state-transferred") lookup
  else begin
    let results =
      match t.footprint with
      | Some fp when t.exec_threads >= 2 -> execute_parallel t (Array.of_list lookup) fp
      | _ ->
        List.map
          (function
            | None -> "missing-payload"
            | Some req -> t.apply t.store ~client:req.client ~payload:req.payload)
          lookup
    in
    let cert = List.init (Config.commit_quorum t.config) (fun i -> (i, "commit-share")) in
    if Ledger.next_seq t.ledger = batch.Msg.seq then
      Ledger.append t.ledger
        {
          Block.seq = batch.Msg.seq;
          view = batch.Msg.view;
          digest = batch.Msg.digest;
          txn_count = List.length batch.Msg.reqs;
          link = Block.Certificate cert;
        };
    t.applied <- max t.applied batch.Msg.seq;
    results
  end

(* What this host queued or proposed belongs to the view it led.  Once the
   view moves on, the queue is dropped: a batch lost in the view change is
   re-proposed by whichever replica leads next, when the request is handed
   to it again. *)
let follow_view t =
  let v = Core.view t.core ~inst:0 in
  if v <> t.view then begin
    t.view <- v;
    Queue.clear t.pending;
    Hashtbl.reset t.queued
  end

let rec dispatch t actions =
  List.iter
    (fun (_inst, a) ->
      match a with
      | Action.Broadcast m -> broadcast t m
      | Action.Send (dst, m) -> send t ~dst m
      | Action.Send_client (client, m) -> t.reply ~client m
      | Action.Execute batch ->
        let results = execute t batch in
        (* Per-request results travel in the Reply actions the core emits
           once it learns the batch executed; the batch's agreed result is
           a digest over them. *)
        let result = Sha256.hex (String.sub (Sha256.digest (String.concat "|" results)) 0 8) in
        step t
          (Core.Executed { seq = batch.Msg.seq; state_digest = Mem_store.digest t.store; result })
      | Action.Stable_checkpoint seq ->
        (* A replica behind the stable checkpoint (it was crashed, or
           joined late) catches up through state transfer: it broadcasts a
           State_request, and any peer holding the certificate answers with
           its retained chain segment plus an application-state export. *)
        if t.applied < seq || Ledger.next_seq t.ledger <= seq then
          broadcast t (St.request t.ledger ~from:t.id)
        else begin
          (* The ledger records the digest the certificate agreed on: the
             store may already reflect batches past [seq]. *)
          (match Core.stable_certificate t.core with
          | Some (s, state_digest, _) when s = seq -> Ledger.checkpoint t.ledger ~seq ~state_digest
          | _ -> ());
          ignore (Ledger.prune_below t.ledger seq)
        end)
    actions

and step t input =
  dispatch t (Core.step t.core input);
  follow_view t

let form_batches t ~force =
  if Core.leads_any t.core then begin
    (* Keys whose request executed since they were queued (a batch the
       view change carried over) drop out here. *)
    let rec pop k acc =
      if k = 0 || Queue.is_empty t.pending then List.rev acc
      else
        match Hashtbl.find_opt t.requests (Queue.pop t.pending) with
        | Some req -> pop (k - 1) (req :: acc)
        | None -> pop k acc
    in
    let propose reqs =
      if reqs <> [] then begin
        let payloads = List.map (fun r -> r.payload) reqs in
        (* One string representation of the whole batch, hashed once. *)
        let digest = Sha256.digest (String.concat "\x00" payloads) in
        let refs = List.map (fun r -> { Msg.client = r.client; txn_id = r.txn_id }) reqs in
        let wire_bytes = List.fold_left (fun acc p -> acc + String.length p) 0 payloads in
        let _, actions, _ = Core.propose t.core ~reqs:refs ~digest ~wire_bytes in
        dispatch t actions
      end
    in
    while Queue.length t.pending >= t.batch_size do
      propose (pop t.batch_size [])
    done;
    if force && not (Queue.is_empty t.pending) then propose (pop (Queue.length t.pending) [])
  end

let submit t req ~signature =
  let k = key req in
  let admitted =
    (not (Executed.mem t.executed k)) && (not (Hashtbl.mem t.queued k)) && t.verify req ~signature
  in
  if admitted then begin
    Hashtbl.replace t.requests k req;
    (* A backup only holds the body, for the Pre-prepare that will order it. *)
    if Core.leads_any t.core then begin
      Hashtbl.replace t.queued k ();
      Queue.push k t.pending;
      form_batches t ~force:false
    end
  end;
  admitted

let flush t = form_batches t ~force:true

(* Donor side of a state transfer: the stable-checkpoint certificate, the
   retained chain segment, and a full export of the application store (the
   requester cannot rebuild application state from block metadata). *)
let serve_state t ~low ~requester =
  let app_export = ref [] in
  Mem_store.iter t.store (fun k v -> app_export := (k, v) :: !app_export);
  match
    St.serve t.ledger ~stable:(Core.stable_certificate t.core) ~low ~from:t.id ~app_seq:t.applied
      ~app_export:!app_export
  with
  | Some resp -> send t ~dst:requester resp
  | None -> ()

(* Requester side: verify the certificate and segment, install the chain,
   rebuild the application store from the export and fast-forward the core.
   A donor exactly level with our ledger (possible when a durable chain
   survived a restart that the in-memory store did not) cannot advance the
   ledger, but its verified export still restores the application state. *)
let admit_state t msg =
  let quorum = Config.commit_quorum t.config in
  let import ~app_seq ~app_export =
    if app_seq > t.applied then begin
      let st = Mem_store.create () in
      List.iter (fun (k, v) -> Mem_store.put st k v) app_export;
      t.store <- st;
      t.applied <- app_seq
    end
  in
  let install_core ~seq ~state_digest =
    ignore (Core.step t.core (Core.Install_checkpoint { seq; state_digest }))
  in
  if not (St.admit ~commit_quorum:quorum t.ledger ~install_core ~import msg) then
    match msg with
    | Msg.State_response { last_stable; state_digest; cert; blocks; app_seq; app_export; _ } -> (
      match St.verify ~commit_quorum:quorum ~last_stable ~state_digest ~cert ~blocks with
      | Ok () when app_seq > t.applied ->
        import ~app_seq ~app_export;
        install_core ~seq:last_stable ~state_digest
      | Ok () | Error _ -> ())
    | _ -> ()

type authenticated = Msg.t

(* With [seen], the memo key covers the authenticated content and the tag,
   so only an exact re-delivery hits; a forged tag always reaches the CMAC,
   and only an accepted message is remembered. *)
let authenticate t ?seen msg ~tag =
  let auth = Msg.auth_string msg in
  let ok =
    match seen with
    | None -> Cmac.verify t.mac auth ~tag
    | Some seen ->
      let memo = auth ^ "\x00" ^ tag in
      Vcache.mem seen memo
      ||
      let ok = Cmac.verify t.mac auth ~tag in
      if ok then Vcache.add seen memo ();
      ok
  in
  if ok then Some msg else None

let deliver t msg bodies =
  List.iter
    (fun r ->
      let k = key r in
      if not (Hashtbl.mem t.requests k || Executed.mem t.executed k) then
        Hashtbl.replace t.requests k r)
    bodies;
  match msg with
  (* State transfer moves ledger segments and application state, which the
     core never holds: both sides are handled here. *)
  | Msg.State_request { low; from } -> serve_state t ~low ~requester:from
  | Msg.State_response _ -> admit_state t msg
  | _ -> step t (Core.Deliver { inst = 0; msg })

let suspect t = step t (Core.Suspect 0)

let request_state t = broadcast t (St.request t.ledger ~from:t.id)

let id t = t.id
let core t = t.core
let store t = t.store
let ledger t = t.ledger
let applied t = t.applied
let executed_txns t = t.executed_txns
let held t = Hashtbl.length t.requests
let ids_above_watermark t =
  Hashtbl.fold (fun _ c acc -> acc + Hashtbl.length c.Executed.above) t.executed 0
let queued t = Hashtbl.length t.queued
