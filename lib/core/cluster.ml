(** The ResilientDB cluster under simulation.

    This module assembles the whole system of the paper's Fig. 5/6: per
    replica, the input-threads, batch-threads ([B]), worker-thread,
    execute-thread ([E]), output-threads and checkpoint-thread are
    {!Rdb_replica.Stage} pipelines over a core-limited CPU; the pure
    {!Rdb_consensus} protocol cores make the protocol decisions; the
    {!Rdb_net} transport carries sized messages; and a closed-loop client
    population (the paper's up-to-80K clients on a handful of machines)
    drives load and measures end-to-end latency.

    Everything stochastic flows from one seed: runs are bit-reproducible. *)

module Sim = Rdb_des.Sim
module Rng = Rdb_des.Rng
module Cpu = Rdb_des.Cpu
module Stats = Rdb_des.Stats
module Stage = Rdb_replica.Stage
module Net = Rdb_net.Net
module Signer = Rdb_crypto.Signer
module Cost = Rdb_crypto.Cost_model
module Vcache = Rdb_crypto.Verify_cache
module Msg = Rdb_consensus.Message
module Action = Rdb_consensus.Action
module Config = Rdb_consensus.Config
module Core = Rdb_consensus.Core
module St = Rdb_consensus.State_transfer
module Block = Rdb_chain.Block
module Ledger = Rdb_chain.Ledger
module Trace = Rdb_obs.Trace
module Breakdown = Rdb_obs.Breakdown
module Series = Rdb_obs.Series
module Stage_name = Rdb_obs.Stage_name
module Exec_sched = Rdb_replica.Exec_sched
module Ycsb = Rdb_workload.Ycsb
module Zipf = Rdb_workload.Zipf

(* ---- wire-level events --------------------------------------------------- *)

(** How a byzantine sender corrupted a protocol message in flight. *)
type tamper =
  | Forged_mac  (** the MAC/signature does not verify *)
  | Corrupted_digest
      (** the MAC verifies (the attacker authenticates its own garbage) but
          the carried batch digest does not match the batch content *)

type net_msg =
  | To_replica of int * Msg.t
      (** (consensus instance, message): multi-primary deployments tag
          protocol traffic with the instance it belongs to (always 0 for a
          single-instance run) *)
  | Tampered of { kind : tamper; inner : net_msg }
      (** a byzantine sender's corrupted copy of a message (protocol
          traffic or client-bound replies); the receiver pays the full
          verification price, rejects it before the consensus core or the
          client's reply quorum ever sees it, and never memoizes the
          failure *)
  | Client_txns of { txn_ids : int array }
      (** a group of independent single-transaction client requests arriving
          together (clients are simulated in aggregate; costs are charged
          per transaction) *)
  | Replies of {
      replica : int;
      view : int;
      seq : int;
      key_digest : string;  (** result digest (PBFT) or history (Zyzzyva) *)
      txn_ids : int array;
      speculative : bool;
    }
  | Certs of { seq : int; history : string; count : int }
      (** Zyzzyva commit certificates from [count] clients of one batch *)
  | Cert_acks of { replica : int; seq : int; history : string; count : int }

(* ---- per-replica host ----------------------------------------------------- *)

type host = {
  id : int;
  cpu : Cpu.t;
  input_client : Stage.t;
  input_replica : Stage.t;
  output : Stage.t;
  batch_stage : Stage.t option;  (** None when B = 0: the worker batches *)
  worker : Stage.t;  (** consensus instance 0 (the only one when k = 1) *)
  extra_workers : Stage.t array;
      (** multi-primary: one worker-thread per additional consensus instance
          (index i serves instance i+1), so the k ordering streams stop
          sharing the single serial worker — the whole point of the
          parallelism.  Empty when k = 1 *)
  exec_stage : Stage.t option;  (** None when E = 0: the worker executes *)
  exec_lanes : Stage.t array;
      (** conflict-aware parallel execution (E >= 2): one execute stage
          per lane
          ("execute-0" .. "execute-(E-1)"), fed round by round from the
          {!Rdb_replica.Exec_sched} plan.  Empty on the classic pipeline,
          where [exec_stage] carries the single execute-thread *)
  exec_sched_stage : Stage.t option;
      (** the lane dispatcher ("exec-sched"): dependency-analyzes each
          committed block, re-validates it at the execute boundary, and
          assembles the block after the last round.  [Some] iff
          [exec_lanes] is non-empty *)
  exec_queue : Msg.batch Queue.t;
      (** blocks committed (in global order) but not yet handed to the
          lanes: blocks execute one at a time, rounds barrier inside a
          block, so in-order ledger appends are preserved by construction *)
  mutable exec_busy : bool;  (** a block currently owns the lanes *)
  checkpoint_stage : Stage.t;
  core : Core.t;  (** the protocol state machine, behind {!Rdb_consensus.Core} *)
  pending : Pending.t;
      (** client transactions awaiting batching (a backup's copy is the
          demand its watchdog tracks); it knows which ids executed or are in
          flight here only under retransmission *)
  mutable flush_scheduled : bool;
  mutable batch_jobs_inflight : int;
      (** batch jobs queued or running; bounded so batching interleaves with
          the rest of the stage's work instead of monopolising it (critical
          when B = 0 and the worker-thread does everything) *)
  ledger : Ledger.t;
  cert_counts : (int, int) Hashtbl.t;  (** seq -> clients awaiting cert acks *)
  mutable batch_counter : int;
  (* ---- liveness under faults ---- *)
  mutable seen_view : int;  (** last view observed on this host's core *)
  mutable vc_timer : Sim.event option;
      (** backup: armed while retransmitted demand is unserved; fires a
          view-change suspicion *)
  mutable last_exec_seen : int;
      (** execution watermark at the last demand-timer check: distinguishes a
          slow-but-live pipeline from a stalled one *)
  mutable nudged : bool;
      (** one vote-retransmission round has run since the last progress;
          the next stalled check escalates to a view change *)
  (* ---- state transfer ---- *)
  mutable st_outstanding : bool;
      (** a State_request is in flight: re-broadcast on the demand-timer
          cadence until a response lands (or the retry budget runs out) *)
  mutable st_tries : int;  (** re-broadcasts left for the outstanding request *)
  (* ---- verify-sharing (Q2) ---- *)
  vcache : unit Vcache.t;
      (** signature/MAC verifications this host has accepted, keyed by the
          full authenticated content *)
  dcache : unit Vcache.t;
      (** batch digests this host has computed or validated *)
}

(* ---- client-pool bookkeeping ---------------------------------------------- *)

(* ---- observability -------------------------------------------------------- *)

(* Per-transaction span marks, first-write-wins (-1 = unset): with several
   replicas executing the same batch, the earliest occurrence of each phase
   transition is the one the client-visible latency decomposes over. *)
type mark = {
  mutable m_proposed : Sim.time;  (** batched into a proposed consensus instance *)
  mutable m_exec_enq : Sim.time;  (** first Execute action routed *)
  mutable m_executed : Sim.time;  (** first execution job finished *)
}

type obs = {
  trace : Trace.t;
  bd : Breakdown.t;
  span_batch : Stats.t;  (** client submit -> batch proposed *)
  span_consensus : Stats.t;  (** proposed -> Execute action emitted *)
  span_execute : Stats.t;  (** Execute emitted -> execution done *)
  span_reply : Stats.t;  (** execution done -> client completion *)
  marks : (int, mark) Hashtbl.t;  (** txn id -> span marks *)
  mutable series : Series.t option;  (** tied after the network exists *)
}

type batch_track = {
  bt_txn_ids : int array;
  mutable reply_mask : int;
  mutable completed : bool;
  mutable zyz_timer : Sim.event option;
  mutable certified : bool;
  mutable ack_mask : int;
}

type t = {
  p : Params.t;
  sim : Sim.t;
  rng : Rng.t;
  cfg : Config.t;
  mutable net : net_msg Net.t option;  (** tied after creation *)
  hosts : host array;
  client_nodes : int array;  (** network node ids of the client machines *)
  mutable client_rr : int;
  inst_views : int array;
      (** per consensus instance, the highest view seen in any reply: the
          clients' primary hint for that instance (length = instances) *)
  mutable submit_rr : int;  (** round-robin instance cursor for submissions *)
  (* client pool *)
  submit_time : (int, Sim.time) Hashtbl.t;
  batches : (int * int * string, batch_track) Hashtbl.t;
  mutable next_txn : int;
  mutable proposed_batches : int;
  mutable completed_batches : int;
  (* fault handling *)
  retrans_enabled : bool;
  mutable client_view : int;  (** highest view seen in any reply: primary hint *)
  mutable max_view : int;  (** highest view reached by any host *)
  mutable retransmissions : int;
  mutable duplicate_completions : int;
  mutable primary_crash_at : Sim.time option;
  mutable crash_view : int;  (** view at the moment the primary crashed *)
  mutable recovered_at : Sim.time option;
  (* byzantine adversary (the nemesis interposition layer) *)
  behaviors : Nemesis.behavior array;
      (** per replica, the adversarial behavior currently installed on its
          outbound links (index < n; honest by default) *)
  behavior_gen : int array;
      (** bumped on every behavior change so a superseded view-change spam
          loop notices and stops rescheduling itself *)
  mutable rejected_forgeries : int;
      (** tampered messages rejected at receivers, cluster-wide *)
  mutable spam_salt : int;  (** varies the view numbers a spammer fabricates *)
  (* state transfer *)
  mutable state_transfers : int;  (** successful installs, cluster-wide *)
  mutable st_first_request : Sim.time option;  (** first State_request sent *)
  mutable st_caught_up : Sim.time option;  (** first successful install *)
  data_root : string option;  (** durable backends live under here (per replica) *)
  footprint_of : (int -> Exec_sched.footprint) Lazy.t;
      (** the YCSB read/write footprint of a transaction — a pure function
          of its id (every replica derives the identical footprint, the
          root of the deterministic-schedule argument).  Lazy because the
          Zipf table costs O(exec_records) to build and only parallel
          execution needs it *)
  (* observability; None unless Params.obs_enabled *)
  obs : obs option;
  (* measurement *)
  latencies : Stats.t;
  mutable on_complete : (int array -> unit) option;
      (** replaces the closed-loop resubmission when set: fresh completions
          are handed to the sink (a shard deployment's routing loop)
          instead of being resubmitted locally *)
  mutable measuring : bool;
  mutable completed_txns : int;
  mutable total_completed : int;  (** fresh completions since start (any window) *)
  mutable completed_ops : int;
  mutable fast_txns : int;
  mutable cert_txns : int;
  mutable blocks_at_start : int;
}

let net t = match t.net with Some n -> n | None -> assert false

let primary_id = 0

let txn_request_bytes p =
  p.Params.txn_wire_bytes + Signer.signature_size p.Params.client_scheme

let reply_bytes p =
  64 + Signer.signature_size p.Params.reply_scheme

let cert_bytes p ~quorum =
  96 + (quorum * (Signer.signature_size p.Params.client_scheme + 8))

let batch_wire_bytes p k = (k * p.Params.txn_wire_bytes) + p.Params.preprepare_payload_bytes

(* ---- cost helpers --------------------------------------------------------- *)

(* Signing cost charged on the stage that creates a message.  MAC schemes
   authenticate per receiver (a MAC authenticator vector, as in PBFT), so a
   broadcast pays n-1 MAC computations; digital signatures are
   receiver-independent. *)
let sign_cost_for p ~dests scheme =
  let c = Cost.sign_cost p.Params.cost scheme in
  match scheme with
  | Signer.Cmac_aes -> c * dests
  | Signer.No_sig | Signer.Ed25519 | Signer.Rsa -> c

let scheme_of_message p (m : Msg.t) =
  match m with
  | Msg.Reply _ | Msg.Spec_reply _ | Msg.Local_commit _ -> p.Params.reply_scheme
  | _ -> p.Params.replica_scheme

(* ---- execution footprints -------------------------------------------------- *)

(* The read/write footprint of a transaction, derived as the YCSB workload
   generator draws it: [ops_per_txn] Zipfian keys over the active record
   set (write-only — the paper's blockchain mix, §5.1).  Purity is the
   load-bearing property: the footprint depends only on the transaction id
   and the run parameters — never on replica-local state or the cluster
   RNG — so all n replicas derive identical footprints from an identical
   committed block and therefore compute identical lane schedules. *)
let make_footprint_fn (p : Params.t) : int -> Exec_sched.footprint =
  let zipf = Zipf.create ~n:p.Params.exec_records () in
  fun txn_id ->
    (* A private RNG per transaction, seeded from the id: deterministic,
       with adjacent ids still getting decorrelated key draws. *)
    let rng = Rng.create (Int64.logxor (Int64.of_int txn_id) 0x5265736442457865L) in
    let writes =
      List.init p.Params.ops_per_txn (fun _ -> Ycsb.key_of_index (Zipf.sample zipf rng))
    in
    { Exec_sched.reads = []; writes }

(* ---- forward declarations via refs --------------------------------------- *)

(* The delivery callback needs the cluster; the cluster needs the network.
   We tie the knot with a mutable option. *)

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(* ---- observability helpers ------------------------------------------------ *)

(* First-write-wins span marks.  Called only on the (rare relative to the
   fast path) batch-boundary events, and only when tracing is on. *)

let obs_mark_proposed t txns =
  match t.obs with
  | None -> ()
  | Some o ->
    let now = Sim.now t.sim in
    Array.iter
      (fun id ->
        match Hashtbl.find_opt o.marks id with
        | Some m -> if m.m_proposed < 0 then m.m_proposed <- now
        | None ->
          Hashtbl.add o.marks id { m_proposed = now; m_exec_enq = -1; m_executed = -1 })
      txns

let obs_mark_exec_enqueued t (reqs : Msg.request_ref list) =
  match t.obs with
  | None -> ()
  | Some o ->
    let now = Sim.now t.sim in
    List.iter
      (fun (r : Msg.request_ref) ->
        match Hashtbl.find_opt o.marks r.Msg.txn_id with
        | Some m -> if m.m_exec_enq < 0 then m.m_exec_enq <- now
        | None -> ())
      reqs

let obs_mark_executed t (reqs : Msg.request_ref list) =
  match t.obs with
  | None -> ()
  | Some o ->
    let now = Sim.now t.sim in
    List.iter
      (fun (r : Msg.request_ref) ->
        match Hashtbl.find_opt o.marks r.Msg.txn_id with
        | Some m -> if m.m_executed < 0 then m.m_executed <- now
        | None -> ())
      reqs

(* The ids of [ids] still awaiting a reply quorum, in order: [ids] itself
   when none has completed, else a fresh array of exactly the survivors. *)
let awaiting_reply t ids =
  let k = Array.fold_left (fun k id -> if Hashtbl.mem t.submit_time id then k + 1 else k) 0 ids in
  if k = Array.length ids then ids
  else begin
    let out = Array.make k 0 and j = ref 0 in
    Array.iter
      (fun id ->
        if Hashtbl.mem t.submit_time id then begin
          out.(!j) <- id;
          incr j
        end)
      ids;
    out
  end

(* Record the per-phase latency split for freshly completed transactions and
   drop their marks.  Only transactions whose marks are complete and in
   order contribute (in a healthy traced run that is all of them), so the
   four phases telescope exactly to the end-to-end latency. *)
let obs_complete t fresh =
  match t.obs with
  | None -> ()
  | Some o ->
    let now = Sim.now t.sim in
    Array.iter
      (fun id ->
        (if t.measuring then
           match (Hashtbl.find_opt o.marks id, Hashtbl.find_opt t.submit_time id) with
           | Some m, Some s
             when m.m_proposed >= s && m.m_exec_enq >= m.m_proposed
                  && m.m_executed >= m.m_exec_enq && now >= m.m_executed ->
             Stats.add o.span_batch (Sim.to_seconds (m.m_proposed - s));
             Stats.add o.span_consensus (Sim.to_seconds (m.m_exec_enq - m.m_proposed));
             Stats.add o.span_execute (Sim.to_seconds (m.m_executed - m.m_exec_enq));
             Stats.add o.span_reply (Sim.to_seconds (now - m.m_executed))
           | _ -> ());
        Hashtbl.remove o.marks id)
      fresh

let obs_instant t name =
  match t.obs with None -> () | Some o -> Trace.instant o.trace ~name

(* ---- fault-tolerance helpers ---------------------------------------------- *)

let core_view (h : host) = Core.max_view h.core

let core_last_exec (h : host) = Core.last_executed h.core

let is_host_primary (h : host) = Core.leads_any h.core

(* The worker-thread serving one consensus instance on this host (instance
   0 is the classic single worker). *)
let worker_for (h : host) inst = if inst = 0 then h.worker else h.extra_workers.(inst - 1)

(* Highest view any host has installed on one consensus instance (crashed
   hosts included: their last-known view still bounds the primary guess). *)
let instance_view t inst =
  Array.fold_left (fun acc h -> max acc (Core.view h.core ~inst)) 0 t.hosts

(* The replica the clients currently believe leads one instance (learned
   from the view field of replies). *)
let believed_primary_of t inst =
  if t.p.Params.instances = 1 then Config.primary_of_view t.cfg t.client_view
  else (t.inst_views.(inst) + (inst mod t.p.Params.n)) mod t.p.Params.n

let current_instance_primary t inst =
  let inst = ((inst mod t.p.Params.instances) + t.p.Params.instances) mod t.p.Params.instances in
  if t.p.Params.instances = 1 then Config.primary_of_view t.cfg t.max_view
  else (instance_view t inst + (inst mod t.p.Params.n)) mod t.p.Params.n

let current_primary t =
  if t.p.Params.instances = 1 then Config.primary_of_view t.cfg t.max_view
  else current_instance_primary t 0

let mark_primary_crash t =
  if t.primary_crash_at = None then begin
    t.primary_crash_at <- Some (Sim.now t.sim);
    t.crash_view <- t.max_view;
    t.recovered_at <- None
  end

(* ---- verify-sharing (Q2) --------------------------------------------------- *)

(* Cost of checking a verification (or digest) whose full cost would be
   [full], against a memo table [cache] under key [key].  With verify-sharing
   a key seen before costs one cache probe; a fresh key pays [full] and is
   recorded.  Free operations (No_sig schemes, zeroed cost models) bypass the
   cache entirely so the ablation flag cannot perturb a costless run. *)
let shared_charge (p : Params.t) cache ~key ~full =
  if full = 0 then 0
  else if not p.Params.verify_sharing then full
  else if Vcache.check cache key () then p.Params.cost.Cost.cache_lookup
  else full

(* ---- replica-side processing ---------------------------------------------- *)

let rec core_handle t (h : host) (stage : Stage.t) ~inst (m : Msg.t) =
  emit_tagged t h stage (Core.step h.core (Core.Deliver { inst; msg = m }));
  note_view t h

(* A view advance observed on [h]'s core: cancel the demand timer, reopen
   admission control (batches proposed by the dead primary never complete),
   and if [h] is the new primary, start serving its queue. *)
and note_view t (h : host) =
  let v = core_view h in
  if v > h.seen_view then begin
    h.seen_view <- v;
    if v > t.max_view then begin
      obs_instant t (Printf.sprintf "view change: v%d (replica %d)" v h.id);
      t.max_view <- v;
      t.proposed_batches <- t.completed_batches
    end;
    (match h.vc_timer with
    | Some ev ->
      Sim.cancel ev;
      h.vc_timer <- None
    | None -> ());
    h.nudged <- false;
    if is_host_primary h then try_form_batches t h
    else if t.retrans_enabled then begin
      (* Demand that survived the view change re-arms the timer: the new
         primary gets [view_timeout] to serve it or is suspected in turn. *)
      Pending.compact h.pending;
      if not (Pending.is_empty h.pending) then note_demand t h
    end
  end

(* Arm the demand timer: this backup holds client transactions the primary
   should be serving.  If execution does not absorb them within
   [view_timeout], suspect the primary (PBFT's liveness trigger). *)
and note_demand t (h : host) =
  if Core.demand_driven h.core then
    if h.vc_timer = None && not (Net.is_crashed (net t) h.id) then begin
      h.last_exec_seen <- core_last_exec h;
      h.vc_timer <- Some (Sim.schedule t.sim ~after:t.p.Params.view_timeout (fun () -> vc_check t h))
    end

(* The demand timer escalates in three steps rather than suspecting the
   primary outright: progress since the last check means the pipeline is
   live (just keep watching); a first stall retransmits this replica's votes
   for the stuck slot, which under message loss usually refills the quorum;
   only a second consecutive stall concludes the primary itself is the
   problem and starts a view change. *)
and vc_check t (h : host) =
  h.vc_timer <- None;
  if Core.demand_driven h.core then begin
    Pending.compact h.pending;
    (* The core names the instance to escalate against — the blocked one in
       a multi-primary run, the (single) primary's instance otherwise, none
       when this host leads everything there is to lead or holds no demand.
       [inflight] covers transactions this host already batched onto its own
       instances: those cannot complete until the blocked instance plugs the
       global merge hole, so they keep the escalation alive even though
       [pending] is empty. *)
    match
      Core.escalation h.core
        ~pending:(not (Pending.is_empty h.pending))
        ~inflight:(Pending.inflight h.pending > 0)
    with
    | None -> ()
    | Some inst ->
      let stage = worker_for h inst in
      let service = t.p.Params.cost.Cost.msg_handle in
      let step input =
        Stage.enqueue stage ~service (fun () ->
            emit_tagged t h stage (Core.step h.core input))
      in
      (if Core.in_view_change h.core ~inst then step (Core.Vc_retransmit inst)
       else if Core.leads h.core ~inst then
         (* We lead the blocked instance ourselves, so there is no one to
            suspect: plug its frontier with no-op keepalive batches instead
            (after taking over a deposed instance, the unserved demand was
            re-batched by the live instances, so real holes remain with no
            real transactions to fill them). *)
         step (Core.Keepalive inst)
       else begin
         let exec = core_last_exec h in
         if exec > h.last_exec_seen then begin
           h.last_exec_seen <- exec;
           h.nudged <- false
         end
         else if not h.nudged then begin
           h.nudged <- true;
           step (Core.Nudge inst)
         end
         else begin
           h.nudged <- false;
           step (Core.Suspect inst)
         end
       end);
      note_demand t h
  end

(* Returns instance-tagged actions; [seq] is global (= local for k = 1). *)
and core_executed _t (h : host) ~seq ~state_digest ~result =
  Core.step h.core (Core.Executed { seq; state_digest; result })

(* Route protocol actions.  [stage] is the stage whose thread produced the
   actions; message-creation (signing) costs are charged there via a
   continuation job when needed.  Each action is tagged with the consensus
   instance it belongs to (always 0 outside multi-primary runs), so wire
   messages reach the same instance on the receiving replica. *)
and emit_tagged t (h : host) (stage : Stage.t) tagged =
  if tagged = [] then ()
  else begin
    let p = t.p in
    (* Split client replies out: they are aggregated per batch. *)
    let sign_ns = ref 0 in
    let sends = ref [] in
    let replies = ref [] in
    let execs = ref [] in
    List.iter
      (fun (inst, a) ->
        match a with
        | Action.Broadcast m ->
          sign_ns := !sign_ns + sign_cost_for p ~dests:(p.Params.n - 1) (scheme_of_message p m);
          sends := `Bcast (inst, m) :: !sends
        | Action.Send (dst, m) ->
          sign_ns := !sign_ns + sign_cost_for p ~dests:1 (scheme_of_message p m);
          sends := `One (inst, dst, m) :: !sends
        | Action.Send_client (_, m) -> begin
          match m with
          | Msg.Reply _ | Msg.Spec_reply _ ->
            sign_ns := !sign_ns + sign_cost_for p ~dests:1 p.Params.reply_scheme;
            replies := m :: !replies
          | Msg.Local_commit { seq; _ } ->
            (* One core-level ack stands for the whole client group of the
               certificate; scale its cost by the group size. *)
            let count =
              match Hashtbl.find_opt h.cert_counts seq with Some c -> c | None -> 1
            in
            Hashtbl.remove h.cert_counts seq;
            sign_ns := !sign_ns + (count * sign_cost_for p ~dests:1 p.Params.reply_scheme);
            sends := `Cert_ack (seq, m, count) :: !sends
          | _ -> ()
        end
        | Action.Execute b -> execs := b :: !execs
        | Action.Stable_checkpoint s -> host_stable_checkpoint t h ~seq:s)
      tagged;
    (* Executions are routed immediately: the cores emit them in strict
       sequence order and a delayed routing job could interleave with a
       later emit and break that order. *)
    List.iter (fun b -> enqueue_execute t h b) (List.rev !execs);
    let route () =
      List.iter
        (fun s ->
          match s with
          | `Bcast (inst, m) ->
            for dst = 0 to p.Params.n - 1 do
              if dst <> h.id then output_send t h dst ~inst m
            done
          | `One (inst, dst, m) -> output_send t h dst ~inst m
          | `Cert_ack (seq, m, count) -> output_send_cert_ack t h ~seq ~msg:m ~count)
        (List.rev !sends);
      match !replies with
      | [] -> ()
      | rs -> output_send_replies t h rs
    in
    if !sends = [] && !replies = [] then ()
    else if !sign_ns > 0 then Stage.enqueue stage ~service:!sign_ns route
    else route ()
  end

(* A stable checkpoint reached this host's core.  Normally: persist the
   checkpoint (a real fsync'd WAL/B-tree flush on a durable backend, a
   no-op in memory) and prune the retained chain below it.  But when this
   host's ledger is missing blocks at or below the horizon the cluster is
   about to garbage-collect — it adopted the checkpoint from a quorum
   without ever executing the gap — those blocks can no longer arrive by
   retransmission: fetch them in O(gap) via state transfer instead. *)
and host_stable_checkpoint t (h : host) ~seq =
  if t.retrans_enabled && Ledger.next_seq h.ledger <= seq then request_state_transfer t h
  else begin
    Ledger.checkpoint h.ledger ~seq ~state_digest:("state-" ^ string_of_int seq);
    ignore (Ledger.prune_below h.ledger seq);
    if Ledger.is_durable h.ledger then begin
      (* Charge the checkpoint flush (B-tree meta write + WAL rewrite of the
         retained segment) on the checkpoint-thread: real durability cost,
         off the consensus critical path — the paper's Fig. 14 lesson. *)
      let p = t.p in
      let bytes =
        List.length (Ledger.retained h.ledger)
        * (64 + Msg.digest_bytes + (Config.commit_quorum t.cfg * 16))
      in
      Stage.enqueue h.checkpoint_stage
        ~service:(Cost.serialize_cost p.Params.cost ~bytes + p.Params.cost.Cost.hash_base)
        (fun () -> ())
    end
  end

(* ---- state transfer --------------------------------------------------------- *)

(* Start (or refresh) a state-transfer request from [h]: broadcast a
   State_request carrying our next ledger sequence, and re-broadcast on the
   demand-timer cadence until a response installs (request and response are
   both lossy).  The retry budget keeps an unanswerable request — no peer
   holds a certificate yet — from ringing forever; the next stable
   checkpoint re-triggers if the gap persists. *)
and request_state_transfer t (h : host) =
  if not h.st_outstanding then begin
    h.st_outstanding <- true;
    h.st_tries <- 8;
    if t.st_first_request = None then t.st_first_request <- Some (Sim.now t.sim);
    obs_instant t (Printf.sprintf "state transfer: replica %d requests from %d" h.id
                     (Ledger.next_seq h.ledger));
    send_state_request t h
  end

and send_state_request t (h : host) =
  if h.st_outstanding && h.st_tries > 0 && not (Net.is_crashed (net t) h.id) then begin
    h.st_tries <- h.st_tries - 1;
    let p = t.p in
    let m = St.request h.ledger ~from:h.id in
    let service =
      sign_cost_for p ~dests:(p.Params.n - 1) p.Params.replica_scheme
      + p.Params.cost.Cost.msg_handle
    in
    Stage.enqueue h.checkpoint_stage ~service (fun () ->
        for dst = 0 to p.Params.n - 1 do
          if dst <> h.id then output_send t h dst ~inst:0 m
        done);
    ignore (Sim.schedule t.sim ~after:p.Params.view_timeout (fun () -> send_state_request t h))
  end

(* Donor side: answer with our stable-checkpoint certificate and retained
   chain segment, if we hold a certificate and are actually ahead. *)
and serve_state_request t (h : host) ~low ~requester =
  match
    St.serve h.ledger ~stable:(Core.stable_certificate h.core) ~low ~from:h.id
      ~app_seq:(core_last_exec h) ~app_export:[]
  with
  | None -> ()
  | Some resp -> output_send t h requester ~inst:0 resp

(* Requester side: verify and install; on success the core fast-forwards to
   the donor's stable checkpoint and the ledger to the donor's tip — the
   remaining distance arrives through the normal protocol path. *)
and admit_state_response t (h : host) (m : Msg.t) =
  if h.st_outstanding then begin
    let installed =
      St.admit ~commit_quorum:(Config.commit_quorum t.cfg) h.ledger
        ~install_core:(fun ~seq ~state_digest ->
          ignore (Core.step h.core (Core.Install_checkpoint { seq; state_digest })))
        m
    in
    if installed then begin
      h.st_outstanding <- false;
      t.state_transfers <- t.state_transfers + 1;
      if t.st_caught_up = None then t.st_caught_up <- Some (Sim.now t.sim);
      obs_instant t (Printf.sprintf "state transfer: replica %d installed through %d" h.id
                       (Ledger.next_seq h.ledger - 1));
      note_view t h
    end
    else if St.stale h.ledger m then
      (* A well-formed response from a donor no further along than we are:
         the cluster holds nothing newer, stop asking. *)
      h.st_outstanding <- false
  end

(* Send one protocol message to a peer replica through an output-thread. *)
and output_send t (h : host) dst ~inst (m : Msg.t) =
  let p = t.p in
  let bytes = Msg.wire_size ~sig_bytes:(Signer.signature_size (scheme_of_message p m)) m in
  let service = Cost.serialize_cost p.Params.cost ~bytes + p.Params.cost.Cost.out_handle in
  Stage.enqueue h.output ~service (fun () ->
      Net.send (net t) ~src:h.id ~dst ~bytes (To_replica (inst, m)))

(* Replies for one executed batch, aggregated into a single network event
   per client machine round-robin slot (every transaction's completion is
   still tracked individually by the pool). *)
and output_send_replies t (h : host) (rs : Msg.t list) =
  let p = t.p in
  let k = List.length rs in
  let view, seq, key_digest, speculative, txn_ids =
    match rs with
    | Msg.Reply { view; seq; _ } :: _ ->
      ( view,
        seq,
        "",
        false,
        Array.of_list
          (List.filter_map (function Msg.Reply { txn_id; _ } -> Some txn_id | _ -> None) rs) )
    | Msg.Spec_reply { view; seq; history; _ } :: _ ->
      ( view,
        seq,
        history,
        true,
        Array.of_list
          (List.filter_map (function Msg.Spec_reply { txn_id; _ } -> Some txn_id | _ -> None) rs)
      )
    | _ -> assert false
  in
  let bytes = k * reply_bytes p in
  let service = Cost.serialize_cost p.Params.cost ~bytes + (k * p.Params.cost.Cost.out_handle) in
  let dst = t.client_nodes.(seq mod Array.length t.client_nodes) in
  Stage.enqueue h.output ~service (fun () ->
      Net.send (net t) ~src:h.id ~dst ~bytes
        (Replies { replica = h.id; view; seq; key_digest; txn_ids; speculative }))

and output_send_cert_ack t (h : host) ~seq ~msg ~count =
  let p = t.p in
  ignore msg;
  let bytes = count * reply_bytes p in
  let service = Cost.serialize_cost p.Params.cost ~bytes + (count * p.Params.cost.Cost.out_handle) in
  let dst = t.client_nodes.(seq mod Array.length t.client_nodes) in
  Stage.enqueue h.output ~service (fun () ->
      Net.send (net t) ~src:h.id ~dst ~bytes (Cert_acks { replica = h.id; seq; history = ""; count }))

(* Execution: charged on the execute-thread (or the worker when E = 0);
   E >= 2 routes committed blocks through the conflict-aware lane machinery
   below instead. *)
and enqueue_execute t (h : host) (b : Msg.batch) =
  if Array.length h.exec_lanes > 0 then exec_offer t h b
  else enqueue_execute_serial t h b

(* Costs of re-validating a batch at the execute boundary: the batch digest
   (block assembly links on it) and the authenticity of every transaction.
   With verify-sharing both reduce to memo probes — the digest was
   computed/validated when the proposal arrived, the signatures when the
   requests were admitted.  Without it, a protocol-centric fabric recomputes
   the digest and re-verifies every client signature here, which is exactly
   the redundant crypto the paper's Q2 lesson removes. *)
and exec_revalidate_cost t (h : host) (b : Msg.batch) =
  let p = t.p in
  let k = List.length b.Msg.reqs in
  let digest_check =
    shared_charge p h.dcache ~key:b.Msg.digest
      ~full:(Cost.hash_cost p.Params.cost ~bytes:b.Msg.wire_bytes)
  in
  let verify_full = Cost.verify_cost_batched p.Params.cost p.Params.client_scheme in
  let reverify =
    if verify_full = 0 then 0
    else if p.Params.verify_sharing then k * p.Params.cost.Cost.cache_lookup
    else k * verify_full
  in
  digest_check + reverify

(* The block-completion tail shared by the serial and parallel execute
   paths.  Block generation (§4.6): the commit certificate replaces the
   previous-block hash; the in-order ledger append's durable WAL write is
   buffered and flushed by the checkpoint-thread, never the execute path
   (Fig. 14); then execution accounting and the Executed notification back
   into the consensus core. *)
and finish_block t (h : host) (stage : Stage.t) (b : Msg.batch) =
  let p = t.p in
  obs_mark_executed t b.Msg.reqs;
  let cert = List.init (Config.commit_quorum t.cfg) (fun i -> (i, "share")) in
  let block =
    {
      Block.seq = b.Msg.seq;
      view = b.Msg.view;
      digest = b.Msg.digest;
      txn_count = List.length b.Msg.reqs;
      link = Block.Certificate cert;
    }
  in
  if Ledger.next_seq h.ledger = b.Msg.seq then begin
    Ledger.append h.ledger block;
    if Ledger.is_durable h.ledger then
      Stage.enqueue h.checkpoint_stage
        ~service:
          (Cost.serialize_cost p.Params.cost
             ~bytes:(64 + Msg.digest_bytes + (Config.commit_quorum t.cfg * 16)))
        (fun () -> ())
  end;
  if t.retrans_enabled then
    List.iter
      (fun (r : Msg.request_ref) ->
        Pending.mark_executed h.pending r.Msg.txn_id;
        Pending.clear_inflight h.pending r.Msg.txn_id)
      b.Msg.reqs;
  let state_digest = "state-" ^ string_of_int b.Msg.seq in
  let actions = core_executed t h ~seq:b.Msg.seq ~state_digest ~result:"ok" in
  emit_tagged t h stage actions;
  note_view t h

(* E <= 1: the paper's single execute-thread (or the worker when E = 0) —
   the exact pre-lane pipeline, kept bit-identical. *)
and enqueue_execute_serial t (h : host) (b : Msg.batch) =
  let p = t.p in
  let stage = match h.exec_stage with Some s -> s | None -> h.worker in
  let k = List.length b.Msg.reqs in
  let ops = k * p.Params.ops_per_txn in
  let alloc =
    if p.Params.use_buffer_pool then p.Params.cost.Cost.alloc_pool
    else p.Params.cost.Cost.alloc_malloc
  in
  let service =
    Cost.execute_cost p.Params.cost ~sqlite:p.Params.sqlite ~ops
    + (k * (p.Params.cost.Cost.reply_per_txn + alloc))
    + exec_revalidate_cost t h b
    + p.Params.cost.Cost.hash_base (* block assembly *)
  in
  obs_mark_exec_enqueued t b.Msg.reqs;
  Stage.enqueue stage ~service (fun () -> finish_block t h stage b)

(* ---- conflict-aware parallel execution (E >= 2) ---------------------------

   Committed blocks arrive here in global order.  One block owns the lanes
   at a time; inside the block, the {!Exec_sched} plan's rounds run with a
   barrier between them, each lane a pipeline stage of its own.  Cost
   layout: the "exec-sched" dispatcher pays the execute-boundary
   re-validation plus the dependency analysis (one conflict-table probe per
   operation); each lane pays the execute cost of exactly the operations
   scheduled onto it; the dispatcher then pays the block-assembly hash and
   runs the shared completion tail.  Determinism: the plan is a pure
   function of (block contents, E) — see [make_footprint_fn] and
   {!Rdb_replica.Exec_sched} — and lanes of one round touch disjoint keys,
   so the final state equals serial in-order execution no matter how the
   lane jobs interleave in simulated (or real) time. *)

and exec_offer t (h : host) (b : Msg.batch) =
  obs_mark_exec_enqueued t b.Msg.reqs;
  Queue.push b h.exec_queue;
  exec_try_start t h

and exec_try_start t (h : host) =
  if not h.exec_busy then
    match Queue.take_opt h.exec_queue with
    | None -> ()
    | Some b ->
      h.exec_busy <- true;
      let p = t.p in
      let sched = match h.exec_sched_stage with Some s -> s | None -> assert false in
      let k = List.length b.Msg.reqs in
      let analysis = k * p.Params.ops_per_txn * p.Params.cost.Cost.cache_lookup in
      let service = exec_revalidate_cost t h b + analysis in
      Stage.enqueue sched ~service (fun () ->
          let fps =
            Array.map
              (fun (r : Msg.request_ref) -> (Lazy.force t.footprint_of) r.Msg.txn_id)
              (Array.of_list b.Msg.reqs)
          in
          let plan = Exec_sched.schedule ~lanes:(Array.length h.exec_lanes) fps in
          exec_run_rounds t h b fps plan.Exec_sched.rounds)

and exec_run_rounds t (h : host) (b : Msg.batch) fps = function
  | [] ->
    let sched = match h.exec_sched_stage with Some s -> s | None -> assert false in
    (* Block assembly after the last barrier, then release the lanes to the
       next committed block. *)
    Stage.enqueue sched ~service:t.p.Params.cost.Cost.hash_base (fun () ->
        finish_block t h sched b;
        h.exec_busy <- false;
        exec_try_start t h)
  | round :: rest ->
    let p = t.p in
    let alloc =
      if p.Params.use_buffer_pool then p.Params.cost.Cost.alloc_pool
      else p.Params.cost.Cost.alloc_malloc
    in
    let ops = Exec_sched.round_ops fps round in
    let busy = Array.fold_left (fun a txns -> if txns = [] then a else a + 1) 0 round in
    if busy = 0 then exec_run_rounds t h b fps rest
    else begin
      let remaining = ref busy in
      Array.iteri
        (fun l txns ->
          if txns <> [] then begin
            let kl = List.length txns in
            let service =
              Cost.execute_cost p.Params.cost ~sqlite:p.Params.sqlite ~ops:ops.(l)
              + (kl * (p.Params.cost.Cost.reply_per_txn + alloc))
            in
            (* The round barrier: the last lane to drain starts the next
               round. *)
            Stage.enqueue h.exec_lanes.(l) ~service (fun () ->
                decr remaining;
                if !remaining = 0 then exec_run_rounds t h b fps rest)
          end)
        round
    end

(* Batch formation at the primary (§4.3): batch-threads drain the common
   queue, verify client signatures, build the batch string, hash and sign. *)
and try_form_batches t (h : host) =
  let p = t.p in
  if not (is_host_primary h) then ()
  else begin
  Pending.compact h.pending;
  let stage = match h.batch_stage with Some s -> s | None -> h.worker in
  let max_jobs = 2 * Stage.workers stage in
  (* k concurrent ordering instances sustain k times the in-flight batches
     before head-of-line blocking sets in, so the admission window scales
     with them. *)
  let admission_open () =
    t.proposed_batches - t.completed_batches + h.batch_jobs_inflight
    < p.Params.max_inflight_batches * p.Params.instances
  in
  while
    Pending.length h.pending >= p.Params.batch_size
    && h.batch_jobs_inflight < max_jobs
    && admission_open ()
  do
    enqueue_batch_job t h stage (Pending.take h.pending p.Params.batch_size)
  done;
  (* A partial batch would stall forever under low load: flush it shortly,
     like a production batcher's linger timer. *)
  if (not (Pending.is_empty h.pending)) && not h.flush_scheduled then begin
    h.flush_scheduled <- true;
    ignore
      (Sim.schedule t.sim ~after:(Sim.ms 2.0) (fun () ->
           h.flush_scheduled <- false;
           let len = Pending.length h.pending in
           if len > 0 && len < p.Params.batch_size && admission_open () then
             enqueue_batch_job t h stage (Pending.take h.pending len)
           else if len > 0 then try_form_batches t h))
  end
  end

and enqueue_batch_job t (h : host) stage txns =
  let p = t.p in
  let k = Array.length txns in
  let wire = batch_wire_bytes p k in
  (* Each batched transaction costs two object allocations (message wrapper
     + transaction object, §4.8); the buffer pool makes them cheap. *)
  let alloc =
    if p.Params.use_buffer_pool then p.Params.cost.Cost.alloc_pool
    else p.Params.cost.Cost.alloc_malloc
  in
  (* Client-signature verification per transaction.  With verify-sharing a
     transaction this host already admitted — re-batched after a failed
     propose or a view change, or re-injected by retransmission — costs a
     cache probe instead of a second signature check. *)
  let verify_full = Cost.verify_cost_batched p.Params.cost p.Params.client_scheme in
  let verify_ns = ref 0 in
  Array.iter
    (fun id ->
      verify_ns :=
        !verify_ns + shared_charge p h.vcache ~key:("req|" ^ string_of_int id) ~full:verify_full)
    txns;
  let per_txn =
    p.Params.cost.Cost.batch_per_txn
    + (2 * alloc)
    + ((p.Params.ops_per_txn - 1) * p.Params.cost.Cost.batch_per_op)
  in
  (* Very large batches lose cache locality while being assembled. *)
  let locality =
    let th = p.Params.cost.Cost.batch_locality_threshold in
    if k <= th then 1.0
    else 1.0 +. (p.Params.cost.Cost.batch_locality_slope *. float_of_int (k - th) /. float_of_int th)
  in
  let service =
    int_of_float (float_of_int ((k * per_txn) + !verify_ns) *. locality)
    + p.Params.cost.Cost.batch_base
    + Cost.hash_cost p.Params.cost ~bytes:wire
  in
  h.batch_jobs_inflight <- h.batch_jobs_inflight + 1;
  if t.retrans_enabled then Array.iter (Pending.mark_inflight h.pending) txns;
  Stage.enqueue stage ~service (fun () ->
      h.batch_jobs_inflight <- h.batch_jobs_inflight - 1;
      h.batch_counter <- h.batch_counter + 1;
      let digest = Printf.sprintf "b%d-%d" h.id h.batch_counter in
      (* The hash over the batch string was charged in [service] above; with
         verify-sharing the primary's later touchpoints (execution-time
         digest check) reuse it. *)
      if p.Params.verify_sharing then Vcache.add h.dcache digest ();
      let reqs =
        Array.to_list (Array.map (fun txn_id -> { Msg.client = txn_id mod t.p.Params.clients; txn_id }) txns)
      in
      (* The core picks the instance (a multi-primary host rotates over the
         instances it leads, so a host that picked up a second instance
         after a view change keeps both streams moving); its worker-thread
         carries the consensus bookkeeping below. *)
      let batch_opt, tagged, prop_inst =
        Core.propose h.core ~reqs ~digest ~wire_bytes:wire
      in
      let consensus_worker = worker_for h prop_inst in
      (match batch_opt with
      | None ->
        (* Mid view-change / window full / no longer primary.  With
           retransmission the requests go back to the queue (the next
           primary will serve them); without it clients never retry, and
           under our healthy-run experiments this branch is unreachable. *)
        if t.retrans_enabled then
          Array.iter
            (fun id ->
              Pending.clear_inflight h.pending id;
              Pending.push h.pending id)
            txns
      | Some _ ->
        obs_mark_proposed t txns;
        t.proposed_batches <- t.proposed_batches + 1;
        (* The worker-thread owns the consensus instance: its bookkeeping
           (instance state, quorum tracking, certificate assembly) costs a
           fixed amount per consensus, regardless of batch size. *)
        Stage.enqueue consensus_worker ~service:p.Params.cost.Cost.consensus_fixed (fun () -> ()));
      emit_tagged t h stage tagged;
      match batch_opt with Some _ -> try_form_batches t h | None -> ())

(* ---- message delivery at a replica ---------------------------------------- *)

and deliver_replica t (h : host) ~src (msg : net_msg) =
  let p = t.p in
  let cost = p.Params.cost in
  ignore src;
  match msg with
  | Client_txns { txn_ids } ->
    let k = Array.length txn_ids in
    Stage.enqueue h.input_client ~service:(k * cost.Cost.msg_handle) (fun () ->
        Array.iter (Pending.push h.pending) txn_ids;
        if is_host_primary h then begin
          try_form_batches t h;
          (* A multi-primary host leads only its own instances: the
             transactions it just batched still need every *other* instance
             to keep the global execution cursor moving, so unserved
             (retransmitted) demand arms the watchdog here too. *)
          if Core.instances h.core > 1 && t.retrans_enabled then note_demand t h
        end
        else if t.retrans_enabled then note_demand t h)
  | To_replica (inst, m) ->
    (* MAC/signature check on the inbound message.  With verify-sharing a
       retransmitted or duplicated message (same sender, same authenticated
       bytes) costs a cache probe instead of a re-verification.  Instances
       other than 0 prefix the memo key: two instances can legitimately
       carry messages with identical authenticated fields (same local view,
       sequence number and sender), and those must not share a cache
       entry.  Instance 0 keeps the bare key so a k = 1 run is bit-identical
       to the classic path. *)
    let verify =
      let key =
        if inst = 0 then Msg.auth_string m
        else String.concat "" [ "i"; string_of_int inst; "|"; Msg.auth_string m ]
      in
      shared_charge p h.vcache ~key ~full:(Cost.verify_cost cost p.Params.replica_scheme)
    in
    (* Digest validation of a proposed batch (§4.3: a backup recomputes the
       batch digest before voting).  Memoized so execution — and any
       retransmitted copy of the proposal — reuses the first computation. *)
    let digest_check (b : Msg.batch) =
      shared_charge p h.dcache ~key:b.Msg.digest
        ~full:(Cost.hash_cost cost ~bytes:b.Msg.wire_bytes)
    in
    (* Consensus traffic of instance i is served by that instance's own
       worker-thread: the per-instance workers are exactly what removes the
       single ordering thread from the critical path. *)
    let consensus_worker = worker_for h inst in
    let stage, service =
      match m with
      | Msg.Checkpoint _ -> (h.checkpoint_stage, verify + cost.Cost.msg_handle)
      | Msg.State_request _ -> (h.checkpoint_stage, verify + cost.Cost.msg_handle)
      | Msg.State_response { blocks; _ } ->
        (* Certificate verification plus one hash walk over the shipped
           segment, on the checkpoint-thread (recovery work never steals
           the consensus worker). *)
        ( h.checkpoint_stage,
          verify + cost.Cost.msg_handle
          + (List.length blocks * cost.Cost.hash_base) )
      | Msg.Pre_prepare { batch; _ } | Msg.Order_request { batch; _ }
      | Msg.Hs_proposal { batch; _ } ->
        (* A new consensus instance starts here at a backup. *)
        ( consensus_worker,
          verify + digest_check batch + cost.Cost.msg_handle + cost.Cost.consensus_fixed )
      | Msg.Prepare _ | Msg.Commit _ | Msg.View_change _ | Msg.New_view _
      | Msg.Hs_vote _ | Msg.Hs_qc _ ->
        (consensus_worker, verify + cost.Cost.msg_handle)
      | _ -> (consensus_worker, cost.Cost.msg_handle)
    in
    (* Input-threads hand the message over first (cheap), then the target
       thread verifies and processes.  State-transfer traffic is handled at
       the host level (it moves ledgers, not consensus votes). *)
    Stage.enqueue h.input_replica ~service:cost.Cost.msg_handle (fun () ->
        Stage.enqueue stage ~service (fun () ->
            match m with
            | Msg.State_request { low; from } -> serve_state_request t h ~low ~requester:from
            | Msg.State_response _ -> admit_state_response t h m
            | _ -> core_handle t h stage ~inst m))
  | Tampered { kind; inner } ->
    (* A byzantine peer's corrupted message.  The receive path pays the
       full price to discover the corruption — a failed check is never
       memoized (the verify-sharing caches admit only successful
       verifications), so every forged copy costs a full verify — and the
       message is dropped before the consensus core ever sees it. *)
    let inst, digest_recompute =
      match inner with
      | To_replica (inst, m) ->
        ( inst,
          match kind with
          | Forged_mac -> 0
          | Corrupted_digest -> (
            (* The MAC itself passes; recomputing the batch digest (§4.3's
               backup-side validation) is what disagrees. *)
            match m with
            | Msg.Pre_prepare { batch; _ }
            | Msg.Order_request { batch; _ }
            | Msg.Hs_proposal { batch; _ } ->
              Cost.hash_cost cost ~bytes:batch.Msg.wire_bytes
            | _ -> cost.Cost.hash_base) )
      | _ -> (0, 0)
    in
    let consensus_worker = worker_for h inst in
    let service =
      Cost.verify_cost cost p.Params.replica_scheme + digest_recompute + cost.Cost.msg_handle
    in
    Stage.enqueue h.input_replica ~service:cost.Cost.msg_handle (fun () ->
        Stage.enqueue consensus_worker ~service (fun () ->
            t.rejected_forgeries <- t.rejected_forgeries + 1;
            if t.rejected_forgeries = 1 then
              obs_instant t (Printf.sprintf "byzantine: replica %d rejected a forged message" h.id)))
  | Certs { seq; history; count } ->
    let quorum = Config.commit_quorum t.cfg in
    let service =
      count * ((quorum * Cost.verify_cost cost p.Params.client_scheme) + cost.Cost.msg_handle)
    in
    Stage.enqueue h.input_replica ~service:cost.Cost.msg_handle (fun () ->
        Stage.enqueue h.worker ~service (fun () ->
            Hashtbl.replace h.cert_counts seq count;
            let responders = List.init quorum (fun i -> i) in
            core_handle t h h.worker ~inst:0
              (Msg.Commit_cert { view = 0; seq; digest = history; client = seq; responders })))
  | Replies _ | Cert_acks _ ->
    (* Client-bound traffic never reaches a replica. *)
    ()

(* ---- client pool ----------------------------------------------------------- *)

and next_client_node t =
  let node = t.client_nodes.(t.client_rr mod Array.length t.client_nodes) in
  t.client_rr <- t.client_rr + 1;
  node

and submit_group t txn_ids =
  let p = t.p in
  let now = Sim.now t.sim in
  Array.iter (fun id -> Hashtbl.replace t.submit_time id now) txn_ids;
  let bytes = Array.length txn_ids * txn_request_bytes p in
  let src = next_client_node t in
  (* Multi-primary: submissions round-robin over the k instances' believed
     primaries, spreading the ordering load across the k leaders (with k = 1
     this is exactly the classic single-primary target). *)
  let inst = t.submit_rr mod p.Params.instances in
  t.submit_rr <- t.submit_rr + 1;
  Net.send (net t) ~src ~dst:(believed_primary_of t inst) ~bytes (Client_txns { txn_ids });
  if t.retrans_enabled then schedule_retransmit t txn_ids ~delay:p.Params.client_timeout

(* Client retransmission with exponential backoff: transactions still
   lacking a reply quorum after [delay] are re-sent, broadcast to all
   replicas (PBFT's liveness path — backups that see unserved demand start
   suspecting the primary via [note_demand]). *)
and schedule_retransmit t txn_ids ~delay =
  let p = t.p in
  ignore
    (Sim.schedule t.sim ~after:delay (fun () ->
         let survivors = awaiting_reply t txn_ids in
         let k = Array.length survivors in
         if k > 0 then begin
           t.retransmissions <- t.retransmissions + k;
           let bytes = k * txn_request_bytes p in
           let src = next_client_node t in
           for dst = 0 to p.Params.n - 1 do
             Net.send (net t) ~src ~dst ~bytes (Client_txns { txn_ids = survivors })
           done;
           schedule_retransmit t survivors
             ~delay:(min (2 * delay) (16 * p.Params.client_timeout))
         end))

and fresh_txns t k =
  Array.init k (fun _ ->
      let id = t.next_txn in
      t.next_txn <- id + 1;
      id)

and complete_batch t (track : batch_track) ~view ~fast ~cert =
  if not track.completed then begin
    track.completed <- true;
    t.completed_batches <- t.completed_batches + 1;
    (match track.zyz_timer with Some ev -> Sim.cancel ev | None -> ());
    let now = Sim.now t.sim in
    (* Under retransmission one transaction can complete through two
       distinct (view, seq) slots; only its first completion counts —
       exactly-once at the accounting level. *)
    let fresh = awaiting_reply t track.bt_txn_ids in
    let k = Array.length fresh in
    t.duplicate_completions <- t.duplicate_completions + (Array.length track.bt_txn_ids - k);
    if t.measuring then begin
      t.completed_txns <- t.completed_txns + k;
      t.completed_ops <- t.completed_ops + (k * t.p.Params.ops_per_txn);
      if fast then t.fast_txns <- t.fast_txns + k;
      if cert then t.cert_txns <- t.cert_txns + k;
      Array.iter
        (fun id ->
          match Hashtbl.find_opt t.submit_time id with
          | Some s -> Stats.add t.latencies (Sim.to_seconds (now - s))
          | None -> ())
        fresh
    end;
    t.total_completed <- t.total_completed + k;
    (* Recovery from a primary crash: the first fresh completion decided in
       a later view marks the end of the outage window. *)
    if k > 0 && t.recovered_at = None && t.primary_crash_at <> None && view > t.crash_view then
      t.recovered_at <- Some now;
    obs_complete t fresh;
    Array.iter (fun id -> Hashtbl.remove t.submit_time id) fresh;
    (* Closed loop: the same clients immediately submit replacements —
       unless a completion sink owns the loop (shard deployments route the
       replacement, which may target a different shard). *)
    if k > 0 then
      match t.on_complete with
      | Some sink -> sink fresh
      | None -> submit_group t (fresh_txns t k)
  end

and get_track t key txn_ids =
  match Hashtbl.find_opt t.batches key with
  | Some tr -> tr
  | None ->
    let tr =
      {
        bt_txn_ids = txn_ids;
        reply_mask = 0;
        completed = false;
        zyz_timer = None;
        certified = false;
        ack_mask = 0;
      }
    in
    Hashtbl.add t.batches key tr;
    tr

and zyzzyva_timeout t (track : batch_track) ~view ~seq ~history =
  track.zyz_timer <- None;
  if not track.completed then begin
    let live = popcount track.reply_mask in
    if live >= Config.commit_quorum t.cfg && not track.certified then begin
      track.certified <- true;
      (* Every client of the batch broadcasts its commit certificate. *)
      let count = Array.length track.bt_txn_ids in
      let bytes = count * cert_bytes t.p ~quorum:(Config.commit_quorum t.cfg) in
      let src = next_client_node t in
      for dst = 0 to t.p.Params.n - 1 do
        Net.send (net t) ~src ~dst ~bytes (Certs { seq; history; count })
      done
    end
    else if not track.certified then begin
      (* Not enough speculative replies yet: wait another round. *)
      let ev =
        Sim.schedule t.sim ~after:t.p.Params.zyzzyva_timeout (fun () ->
            zyzzyva_timeout t track ~view ~seq ~history)
      in
      track.zyz_timer <- Some ev
    end
  end

and live_replicas t =
  let nw = net t in
  let alive = ref 0 in
  for i = 0 to t.p.Params.n - 1 do
    if not (Net.is_crashed nw i) then incr alive
  done;
  !alive

(* Once every live replica's reply has been seen (and the certificate path,
   if taken, has fully acked) the tracking entry can be dropped: nothing
   further can arrive for it.  Without this, late replies after completion
   would re-create the key and double-complete the batch. *)
and maybe_prune t key (track : batch_track) =
  if
    track.completed
    && popcount track.reply_mask >= live_replicas t
    && ((not track.certified) || popcount track.ack_mask >= live_replicas t)
  then Hashtbl.remove t.batches key

and deliver_client t (msg : net_msg) =
  match msg with
  | Replies { replica; view; seq; key_digest; txn_ids; speculative } ->
    (* The reply's view tells clients who the primary is (PBFT §4.1);
       subsequent submissions target it instead of the crashed one.  With
       multiple instances the global sequence number names the instance the
       reply came from, so the hint is tracked per instance. *)
    if view > t.client_view then t.client_view <- view;
    if t.p.Params.instances > 1 && seq >= 1 then begin
      let inst = (seq - 1) mod t.p.Params.instances in
      if view > t.inst_views.(inst) then t.inst_views.(inst) <- view
    end;
    let key = (view, seq, key_digest) in
    let track = get_track t key txn_ids in
    track.reply_mask <- track.reply_mask lor (1 lsl replica);
    let count = popcount track.reply_mask in
    if not track.completed then begin
      if not speculative then begin
        if count >= Config.reply_quorum t.cfg then
          complete_batch t track ~view ~fast:false ~cert:false
      end
      else begin
        (* Zyzzyva: all n replies complete the request on the fast path. *)
        if count >= t.p.Params.n then complete_batch t track ~view ~fast:true ~cert:false
        else if track.zyz_timer = None && not track.certified then begin
          let ev =
            Sim.schedule t.sim ~after:t.p.Params.zyzzyva_timeout (fun () ->
                zyzzyva_timeout t track ~view ~seq ~history:key_digest)
          in
          track.zyz_timer <- Some ev
        end
      end
    end;
    maybe_prune t key track
  | Cert_acks { replica; seq; _ } ->
    (* Find the certified batch for this sequence number. *)
    let hits = ref [] in
    Hashtbl.iter
      (fun ((_, s, _) as key) track ->
        if s = seq && track.certified then hits := (key, track) :: !hits)
      t.batches;
    List.iter
      (fun (((view, _, _) as key), track) ->
        track.ack_mask <- track.ack_mask lor (1 lsl replica);
        if (not track.completed) && popcount track.ack_mask >= Config.commit_quorum t.cfg then
          complete_batch t track ~view ~fast:false ~cert:true;
        maybe_prune t key track)
      !hits
  | Tampered _ ->
    (* Clients verify reply MACs too: a forged reply is rejected and never
       counts towards the reply quorum — the sender might as well not have
       replied (which is exactly how one liar stalls Zyzzyva's all-n fast
       path while PBFT's f+1 reply quorum never notices). *)
    t.rejected_forgeries <- t.rejected_forgeries + 1
  | To_replica _ | Client_txns _ | Certs _ -> ()

(* ---- construction ----------------------------------------------------------- *)

(* Stable Chrome-trace thread ids per stage, identical across replicas so
   tracks line up when comparing processes side by side in the viewer.
   Replicated stages are parsed through the {!Stage_name} family/index
   scheme (not positional prefixes): per-instance worker-threads
   ("worker-i") track at 10 + i, per-lane execute stages ("execute-i") at
   30 + i, so the k ordering streams and the E execution lanes each line up
   across replica processes in the viewer. *)
let stage_tid name =
  match name with
  | "input-client" -> 1
  | "input-replica" -> 2
  | "batch" -> 3
  | "worker" -> 4
  | "execute" -> 5
  | "output" -> 6
  | "checkpoint" -> 7
  | "exec-sched" -> 8
  | _ -> (
    match Stage_name.parse name with
    | { Stage_name.family = "worker"; index = Some _ } -> Stage_name.tid ~base:10 name
    | { Stage_name.family = "execute"; index = Some _ } -> Stage_name.tid ~base:30 name
    | _ -> 0)

let make_host t ~id =
  let p = t.p in
  let role = if id = primary_id then "primary" else "backup" in
  let cpu_probe =
    match t.obs with
    | None -> None
    | Some o ->
      Some
        (fun ~wait_ns ~held_ns ~at:_ ->
          Breakdown.add o.bd ("cpu/" ^ role) ~queue_ns:wait_ns ~service_ns:held_ns)
  in
  let cpu =
    Cpu.create ~cs_alpha:p.Params.cost.Cost.context_switch_alpha ?probe:cpu_probe t.sim
      ~cores:p.Params.cores
  in
  (match t.obs with
  | None -> ()
  | Some o ->
    Trace.set_process_name o.trace ~pid:id
      (Printf.sprintf "replica %d%s" id (if id = primary_id then " (primary)" else "")));
  let stage name workers =
    let probe =
      match t.obs with
      | None -> None
      | Some o ->
        let tid = stage_tid name in
        Trace.set_thread_name o.trace ~pid:id ~tid name;
        let label = name ^ "/" ^ role in
        Some
          (fun ~queue_ns ~service_ns ~at ->
            Breakdown.add o.bd label ~queue_ns ~service_ns;
            Trace.complete o.trace ~pid:id ~tid ~name ~ts:(at - service_ns)
              ~dur:service_ns)
    in
    Stage.create t.sim ~cpu ~name ~workers ?probe ()
  in
  let core =
    match p.Params.protocol with
    | Params.Pbft ->
      if p.Params.instances > 1 then Core.multi t.cfg ~instances:p.Params.instances ~id
      else Core.pbft t.cfg ~id
    | Params.Zyzzyva -> Core.zyzzyva t.cfg ~id
    | Params.Hotstuff -> Core.hotstuff t.cfg ~id
  in
  let multi = p.Params.instances > 1 in
  let ledger =
    match t.data_root with
    | Some root ->
      Ledger.open_durable ~dir:(Filename.concat root (Printf.sprintf "replica-%d" id)) ~primary_id
    | None -> Ledger.create ~primary_id
  in
  (* Crash-replay resume: a reopened durable store already holds a chain
     (same data_dir as an earlier run), so fast-forward the fresh core past
     the persisted tip — ordering continues from there instead of
     re-proposing sequence numbers the chain already contains. *)
  let tip = Ledger.next_seq ledger - 1 in
  if tip > 0 then
    ignore (Core.step core (Core.Install_checkpoint { seq = tip; state_digest = "" }));
  {
    id;
    cpu;
    input_client = stage "input-client" 1;
    input_replica = stage "input-replica" 2;
    output = stage "output" 2;
    batch_stage =
      (if p.Params.batch_threads > 0 then Some (stage "batch" p.Params.batch_threads) else None);
    (* One worker-thread per consensus instance ("worker-i" tracks in the
       trace); the classic deployment keeps its single "worker". *)
    worker = stage (if multi then "worker-0" else "worker") 1;
    extra_workers =
      (if multi then
         Array.init (p.Params.instances - 1) (fun i ->
             stage (Printf.sprintf "worker-%d" (i + 1)) 1)
       else [||]);
    (* E <= 1 keeps the classic single execute-thread; E >= 2 (or a forced
       single lane) builds the conflict-aware lane stages plus their
       dispatcher instead. *)
    exec_stage =
      (if Params.exec_lanes p = 0 && p.Params.execute_threads > 0 then
         Some (stage "execute" 1)
       else None);
    exec_lanes =
      Array.init (Params.exec_lanes p) (fun i ->
          stage (Stage_name.make ~family:"execute" ~index:i) 1);
    exec_sched_stage = (if Params.exec_lanes p > 0 then Some (stage "exec-sched" 1) else None);
    exec_queue = Queue.create ();
    exec_busy = false;
    checkpoint_stage = stage "checkpoint" 1;
    core;
    pending = Pending.create ~track:t.retrans_enabled;
    flush_scheduled = false;
    batch_jobs_inflight = 0;
    ledger;
    cert_counts = Hashtbl.create 16;
    batch_counter = 0;
    seen_view = 0;
    vc_timer = None;
    last_exec_seen = 0;
    nudged = false;
    st_outstanding = false;
    st_tries = 0;
    vcache = Vcache.create ~capacity:p.Params.verify_cache_capacity;
    dcache = Vcache.create ~capacity:p.Params.verify_cache_capacity;
  }

(* ---- byzantine interposition ------------------------------------------------ *)

(* The adversary lives entirely between a lying replica's output and the
   wire: a per-source transform on its outbound links ({!Net.set_interpose}).
   The consensus cores are never modified — they are attacked from outside
   and defend themselves at their receive paths. *)

(* The equivocating primary's conflicting copy of a proposal: same slot,
   same (valid) authentication, different batch digest.  Only proposals are
   rewritten; everything else the attacker sends is consistent with
   whichever branch it is pushing at that peer. *)
let equivocate_msg (m : Msg.t) =
  match m with
  | Msg.Pre_prepare { view; seq; batch; from } ->
    Some
      (Msg.Pre_prepare
         { view; seq; batch = { batch with Msg.digest = batch.Msg.digest ^ "#equiv" }; from })
  | Msg.Order_request { view; seq; batch; history; from } ->
    Some
      (Msg.Order_request
         {
           view;
           seq;
           batch = { batch with Msg.digest = batch.Msg.digest ^ "#equiv" };
           history;
           from;
         })
  | Msg.Hs_proposal { view; seq; batch; parent; from } ->
    Some
      (Msg.Hs_proposal
         {
           view;
           seq;
           batch = { batch with Msg.digest = batch.Msg.digest ^ "#equiv" };
           parent;
           from;
         })
  | _ -> None

let install_behavior t ~node (b : Nemesis.behavior) =
  let nw = net t in
  let n = t.p.Params.n in
  match b with
  | Nemesis.Honest | Nemesis.Spamming_view_changes _ -> Net.clear_interpose nw ~src:node
  | Nemesis.Silent_towards peers ->
    (* Selective suppression: dead towards the listed peers, perfectly
       live towards everyone else — the failure crash-fault machinery
       cannot represent (the node is not crashed). *)
    Net.set_interpose nw ~src:node (fun ~dst m -> if List.mem dst peers then [] else [ m ])
  | Nemesis.Equivocating ->
    (* A double-commit attempt: proposal A to the lower replicas, the
       conflicting proposal B to the upper ones.  For the attack to pay
       off both subsets must reach a prepare quorum, and 2 * 2f > n - 1
       forces them to overlap — so the pivot replica receives both copies,
       which is exactly the evidence the cores count
       ({!Rdb_consensus.Pbft_replica.equivocations_detected}).  Safety
       never depends on detection: digest-keyed quorums split the votes
       and quorum intersection lets at most one branch commit. *)
    let pivot = n / 2 in
    Net.set_interpose nw ~src:node (fun ~dst m ->
        match m with
        | To_replica (inst, pm) -> (
          match equivocate_msg pm with
          | None -> [ m ]
          | Some forged ->
            if dst < pivot then [ m ]
            else if dst = pivot then [ m; To_replica (inst, forged) ]
            else [ To_replica (inst, forged) ])
        | _ -> [ m ])
  | Nemesis.Corrupting_mac rate ->
    (* Everything the liar authenticates is suspect: protocol votes AND its
       replies to clients.  Forged replies are what breaks Zyzzyva's fast
       path — the client needs all n matching spec replies, and one
       persistent liar means it never gets them (the paper's Fig. 12
       collapse); PBFT's f+1 reply quorum shrugs the same attack off. *)
    Net.set_interpose nw ~src:node (fun ~dst:_ m ->
        match m with
        | (To_replica _ | Replies _ | Cert_acks _) when Rng.float t.rng < rate ->
          [ Tampered { kind = Forged_mac; inner = m } ]
        | _ -> [ m ])
  | Nemesis.Corrupting_digest rate ->
    Net.set_interpose nw ~src:node (fun ~dst:_ m ->
        match m with
        | To_replica (_, (Msg.Pre_prepare _ | Msg.Order_request _ | Msg.Hs_proposal _))
          when Rng.float t.rng < rate ->
          [ Tampered { kind = Corrupted_digest; inner = m } ]
        | _ -> [ m ])

(* The view-change spammer floods fabricated View_change messages on its
   own clock, independent of any protocol state it holds.  Interposition
   cannot inject spontaneously (it only transforms real traffic), so the
   flood is driven by a repeating DES event; a behavior change bumps the
   node's generation counter and the stale loop stops rescheduling. *)
let rec spam_view_changes t ~node ~gen ~period =
  if t.behavior_gen.(node) = gen && not (Net.is_crashed (net t) node) then begin
    t.spam_salt <- t.spam_salt + 1;
    (* Fabricated future views: some land inside the receivers' skew window
       and burn one of the sender's few registration slots, the rest
       overshoot it — every spam copy ends up suppressed one way or the
       other (see {!Rdb_consensus.Pbft_replica.vc_spam_suppressed}). *)
    let new_view = t.max_view + 1 + (t.spam_salt mod 16) in
    let m = Msg.View_change { new_view; last_stable = 0; prepared = []; from = node } in
    let bytes = Msg.wire_size ~sig_bytes:(Signer.signature_size t.p.Params.replica_scheme) m in
    for dst = 0 to t.p.Params.n - 1 do
      if dst <> node then Net.send (net t) ~src:node ~dst ~bytes (To_replica (0, m))
    done;
    ignore (Sim.schedule t.sim ~after:period (fun () -> spam_view_changes t ~node ~gen ~period))
  end

let set_behavior t ~node b =
  t.behavior_gen.(node) <- t.behavior_gen.(node) + 1;
  t.behaviors.(node) <- b;
  install_behavior t ~node b;
  match b with
  | Nemesis.Spamming_view_changes period ->
    spam_view_changes t ~node ~gen:t.behavior_gen.(node) ~period
  | _ -> ()

(* The narrow capability record {!Nemesis} drives faults through — built on
   demand so injections always observe the current primary. *)
let driver t =
  let nw = net t in
  {
    Nemesis.sim = t.sim;
    current_primary = (fun () -> current_primary t);
    current_instance_primary = (fun i -> current_instance_primary t i);
    crash =
      (fun i ->
        (* Kill any in-flight state-transfer retry loop along with the host. *)
        t.hosts.(i).st_outstanding <- false;
        Net.crash nw i);
    recover =
      (fun i ->
        Net.recover nw i;
        (* The rejoining replica's pipeline state is whatever survived the
           crash (its full in-memory state in the DES model, the reopened
           durable store in a real restart): ask the cluster for everything
           newer instead of waiting out per-message retransmission. *)
        let h = t.hosts.(i) in
        h.st_outstanding <- false;
        request_state_transfer t h);
    partition = (fun ~name a b -> Net.partition nw ~name a b);
    heal = (fun ~name -> Net.heal nw ~name);
    set_loss = (fun r -> Net.set_loss nw r);
    set_duplication = (fun r -> Net.set_duplication nw r);
    set_extra_jitter = Net.set_extra_jitter nw;
    set_behavior = (fun ~node b -> set_behavior t ~node b);
    note =
      (fun f ->
        obs_instant t ("fault: " ^ Nemesis.describe f);
        match f with
        | Nemesis.Crash_primary | Nemesis.Crash_instance_primary _ -> mark_primary_crash t
        | Nemesis.Crash i when i = current_primary t -> mark_primary_crash t
        | _ -> ());
  }

(* The breakdown rows in pipeline order (per role), so the printed table
   reads top to bottom the way a transaction flows.  The execute slots come
   from the configuration — the classic "execute" row, or "exec-sched" plus
   one "execute-i" row per lane — rather than a positional assumption, so
   the table keeps its shape as E changes. *)
let obs_touch_rows (p : Params.t) obs =
  let exec_rows =
    let lanes = Params.exec_lanes p in
    if lanes > 0 then
      "exec-sched" :: List.init lanes (fun i -> Stage_name.make ~family:"execute" ~index:i)
    else [ "execute" ]
  in
  List.iter
    (fun role ->
      List.iter
        (fun stage -> Breakdown.touch obs.bd (stage ^ "/" ^ role))
        ([ "input-client"; "input-replica"; "batch"; "worker" ]
        @ exec_rows
        @ [ "output"; "checkpoint"; "cpu" ]))
    [ "primary"; "backup" ]

let make_obs (p : Params.t) sim =
  if not (Params.obs_enabled p) then None
  else begin
    let o =
      {
        trace = Trace.create ~max_events:p.Params.trace_max_events sim;
        bd = Breakdown.create ();
        span_batch = Stats.create ();
        span_consensus = Stats.create ();
        span_execute = Stats.create ();
        span_reply = Stats.create ();
        marks = Hashtbl.create 4096;
        series = None;
      }
    in
    obs_touch_rows p o;
    Some o
  end

(* The periodic sampler: reads queue depths, occupancy and counters — never
   mutates cluster state or draws randomness, so installing it does not
   change the modelled system (see test_obs's tracing-neutrality check). *)
let install_series t (o : obs) =
  let p = t.p in
  let h0 = t.hosts.(primary_id) in
  let backup = t.hosts.(min 1 (p.Params.n - 1)) in
  let columns =
    [ "primary_pending"; "primary_batch_q"; "primary_worker_q"; "primary_exec_q";
      "primary_output_q"; "primary_cpu_q"; "primary_cpu_running"; "backup_worker_q";
      "view"; "completed_txns"; "msgs_dropped"; "retransmissions"; "rejected_forgeries" ]
  in
  let sample () =
    let nw = net t in
    let v =
      [|
        float_of_int (Pending.length h0.pending);
        float_of_int (match h0.batch_stage with Some s -> Stage.queue_length s | None -> 0);
        float_of_int (Stage.queue_length h0.worker);
        (* Work queued at the execute boundary: the single execute-thread's
           queue on the classic pipeline; under parallel execution, blocks
           waiting for the lanes plus everything queued on the dispatcher
           and the lanes themselves. *)
        float_of_int
          ((match h0.exec_stage with Some s -> Stage.queue_length s | None -> 0)
          + (match h0.exec_sched_stage with Some s -> Stage.queue_length s | None -> 0)
          + Array.fold_left (fun a s -> a + Stage.queue_length s) 0 h0.exec_lanes
          + Queue.length h0.exec_queue);
        float_of_int (Stage.queue_length h0.output);
        float_of_int (Cpu.queue_length h0.cpu);
        float_of_int (Cpu.running h0.cpu);
        float_of_int (Stage.queue_length backup.worker);
        float_of_int t.max_view;
        float_of_int t.total_completed;
        float_of_int (Net.messages_dropped nw);
        float_of_int t.retransmissions;
        float_of_int t.rejected_forgeries;
      |]
    in
    Trace.counter o.trace ~pid:primary_id ~name:"primary queues"
      ~series:
        [ ("pending", v.(0)); ("batch", v.(1)); ("worker", v.(2)); ("execute", v.(3));
          ("output", v.(4)); ("cpu", v.(5)) ];
    Trace.counter o.trace ~pid:primary_id ~name:"progress"
      ~series:[ ("completed", v.(9)); ("view", v.(8)); ("dropped", v.(10)) ];
    v
  in
  let horizon = p.Params.warmup + p.Params.measure in
  let capacity = max 16 ((horizon / max 1 p.Params.trace_interval) + 4) in
  let s = Series.create t.sim ~interval:p.Params.trace_interval ~capacity ~columns ~sample in
  Series.start s;
  o.series <- Some s

(* Fresh durable roots per cluster, so two runs in one process never reopen
   (and replay) each other's stores.  Atomic: the fault-campaign harness
   creates clusters from several domains at once. *)
let data_root_counter = Atomic.make 0

let fresh_data_root () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rdb-cluster-%d-%d" (Unix.getpid ()) (1 + Atomic.fetch_and_add data_root_counter 1))

let create (p : Params.t) =
  Params.validate p;
  let sim = Sim.create () in
  let rng = Rng.create p.Params.seed in
  let cfg = Config.make ~checkpoint_interval:(Params.checkpoint_interval p) ~n:p.Params.n () in
  let t =
    {
      p;
      sim;
      rng;
      cfg;
      net = None;
      hosts = [||];
      client_nodes = Array.init p.Params.client_machines (fun i -> p.Params.n + i);
      client_rr = 0;
      inst_views = Array.make p.Params.instances 0;
      submit_rr = 0;
      submit_time = Hashtbl.create 4096;
      batches = Hashtbl.create 4096;
      next_txn = 0;
      proposed_batches = 0;
      completed_batches = 0;
      retrans_enabled = p.Params.client_timeout > 0;
      client_view = 0;
      max_view = 0;
      retransmissions = 0;
      duplicate_completions = 0;
      primary_crash_at = None;
      crash_view = 0;
      recovered_at = None;
      behaviors = Array.make p.Params.n Nemesis.Honest;
      behavior_gen = Array.make p.Params.n 0;
      rejected_forgeries = 0;
      spam_salt = 0;
      state_transfers = 0;
      st_first_request = None;
      st_caught_up = None;
      data_root =
        (if p.Params.durable then
           Some (match p.Params.data_dir with Some d -> d | None -> fresh_data_root ())
         else None);
      footprint_of = lazy (make_footprint_fn p);
      obs = make_obs p sim;
      latencies = Stats.create ();
      on_complete = None;
      measuring = false;
      completed_txns = 0;
      total_completed = 0;
      completed_ops = 0;
      fast_txns = 0;
      cert_txns = 0;
      blocks_at_start = 0;
    }
  in
  let hosts = Array.init p.Params.n (fun id -> make_host t ~id) in
  let t = { t with hosts } in
  let deliver ~dst ~src payload =
    if dst < p.Params.n then deliver_replica t t.hosts.(dst) ~src payload
    else deliver_client t payload
  in
  let net =
    Net.create sim
      ~nodes:(p.Params.n + p.Params.client_machines)
      ~bandwidth_gbps:p.Params.bandwidth_gbps ~latency:p.Params.latency ~jitter:p.Params.jitter
      ~rng:(Rng.split rng) ~deliver ()
  in
  t.net <- Some net;
  if p.Params.loss_rate > 0.0 then Net.set_loss net p.Params.loss_rate;
  if p.Params.duplication_rate > 0.0 then Net.set_duplication net p.Params.duplication_rate;
  if p.Params.extra_jitter > 0 then Net.set_extra_jitter net p.Params.extra_jitter;
  (* Crash the chosen backups before traffic starts (Fig. 17). *)
  for i = 1 to p.Params.crashed_backups do
    Net.crash net (p.Params.n - i)
  done;
  Nemesis.install (driver t) p.Params.nemesis;
  (match t.obs with Some o -> install_series t o | None -> ());
  t

(* Seed the closed loop: every client submits one transaction, staggered
   over the first 50 ms so the initial burst does not arrive as one wall. *)
let start t =
  let p = t.p in
  let group = max 1 (min p.Params.batch_size 1000) in
  let remaining = ref p.Params.clients in
  let stagger = Sim.ms 50.0 in
  let groups = (p.Params.clients + group - 1) / group in
  let i = ref 0 in
  while !remaining > 0 do
    let k = min group !remaining in
    remaining := !remaining - k;
    let at = !i * stagger / max 1 groups in
    incr i;
    ignore (Sim.schedule_at t.sim ~at (fun () -> submit_group t (fresh_txns t k)))
  done

type snapshot = {
  snap_time : Sim.time;
  stage_occupied : (string * int) list array;  (** per host *)
  cpu_busy : int array;
  msgs : int;
  bytes : int;
  blocks : int;
}

let stages_of (h : host) =
  [ h.input_client; h.input_replica; h.output; h.worker; h.checkpoint_stage ]
  @ Array.to_list h.extra_workers
  @ (match h.batch_stage with Some s -> [ s ] | None -> [])
  @ (match h.exec_stage with Some s -> [ s ] | None -> [])
  @ (match h.exec_sched_stage with Some s -> [ s ] | None -> [])
  @ Array.to_list h.exec_lanes

let snapshot t =
  {
    snap_time = Sim.now t.sim;
    stage_occupied =
      Array.map (fun h -> List.map (fun s -> (Stage.name s, Stage.occupied_ns s)) (stages_of h)) t.hosts;
    cpu_busy = Array.map (fun h -> Cpu.busy_ns h.cpu) t.hosts;
    msgs = Net.messages_sent (net t);
    bytes = Net.bytes_sent (net t);
    blocks = Ledger.length t.hosts.(0).ledger;
  }

let sim t = t.sim

let params t = t.p

(* Hand the closed loop to an external owner (the shard deployment): on
   every batch completion the fresh transaction ids go to [sink] instead of
   being resubmitted here.  The sink decides where the replacement
   transactions go — usually back via {!submit_fresh}, sometimes into a
   cross-shard protocol first. *)
let set_completion_sink t sink = t.on_complete <- Some sink

(* Submit [k] brand-new transactions through the normal client path:
   exactly the replacement the closed loop would have made, so a sink that
   immediately calls [submit_fresh t k] reproduces the classic loop
   bit-for-bit. *)
let submit_fresh t k = if k > 0 then submit_group t (fresh_txns t k)

(* The id the next fresh transaction will get: ids are handed out
   sequentially, so a caller about to [submit_fresh t 1] knows the new
   transaction's id in advance (the shard deployment tracks its 2PC
   helper transactions this way). *)
let next_txn t = t.next_txn

let set_measuring t b = t.measuring <- b

(* ---- fault observability ---------------------------------------------------- *)

let current_view t = t.max_view

(* Highest installed view per consensus instance, observed cluster-wide
   (index = instance id; a single-element array for classic deployments). *)
let instance_views t =
  Array.init t.p.Params.instances (fun i ->
      if t.p.Params.instances = 1 then t.max_view else instance_view t i)

let retransmissions t = t.retransmissions

let duplicate_completions t = t.duplicate_completions

let total_completed t = t.total_completed

let verify_cache_stats t =
  Array.fold_left
    (fun (h, m) host ->
      ( h + Vcache.hits host.vcache + Vcache.hits host.dcache,
        m + Vcache.misses host.vcache + Vcache.misses host.dcache ))
    (0, 0) t.hosts

let time_to_recovery t =
  match (t.primary_crash_at, t.recovered_at) with
  | Some c, Some r -> Some (Sim.to_seconds (r - c))
  | _ -> None

let state_transfers t = t.state_transfers

(* First State_request broadcast to first successful segment install: how
   long the first laggard took to rejoin via state transfer. *)
let time_to_catch_up t =
  match (t.st_first_request, t.st_caught_up) with
  | Some a, Some b -> Some (Sim.to_seconds (b - a))
  | _ -> None

(* Ledger height of the healthiest replica minus the given replica's: the
   gap a state transfer would have to cover right now. *)
let ledger_gap t i =
  let best = Array.fold_left (fun acc h -> max acc (Ledger.next_seq h.ledger)) 0 t.hosts in
  best - Ledger.next_seq t.hosts.(i).ledger

let ledger_height t i = Ledger.next_seq t.hosts.(i).ledger - 1

(* Byzantine-defense evidence accumulated inside the consensus cores,
   summed cluster-wide. *)
let host_defenses t =
  Array.fold_left
    (fun (e, v) h ->
      let d = Core.defenses h.core in
      (e + d.Core.equivocations, v + d.Core.vc_suppressed))
    (0, 0) t.hosts

let rejected_forgeries t = t.rejected_forgeries

let equivocations_detected t = fst (host_defenses t)

let vc_spam_suppressed t = snd (host_defenses t)

let suppressed_sends t = Net.messages_suppressed (net t)

let fault_report t =
  let nw = net t in
  let equivocations_detected, vc_spam_suppressed = host_defenses t in
  {
    Metrics.msgs_dropped = Net.messages_dropped nw;
    msgs_duplicated = Net.messages_duplicated nw;
    retransmissions = t.retransmissions;
    view_changes = Array.fold_left (fun acc h -> max acc (core_view h)) 0 t.hosts;
    time_to_recovery_s = time_to_recovery t;
    state_transfers = t.state_transfers;
    time_to_catch_up_s = time_to_catch_up t;
    rejected_forgeries = t.rejected_forgeries;
    equivocations_detected;
    vc_spam_suppressed;
  }

(* Agreement across replicas: every retained chain verifies, and no two
   replicas hold different batches at the same sequence number.  (Quorum
   intersection makes divergence impossible in the absence of equivocation;
   this checks the whole simulation kept that promise under faults.) *)
let check_safety t =
  let ok = ref (Ok ()) in
  let fail fmt = Printf.ksprintf (fun s -> if !ok = Ok () then ok := Error s) fmt in
  let accept ~seq:_ ~digest:_ _ = true in
  let seen : (int, string * int) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun h ->
      (match Ledger.verify ~check_certificate:accept h.ledger with
      | Ok () -> ()
      | Error e -> fail "replica %d: ledger failed verification: %s" h.id e);
      Ledger.iter_retained h.ledger (fun (b : Block.t) ->
          match Hashtbl.find_opt seen b.Block.seq with
          | None -> Hashtbl.add seen b.Block.seq (b.Block.digest, h.id)
          | Some (d, other) ->
            if not (String.equal d b.Block.digest) then
              fail "divergence at seq %d: replica %d committed %S, replica %d committed %S"
                b.Block.seq other d h.id b.Block.digest))
    t.hosts;
  !ok

(* ---- observability output ---------------------------------------------------- *)

let trace_json t =
  match t.obs with None -> None | Some o -> Some (Trace.to_string o.trace)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Dump the requested observability files, stop the sampler (so a caller
   that keeps driving the clock does not keep sampling into the ring), and
   package breakdown + spans for {!Metrics}. *)
let obs_finish t =
  match t.obs with
  | None -> (None, [])
  | Some o ->
    (match o.series with Some s -> Series.stop s | None -> ());
    (match t.p.Params.trace_out with
    | Some path -> write_file path (Trace.to_string o.trace)
    | None -> ());
    (match (t.p.Params.trace_csv, o.series) with
    | Some path, Some s -> write_file path (Series.to_csv_string s)
    | _ -> ());
    ( Some o.bd,
      [
        { Metrics.phase = "batch"; time = o.span_batch };
        { Metrics.phase = "consensus"; time = o.span_consensus };
        { Metrics.phase = "execute"; time = o.span_execute };
        { Metrics.phase = "reply"; time = o.span_reply };
      ] )

type completion = Completed | Event_budget_exhausted

(* Metrics over the window between two snapshots: counters are deltas, the
   accumulating fields (latencies, completed counts) are whatever the
   [measuring] flag gated in.  Extracted from [measure_bounded] so a shard
   deployment — which drives warmup/measure across S clusters itself — can
   reuse the exact same accounting. *)
let metrics_between (t : t) (s0 : snapshot) (s1 : snapshot) : Metrics.t =
  let p = t.p in
  let window = Sim.to_seconds (s1.snap_time - s0.snap_time) in
  let replicas =
    Array.to_list
      (Array.mapi
         (fun i h ->
           let occ0 = s0.stage_occupied.(i) and occ1 = s1.stage_occupied.(i) in
           let stages =
             List.map2
               (fun (name, o0) (_, o1) ->
                 let workers =
                   List.fold_left
                     (fun acc s -> if Stage.name s = name then Stage.workers s else acc)
                     1 (stages_of h)
                 in
                 {
                   Metrics.stage = name;
                   percent =
                     (if window <= 0.0 then 0.0
                      else
                        100.0 *. float_of_int (o1 - o0)
                        /. (window *. 1e9 *. float_of_int workers));
                 })
               occ0 occ1
           in
           {
             Metrics.replica = i;
             is_primary = i = current_primary t;
             stages;
             cpu_utilization =
               (if window <= 0.0 then 0.0
                else
                  float_of_int (s1.cpu_busy.(i) - s0.cpu_busy.(i))
                  /. (window *. 1e9 *. float_of_int p.Params.cores));
           })
         t.hosts)
  in
  let breakdown, spans = obs_finish t in
  {
    Metrics.throughput_tps =
      (if window > 0.0 then float_of_int t.completed_txns /. window else 0.0);
    ops_per_second = (if window > 0.0 then float_of_int t.completed_ops /. window else 0.0);
    latency = t.latencies;
    completed_txns = t.completed_txns;
    fast_path_txns = t.fast_txns;
    cert_path_txns = t.cert_txns;
    replicas;
    messages_sent = s1.msgs - s0.msgs;
    bytes_sent = s1.bytes - s0.bytes;
    ledger_blocks = s1.blocks - s0.blocks;
    faults = fault_report t;
    breakdown;
    spans;
  }

let measure_bounded ?max_events (t : t) : Metrics.t * completion =
  let p = t.p in
  start t;
  let remaining = ref max_events in
  let run_to limit =
    match !remaining with
    | None ->
      Sim.run ~until:limit t.sim;
      true
    | Some budget -> (
      match Sim.run_bounded ~until:limit ~max_events:budget t.sim with
      | `Completed n ->
        remaining := Some (budget - n);
        true
      | `Exhausted ->
        remaining := Some 0;
        false)
  in
  let warm_ok = run_to p.Params.warmup in
  let s0 = snapshot t in
  t.measuring <- true;
  let meas_ok = warm_ok && run_to (p.Params.warmup + p.Params.measure) in
  t.measuring <- false;
  let s1 = snapshot t in
  let metrics = metrics_between t s0 s1 in
  (metrics, if meas_ok then Completed else Event_budget_exhausted)

let measure (t : t) : Metrics.t = fst (measure_bounded t)

(* Release OS resources held by durable backends (WAL + B-tree file
   handles); a no-op on in-memory deployments.  The fault campaign runs
   hundreds of clusters per process, so leaked descriptors would otherwise
   accumulate. *)
let close t = Array.iter (fun h -> Ledger.close h.ledger) t.hosts

let run_bounded ?max_events (p : Params.t) = measure_bounded ?max_events (create p)

let run (p : Params.t) : Metrics.t = measure (create p)
