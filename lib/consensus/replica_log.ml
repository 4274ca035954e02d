(** The replication envelope around an ordering core: everything the PBFT
    and HotStuff cores share, written once.  Each core keeps its slots in
    a ['slot t] and runs only its own ordering phases (pre-prepare /
    prepare / commit, or proposal / vote / QC); what the envelope needs to
    know about a slot it asks through an {!ops} record.  The envelope
    owns:

    - the committed -> executed hand-off: [Execute] actions in strict
      sequence order, then client replies and (on a checkpoint boundary,
      {!checkpoint_due}) the Checkpoint broadcast once the host reports a
      batch executed;
    - the checkpoint sub-protocol: the 2f+1 quorum, the retained stable
      certificate, adoption by a replica that fell behind, garbage
      collection, and the state-transfer {!install_checkpoint};
    - the view-change sub-protocol: the spam-limited [View_change]
      handler with its f+1 join, New_view assembly (the highest-view
      prepared proof per slot, no-ops in the gaps) and adoption, the
      New_view re-send to laggards, and [Fill_hole] requests and answers.

    Action lists come out in one fixed order, which the deterministic
    simulator's byte-identical runs depend on.  Fields are public: a core
    reads and advances them from its phase handlers. *)

type 'slot t = {
  config : Config.t;
  id : int;
  mutable view : int;
  mutable next_seq : int; (* the primary's sequence counter *)
  mutable last_executed : int; (* highest seq handed to the execution layer *)
  mutable last_exec_ack : int; (* highest seq the execution layer confirmed *)
  mutable last_stable : int;
  mutable in_view_change : bool;
  mutable vc_target : int; (* view we are trying to move to *)
  slots : (int * int, 'slot) Hashtbl.t; (* (view, seq) *)
  committed_batches : (int, Message.batch) Hashtbl.t; (* seq -> batch, awaiting execution *)
  executed_batches : (int, Message.batch) Hashtbl.t; (* seq -> batch, awaiting executed-callback *)
  checkpoints : (int * string) Quorum.t; (* (seq, state digest) *)
  view_changes : int Quorum.t; (* new-view number *)
  vc_messages : (int, (int * Message.prepared_proof list) list) Hashtbl.t;
      (* new-view -> (sender, prepared proofs) *)
  mutable last_new_view : Message.t option;
      (* the New_view we broadcast as primary, kept to answer laggards whose
         view-change messages were lost *)
  mutable stable_cert : (int * string * int list) option;
      (* the 2f+1 senders behind the last stable checkpoint, retained after
         the quorum table is garbage-collected so a state-transfer donor can
         ship the certificate *)
  mutable equivocations : int;
      (* conflicting proposals observed for an occupied slot: evidence of an
         equivocating primary (each conflict is counted, then dropped) *)
  mutable vc_suppressed : int;
      (* view-change messages discarded by the spam rate limit below *)
  vc_registered : (int, int list) Hashtbl.t;
      (* sender -> distinct pending new-views it has registered above our
         current view; bounds how much view-change state one byzantine
         peer can make us hold *)
}

(** What the envelope asks a core about its slots. *)
type 'slot ops = {
  batch : 'slot -> Message.batch option;  (** the slot's proposal, once held *)
  prepared : 'slot -> bool;
      (** the slot is locked: a view change must carry its batch forward *)
  adopt : view:int -> Message.batch -> Action.t list;
      (** a batch from an installed New_view re-enters the core's phases *)
  proposal : 'slot -> Message.batch -> Message.t;
      (** the leader's proposal message for a held slot, re-sent to fill a
          hole *)
  revote : 'slot -> Message.batch -> Action.t list;
      (** retransmit this replica's part in a stuck slot (see {!nudge}) *)
}

(** The interface both single-instance cores present ({!Core} packs either
    through it). *)
module type REPLICA = sig
  type t

  val protocol : string
  (** the name {!Core.protocol} reports *)

  val create : Config.t -> id:int -> t

  val view : t -> int

  val is_primary : t -> bool
  (** whether this replica leads the current view (round-robin with the
      view number) *)

  val last_executed : t -> int

  val last_stable_checkpoint : t -> int

  val in_view_change : t -> bool

  val propose :
    t ->
    reqs:Message.request_ref list ->
    digest:string ->
    wire_bytes:int ->
    Message.batch option * Action.t list
  (** Primary only: assign the next sequence number to a batch and emit its
      proposal.  Returns [None] (and no actions) when this replica is not
      the primary, is mid view-change, or the window is full. *)

  val handle_message : t -> Message.t -> Action.t list
  (** Feed one protocol message.  Unknown views / stale sequence numbers
      are ignored; duplicates are idempotent. *)

  val handle_executed : t -> seq:int -> state_digest:string -> result:string -> Action.t list
  (** The hosting system reports that the batch at [seq] finished
      executing.  Must be called in sequence order (execution is in-order
      by design).  Emits client Replies and, on checkpoint boundaries, a
      Checkpoint broadcast. *)

  val suspect_primary : t -> Action.t list
  (** Trigger a view change towards view+1 (the hosting system decides
      when — typically a client-request timer).  Idempotent while a view
      change to the same view is in flight. *)

  val view_change_retransmit : t -> Action.t list
  (** Re-broadcast the pending View_change message (with refreshed
      prepared proofs).  Empty when no view change is in flight.  The
      hosting system's demand timer calls this so the view-change quorum
      survives message loss. *)

  val nudge : t -> Action.t list
  (** Retransmit this replica's part in the oldest unexecuted slot, so a
      quorum starved by message loss refills without a view change; a slot
      whose proposal was lost asks the primary to fill the hole.  Empty
      when nothing is stuck, the slot is outside the window, or a view
      change is in flight.  The hosting system's demand timer calls this
      one timeout before escalating to {!suspect_primary}. *)

  val pending_slots : t -> int
  (** Consensus slots currently tracked (tests check garbage collection
      with it). *)

  val equivocations_detected : t -> int
  (** Conflicting proposals observed for an occupied slot: evidence of an
      equivocating primary.  Each conflict is counted once, then
      dropped. *)

  val vc_spam_suppressed : t -> int
  (** View-change messages discarded by the per-sender rate limit (view
      numbers beyond the skew horizon, or more distinct pending views than
      one peer may register). *)

  val stable_certificate : t -> (int * string * int list) option
  (** The last stable checkpoint as [(seq, state_digest, senders)]: the
      2f+1 replicas whose matching Checkpoint messages made it stable.
      Retained across the quorum table's garbage collection so a
      state-transfer donor can ship the certificate.  [None] until the
      first stable checkpoint (and after {!install_checkpoint}, where the
      certificate arrived from the donor instead of from our own quorum —
      senders are then []). *)

  val install_checkpoint : t -> seq:int -> state_digest:string -> unit
  (** State-transfer admit: fast-forward this core to the stable
      checkpoint at [seq] exactly as a 2f+1 Checkpoint quorum would
      (garbage-collecting slots and pending batches at or below it),
      without emitting actions — the host has already installed the
      transferred ledger segment.  A no-op when [seq] is not beyond the
      current stable checkpoint. *)
end

(* View-change spam limits: a sender may register at most
   [max_pending_vcs] distinct future views, none further than
   [max_vc_skew] views ahead of ours.  Honest replicas advance their
   view-change target one view at a time, so legitimate traffic sits far
   inside both bounds; a spammer flooding fabricated view numbers is
   clipped after a handful of table entries. *)
let max_vc_skew = 8
let max_pending_vcs = 4

let create config ~id =
  {
    config;
    id;
    view = 0;
    next_seq = 1;
    last_executed = 0;
    last_exec_ack = 0;
    last_stable = 0;
    in_view_change = false;
    vc_target = 0;
    slots = Hashtbl.create 256;
    committed_batches = Hashtbl.create 64;
    executed_batches = Hashtbl.create 64;
    checkpoints = Quorum.create ();
    view_changes = Quorum.create ();
    vc_messages = Hashtbl.create 8;
    last_new_view = None;
    stable_cert = None;
    equivocations = 0;
    vc_suppressed = 0;
    vc_registered = Hashtbl.create 8;
  }

let leader_of t view = Config.primary_of_view t.config view
let is_primary t = leader_of t t.view = t.id
let in_window t seq = seq > t.last_stable && seq <= t.last_stable + t.config.Config.high_water_mark

(** The checkpoint rule every core follows: a replica checkpoints after
    executing each multiple of [checkpoint_interval]. *)
let checkpoint_due (config : Config.t) ~seq = seq mod config.Config.checkpoint_interval = 0

(* Ask [view]'s primary to re-send its proposals for [from_seq .. to_seq]
   (the fill-hole message reused from Zyzzyva). *)
let fill_hole t ~view ~from_seq ~to_seq =
  Action.Send (leader_of t view, Message.Fill_hole { view; from_seq; to_seq; from = t.id })

(* ---- execution hand-off ---------------------------------------------------- *)

(** Emits Execute actions for every committed batch that is next in order
    (slots commit out of order; execution is in order). *)
let try_execute t =
  let actions = ref [] in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.committed_batches (t.last_executed + 1) with
    | Some batch ->
      Hashtbl.remove t.committed_batches batch.Message.seq;
      Hashtbl.replace t.executed_batches batch.Message.seq batch;
      t.last_executed <- batch.Message.seq;
      actions := Action.Execute batch :: !actions
    | None -> continue := false
  done;
  List.rev !actions

(* ---- checkpoints ------------------------------------------------------------ *)

let drop_upto tbl ~seq seq_of =
  Hashtbl.fold (fun k _ acc -> if seq_of k <= seq then k :: acc else acc) tbl []
  |> List.iter (Hashtbl.remove tbl)

(* The checkpoint at [seq] is stable.  A replica that fell behind adopts
   it (the certificate stands in for the batches it missed); everything at
   or below it is garbage-collected. *)
let stabilise t ~seq ~state_digest ~senders =
  t.last_stable <- seq;
  t.stable_cert <- Some (seq, state_digest, senders);
  if t.last_executed < seq then begin
    t.last_executed <- seq;
    t.last_exec_ack <- max t.last_exec_ack seq;
    drop_upto t.committed_batches ~seq Fun.id
  end;
  drop_upto t.slots ~seq snd;
  Quorum.filter_keys t.checkpoints (fun (s, _) -> s > seq);
  drop_upto t.executed_batches ~seq Fun.id

let note_checkpoint t ~seq ~state_digest ~from =
  let n = Quorum.add t.checkpoints (seq, state_digest) from in
  if n >= Config.commit_quorum t.config && seq > t.last_stable then begin
    (* Retain the certificate before the quorum table is collected: a
       state-transfer donor ships it as proof of the checkpoint. *)
    stabilise t ~seq ~state_digest ~senders:(Quorum.senders t.checkpoints (seq, state_digest));
    [ Action.Stable_checkpoint seq ]
  end
  else []

(** State-transfer admit: the verified checkpoint certificate plays the
    role of the 2f+1 Checkpoint messages, so the core fast-forwards exactly
    as a stable checkpoint would — without emitting a [Stable_checkpoint]
    action (the host already installed the transferred ledger segment). *)
let install_checkpoint t ~seq ~state_digest =
  if seq > t.last_stable then begin
    stabilise t ~seq ~state_digest ~senders:[];
    t.next_seq <- max t.next_seq (seq + 1)
  end

let handle_executed t ~seq ~state_digest ~result =
  if seq <= t.last_exec_ack then []
  else if seq <> t.last_exec_ack + 1 then invalid_arg "Replica_log.handle_executed: out of order"
  else begin
    t.last_exec_ack <- seq;
    match Hashtbl.find_opt t.executed_batches seq with
    | None -> []
    | Some batch ->
      Hashtbl.remove t.executed_batches seq;
      let replies =
        List.map
          (fun (r : Message.request_ref) ->
            Action.Send_client
              ( r.Message.client,
                Message.Reply
                  {
                    view = batch.Message.view;
                    seq;
                    txn_id = r.Message.txn_id;
                    client = r.Message.client;
                    from = t.id;
                    result;
                  } ))
          batch.Message.reqs
      in
      let checkpoint =
        if checkpoint_due t.config ~seq then
          Action.Broadcast (Message.Checkpoint { seq; state_digest; from = t.id })
          :: note_checkpoint t ~seq ~state_digest ~from:t.id
        else []
      in
      replies @ checkpoint
  end

(* ---- view change ------------------------------------------------------------ *)

(* Prepared proofs: locked slots above the stable checkpoint, reported with
   their batch so the new primary can re-propose. *)
let prepared_proofs t ops =
  Hashtbl.fold
    (fun (v, s) slot acc ->
      if s > t.last_stable && ops.prepared slot then
        match ops.batch slot with
        | Some b -> { Message.p_view = v; p_seq = s; p_digest = b.Message.digest; p_batch = b } :: acc
        | None -> acc
      else acc)
    t.slots []

let start_view_change t ops ~target =
  if t.in_view_change && t.vc_target >= target then []
  else begin
    t.in_view_change <- true;
    t.vc_target <- target;
    let prepared = prepared_proofs t ops in
    (* Count our own view-change towards the quorum. *)
    ignore (Quorum.add t.view_changes target t.id);
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.vc_messages target) in
    if not (List.mem_assoc t.id existing) then
      Hashtbl.replace t.vc_messages target ((t.id, prepared) :: existing);
    [
      Action.Broadcast
        (Message.View_change { new_view = target; last_stable = t.last_stable; prepared; from = t.id });
    ]
  end

let suspect_primary t ops = start_view_change t ops ~target:(t.view + 1)

(* Re-broadcast our pending View_change: view-change messages carry no
   retransmission of their own, so under loss the quorum can starve without
   this (the hosting system's timer calls it while the change is stuck). *)
let view_change_retransmit t ops =
  if not t.in_view_change then []
  else
    [
      Action.Broadcast
        (Message.View_change
           {
             new_view = t.vc_target;
             last_stable = t.last_stable;
             prepared = prepared_proofs t ops;
             from = t.id;
           });
    ]

(* Move into [view].  Spam registrations at or below it are settled and no
   longer count against their sender's budget. *)
let enter_view t view =
  t.view <- view;
  t.in_view_change <- false;
  Hashtbl.filter_map_inplace
    (fun _ vs -> match List.filter (fun v -> v > t.view) vs with [] -> None | vs -> Some vs)
    t.vc_registered

(* The new primary assembles New_view once it has a 2f+1 view-change
   quorum: for every sequence number above the stable checkpoint that is
   prepared in any view-change message, it re-proposes the batch with the
   highest view, and fills gaps with no-ops so execution stays gap-free.
   Every re-proposed slot restarts the core's phases in the new view. *)
let maybe_new_view t ops ~target =
  if leader_of t target <> t.id then []
  else if Quorum.count t.view_changes target < Config.commit_quorum t.config then []
  else if t.view >= target then []
  else begin
    let vcs = Option.value ~default:[] (Hashtbl.find_opt t.vc_messages target) in
    let best : (int, Message.prepared_proof) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun (_, proofs) ->
        List.iter
          (fun (p : Message.prepared_proof) ->
            match Hashtbl.find_opt best p.Message.p_seq with
            | Some q when q.Message.p_view >= p.Message.p_view -> ()
            | _ -> Hashtbl.replace best p.Message.p_seq p)
          proofs)
      vcs;
    let max_seq = Hashtbl.fold (fun s _ acc -> max s acc) best t.last_stable in
    let pre_prepares =
      List.init (max_seq - t.last_stable) (fun i ->
          let seq = t.last_stable + 1 + i in
          match Hashtbl.find_opt best seq with
          | Some p -> { p.Message.p_batch with Message.view = target }
          | None ->
            { Message.view = target; seq; digest = "noop:" ^ string_of_int seq; reqs = []; wire_bytes = 0 })
    in
    enter_view t target;
    t.next_seq <- max_seq + 1;
    let nv =
      Message.New_view
        { view = target; vc_senders = Quorum.senders t.view_changes target; pre_prepares; from = t.id }
    in
    t.last_new_view <- Some nv;
    Action.Broadcast nv :: List.concat_map (ops.adopt ~view:target) pre_prepares
  end

let handle_view_change t ops ~new_view ~prepared ~from =
  if new_view <= t.view then begin
    (* A laggard still trying to leave a view we already left: if we are
       the primary that installed the current view, re-send our New_view
       so it can catch up (re-adoption is idempotent). *)
    match t.last_new_view with
    | Some (Message.New_view { view; _ } as nv) when view = t.view && is_primary t ->
      [ Action.Send (from, nv) ]
    | _ -> []
  end
  else begin
    (* Spam rate limit: clip view numbers beyond any plausible horizon,
       and cap how many distinct future views one sender may register.
       Registration is idempotent, so honest retransmissions of a
       pending view-change pass through unharmed. *)
    let registered = Option.value ~default:[] (Hashtbl.find_opt t.vc_registered from) in
    let fresh = not (List.mem new_view registered) in
    if new_view > t.view + max_vc_skew || (fresh && List.length registered >= max_pending_vcs) then begin
      t.vc_suppressed <- t.vc_suppressed + 1;
      []
    end
    else begin
      if fresh then Hashtbl.replace t.vc_registered from (new_view :: registered);
      ignore (Quorum.add t.view_changes new_view from);
      let existing = Option.value ~default:[] (Hashtbl.find_opt t.vc_messages new_view) in
      if not (List.mem_assoc from existing) then
        Hashtbl.replace t.vc_messages new_view ((from, prepared) :: existing);
      (* Join the view change once f+1 replicas vouch for it (liveness). *)
      let join =
        if
          Quorum.count t.view_changes new_view >= t.config.Config.f + 1
          && not (t.in_view_change && t.vc_target >= new_view)
        then start_view_change t ops ~target:new_view
        else []
      in
      (* [join] may have added our own view-change to the quorum, so the
         new-view check must run after it. *)
      let nv = maybe_new_view t ops ~target:new_view in
      join @ nv
    end
  end

let handle_new_view t ops ~view ~(pre_prepares : Message.batch list) ~from =
  if view < t.view || leader_of t view <> from then []
  else begin
    enter_view t view;
    List.concat_map (ops.adopt ~view) pre_prepares
  end

(* ---- hole filling ----------------------------------------------------------- *)

(* Re-send the proposals a backup wedged on lost ones asked for; the votes
   it has pooled fire as soon as they land. *)
let serve_fill_hole t ops ~view ~from_seq ~to_seq ~from =
  if view <> t.view || not (is_primary t) || t.in_view_change then []
  else
    List.filter_map
      (fun seq ->
        match Hashtbl.find_opt t.slots (t.view, seq) with
        | Some slot -> Option.map (fun b -> Action.Send (from, ops.proposal slot b)) (ops.batch slot)
        | None -> None)
      (List.init (max 0 (to_seq - from_seq + 1)) (fun i -> from_seq + i))

(** Demand-timer retransmission for the oldest unexecuted slot.  The slot
    may have been proposed in an earlier view we since left, so its highest
    incarnation is re-voted ([ops.revote]).  A slot whose proposal was lost
    would wedge the replica there forever, so for a batchless slot we
    instead ask the primary to re-send the contiguous run of batchless
    slots (at most 64) in one request. *)
let nudge t ops =
  if t.in_view_change then []
  else begin
    let seq = t.last_executed + 1 in
    if not (in_window t seq) then []
    else begin
      let fetch_hole () =
        if is_primary t then []
        else begin
          let have = Hashtbl.create 64 in
          Hashtbl.iter (fun (_, s) slot -> if ops.batch slot <> None then Hashtbl.replace have s ()) t.slots;
          let to_seq = ref seq in
          while !to_seq - seq < 63 && in_window t (!to_seq + 1) && not (Hashtbl.mem have (!to_seq + 1)) do
            incr to_seq
          done;
          [ fill_hole t ~view:t.view ~from_seq:seq ~to_seq:!to_seq ]
        end
      in
      let best =
        Hashtbl.fold
          (fun (v, s) slot acc ->
            if s <> seq then acc else match acc with Some (w, _) when w >= v -> acc | _ -> Some (v, slot))
          t.slots None
      in
      match best with
      | None -> fetch_hole ()
      | Some (_, slot) -> (
        match ops.batch slot with None -> fetch_hole () | Some b -> ops.revote slot b)
    end
  end

(* ---- message dispatch ------------------------------------------------------- *)

(** The envelope's share of a core's inbound traffic: checkpoints, view
    change and hole filling.  A core handles its own ordering phases
    before handing the rest here. *)
let handle_message t ops (msg : Message.t) =
  match msg with
  | Message.Checkpoint { seq; state_digest; from } -> note_checkpoint t ~seq ~state_digest ~from
  | Message.View_change { new_view; prepared; from; _ } ->
    handle_view_change t ops ~new_view ~prepared ~from
  | Message.New_view { view; pre_prepares; from; _ } -> handle_new_view t ops ~view ~pre_prepares ~from
  | Message.Fill_hole { view; from_seq; to_seq; from } ->
    serve_fill_hole t ops ~view ~from_seq ~to_seq ~from
  | Message.Pre_prepare _ | Message.Prepare _ | Message.Commit _ | Message.Hs_proposal _
  | Message.Hs_vote _ | Message.Hs_qc _ | Message.Order_request _ | Message.Commit_cert _ ->
    (* Ordering phases: the core's own never reach here, and another
       protocol's traffic is not ours. *)
    []
  | Message.State_request _ | Message.State_response _ ->
    (* State transfer is served and admitted at the host level (it moves
       ledger segments, which the core never holds). *)
    []
  | Message.Reply _ | Message.Spec_reply _ | Message.Local_commit _ ->
    (* Client-bound messages never reach a replica core. *)
    []
