(* PBFT's ordering phases (pre-prepare, prepare, commit) over the shared
   replication envelope: execution hand-off, checkpoints, view change and
   hole filling live in {!Replica_log}, which this module parameterises
   with its slot type. *)

module Log = Replica_log

type instance = {
  i_view : int;
  i_seq : int;
  mutable batch : Message.batch option;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable hole_requested : bool;
      (* one pre-prepare retransmission request per slot (see Fill_hole) *)
  mutable echoed_to : int list;
      (* peers already answered with an echo for this slot: an echo is itself
         a duplicate at its receiver, so unlimited echoing would ping-pong —
         and network duplication would seed such storms everywhere *)
  (* digest -> senders, so conflicting proposals cannot pool votes *)
  prepares : string Quorum.t;
  commits : string Quorum.t;
}

type t = instance Log.t

let protocol = "pbft"
let create = Log.create
let view (t : t) = t.view
let is_primary = Log.is_primary
let last_executed (t : t) = t.last_executed
let last_stable_checkpoint (t : t) = t.last_stable
let in_view_change (t : t) = t.in_view_change
let pending_slots (t : t) = Hashtbl.length t.slots
let equivocations_detected (t : t) = t.equivocations
let vc_spam_suppressed (t : t) = t.vc_suppressed
let stable_certificate (t : t) = t.stable_cert
let install_checkpoint = Log.install_checkpoint
let handle_executed = Log.handle_executed

let instance (t : t) ~view ~seq =
  match Hashtbl.find_opt t.slots (view, seq) with
  | Some i -> i
  | None ->
    let i =
      {
        i_view = view;
        i_seq = seq;
        batch = None;
        sent_prepare = false;
        sent_commit = false;
        committed = false;
        hole_requested = false;
        echoed_to = [];
        prepares = Quorum.create ();
        commits = Quorum.create ();
      }
    in
    Hashtbl.add t.slots (view, seq) i;
    i

let prepare_msg (t : t) (i : instance) d =
  Message.Prepare { view = i.i_view; seq = i.i_seq; digest = d; from = t.id }

let commit_msg (t : t) (i : instance) d =
  Message.Commit { view = i.i_view; seq = i.i_seq; digest = d; from = t.id }

(* Re-evaluates an instance after new evidence arrived. *)
let progress (t : t) (i : instance) =
  let actions = ref [] in
  (match i.batch with
  | None -> ()
  | Some batch ->
    let d = batch.Message.digest in
    (* Prepared: pre-prepare + 2f matching prepares (our own included once
       we sent it; the primary never sends prepare, matching PBFT). *)
    if (not i.sent_commit) && Quorum.count i.prepares d >= Config.prepare_quorum t.config then begin
      i.sent_commit <- true;
      ignore (Quorum.add i.commits d t.id);
      actions := Action.Broadcast (commit_msg t i d) :: !actions
    end;
    if (not i.committed) && Quorum.count i.commits d >= Config.commit_quorum t.config then begin
      i.committed <- true;
      Hashtbl.replace t.committed_batches i.i_seq batch
    end);
  !actions

let accept_pre_prepare (t : t) ~view ~(batch : Message.batch) =
  let i = instance t ~view ~seq:batch.Message.seq in
  match i.batch with
  | Some existing when not (String.equal existing.Message.digest batch.Message.digest) ->
    (* Conflicting proposal for an occupied slot: byzantine primary.
       Record the equivocation evidence and drop; because prepare/commit
       quorums are keyed by digest, the conflicting copies split votes and
       neither side can reach a quorum the other also reached (quorum
       intersection keeps safety), while the view change restores
       liveness by deposing the equivocator. *)
    t.equivocations <- t.equivocations + 1;
    []
  | Some _ -> []
  | None ->
    i.batch <- Some batch;
    let actions = ref [] in
    (* Backups answer with Prepare; the primary's pre-prepare stands for its
       prepare. *)
    if Log.leader_of t view <> t.id && not i.sent_prepare then begin
      i.sent_prepare <- true;
      ignore (Quorum.add i.prepares batch.Message.digest t.id);
      actions := [ Action.Broadcast (prepare_msg t i batch.Message.digest) ]
    end;
    (* Evaluation order matters: [progress] must record a commit before
       [try_execute] looks for executable batches. *)
    let advanced = progress t i in
    let executed = Log.try_execute t in
    !actions @ advanced @ executed

let propose (t : t) ~reqs ~digest ~wire_bytes =
  if (not (is_primary t)) || t.in_view_change || not (Log.in_window t t.next_seq) then (None, [])
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let batch = { Message.view = t.view; seq; digest; reqs; wire_bytes } in
    let actions = accept_pre_prepare t ~view:t.view ~batch in
    ( Some batch,
      Action.Broadcast (Message.Pre_prepare { view = t.view; seq; batch; from = t.id }) :: actions )
  end

(* ---- vote retransmission ------------------------------------------------- *)

(* A duplicate vote only ever arrives when the sender is retransmitting —
   either the network duplicated it or the sender is stuck and [nudge]ing.
   Answering with our own votes for the same slot tops the sender's quorum
   back up after its original copies were lost, without any cost on the
   loss-free path (where duplicates never occur).  At most one echo per
   (slot, peer): the echo arrives as a duplicate too, and answering
   duplicates of duplicates would double the traffic every round trip. *)
let echo_votes (t : t) (i : instance) ~dup ~target =
  if (not dup) || List.mem target i.echoed_to then []
  else
    match i.batch with
    | None -> []
    | Some b ->
      i.echoed_to <- target :: i.echoed_to;
      let d = b.Message.digest in
      let commit = if i.sent_commit then [ Action.Send (target, commit_msg t i d) ] else [] in
      let prepare = if i.sent_prepare then [ Action.Send (target, prepare_msg t i d) ] else [] in
      prepare @ commit

(* A full vote quorum pooled for a slot we hold no batch for proves the
   pre-prepare is long gone (it preceded every one of those votes): fetch it
   eagerly instead of waiting for the demand timer to notice the wedge.
   Once per slot; the timer-driven [nudge] is the backstop if the
   retransmission is itself lost. *)
let maybe_fetch_batch (t : t) (i : instance) ~digest =
  if
    i.batch = None
    && (not i.hole_requested)
    && Log.leader_of t i.i_view <> t.id
    && (Quorum.count i.commits digest >= Config.commit_quorum t.config
       || Quorum.count i.prepares digest >= Config.prepare_quorum t.config)
  then begin
    i.hole_requested <- true;
    [ Log.fill_hole t ~view:i.i_view ~from_seq:i.i_seq ~to_seq:i.i_seq ]
  end
  else []

(* Re-broadcast our votes for a stuck slot.  Under message loss a replica
   can be starved of prepares or commits the others already sent (exactly
   once, as the protocol specifies); the duplicates this produces make
   every peer echo its own votes back, restoring the starved quorum far
   more cheaply than a view change. *)
let revote (t : t) (i : instance) (b : Message.batch) =
  let d = b.Message.digest in
  let prepare =
    if i.sent_prepare && not i.sent_commit then [ Action.Broadcast (prepare_msg t i d) ] else []
  in
  let commit = if i.sent_commit then [ Action.Broadcast (commit_msg t i d) ] else [] in
  prepare @ commit

let ops (t : t) =
  {
    Log.batch = (fun i -> i.batch);
    prepared = (fun i -> i.sent_commit);
    adopt = (fun ~view batch -> accept_pre_prepare t ~view ~batch);
    proposal =
      (fun i batch -> Message.Pre_prepare { view = i.i_view; seq = i.i_seq; batch; from = t.id });
    revote = revote t;
  }

let suspect_primary t = Log.suspect_primary t (ops t)
let view_change_retransmit t = Log.view_change_retransmit t (ops t)
let nudge t = Log.nudge t (ops t)

(* ---- message dispatch ---------------------------------------------------- *)

(* A vote for [(view, seq)]: pool it, fetch a lost pre-prepare, echo a
   retransmitting sender, and advance the slot. *)
let note_vote (t : t) ~view ~seq ~digest ~from votes_of =
  let i = instance t ~view ~seq in
  let votes = votes_of i in
  let dup = List.mem from (Quorum.senders votes digest) in
  ignore (Quorum.add votes digest from);
  let fetch = maybe_fetch_batch t i ~digest in
  let advanced = progress t i in
  let executed = Log.try_execute t in
  fetch @ echo_votes t i ~dup ~target:from @ advanced @ executed

(* Mid view-change only current-view traffic is ignored; votes for a
   HIGHER view are buffered in their (view, seq) instance — they come from
   replicas that installed the new view first, and dropping them would
   starve the post-new-view quorums under message loss. *)
let admits_vote (t : t) ~view ~seq =
  not (view < t.view || (t.in_view_change && view = t.view) || not (Log.in_window t seq))

let handle_message (t : t) (msg : Message.t) =
  match msg with
  | Message.Pre_prepare { view; seq; batch; from } ->
    if view <> t.view || t.in_view_change || from <> Log.leader_of t view then []
    else if not (Log.in_window t seq) then []
    else if seq <> batch.Message.seq then []
    else begin
      let before = t.equivocations in
      let actions = accept_pre_prepare t ~view ~batch in
      if t.equivocations > before then
        (* Two conflicting pre-prepares signed by one primary are a
           transferable proof of misbehavior: echo the conflicting copy so
           every replica sees the contradiction for itself, and join the
           view change that deposes the equivocator.  Without this, only
           the replicas straddling the split would ever suspect, staying
           below the f+1 join threshold while their slot wedges. *)
        (Action.Broadcast msg :: suspect_primary t) @ actions
      else actions
    end
  | Message.Prepare { view; seq; digest; from } ->
    if not (admits_vote t ~view ~seq) then []
    else note_vote t ~view ~seq ~digest ~from (fun i -> i.prepares)
  | Message.Commit { view; seq; digest; from } ->
    if not (admits_vote t ~view ~seq) then []
    else note_vote t ~view ~seq ~digest ~from (fun i -> i.commits)
  | msg -> Log.handle_message t (ops t) msg
