(* A linear, leader-aggregated three-phase core in the HotStuff/PoE
   lineage, behind the same pure-state-machine discipline as
   {!Pbft_replica}: all I/O through {!Action.t} lists, all quorums keyed
   by digest so conflicting proposals split votes.

   Only the happy path lives here, and it is what differs from PBFT.
   Backups never talk to each other: each phase is one vote SENT to the
   leader, which aggregates 2f+1 matching votes into a quorum certificate
   (Hs_qc, standing in for a threshold signature) and broadcasts it.  Per
   decision that is O(n) messages over three phases instead of PBFT's two
   all-to-all O(n^2) rounds — the price is more one-way hops before
   commit.

   The unhappy path is deliberately NOT linear: leader replacement is the
   shared View_change/New_view sub-protocol of {!Replica_log} (with its
   spam rate limits), so the pacemaker is the hosting system's
   demand-timer escalation ladder unchanged, and the one-liar attack bench
   shows the protocol's signature — a cheap happy path and an expensive
   leader-failure path.  Execution hand-off and checkpoints are the
   envelope's too. *)

module Log = Replica_log

(* One consensus slot.  [qc] is the highest phase with a valid quorum
   certificate (0 = none, 3 = committed); [voted] the highest phase this
   replica has voted in.  Invariant: votes step with the QC chain —
   a replica votes phase p+1 only against a phase-p certificate (phase 1
   against the proposal itself), so [voted <= qc + 1] always. *)
type slot = {
  s_view : int;
  s_seq : int;
  mutable batch : Message.batch option;
  mutable parent : string; (* chain link carried by the proposal *)
  mutable voted : int;
  mutable qc : int;
  mutable qc_digest : string; (* digest the certificates bind ("" until one is seen) *)
  mutable committed : bool;
  mutable hole_requested : bool;
      (* one proposal retransmission request per slot (see Fill_hole) *)
  mutable qc_echoed_to : (int * int) list;
      (* peer -> highest certified phase already echoed to it: one echo
         per (peer, phase) bounds the answer traffic a duplicate-vote
         storm can draw (cf. Pbft_replica's per-peer vote echo) *)
  votes : (int * string) Quorum.t; (* leader side: (phase, digest) -> senders *)
}

type log = slot Log.t

type t = {
  log : log;
  mutable last_proposed : string;
      (* digest of the last batch this replica put in a slot it leads: the
         parent its next proposal chains to *)
}

let protocol = "hotstuff"
let genesis = "genesis"
let create config ~id = { log = Log.create config ~id; last_proposed = genesis }
let view t = t.log.view
let is_primary t = Log.is_primary t.log
let last_executed t = t.log.last_executed
let last_stable_checkpoint t = t.log.last_stable
let in_view_change t = t.log.in_view_change
let pending_slots t = Hashtbl.length t.log.slots
let equivocations_detected t = t.log.equivocations
let vc_spam_suppressed t = t.log.vc_suppressed
let stable_certificate t = t.log.stable_cert
let install_checkpoint t = Log.install_checkpoint t.log
let handle_executed t = Log.handle_executed t.log

let slot (t : log) ~view ~seq =
  match Hashtbl.find_opt t.slots (view, seq) with
  | Some s -> s
  | None ->
    let s =
      {
        s_view = view;
        s_seq = seq;
        batch = None;
        parent = "";
        voted = 0;
        qc = 0;
        qc_digest = "";
        committed = false;
        hole_requested = false;
        qc_echoed_to = [];
        votes = Quorum.create ();
      }
    in
    Hashtbl.add t.slots (view, seq) s;
    s

let commit (t : log) (s : slot) =
  match s.batch with
  | Some batch when not s.committed ->
    s.committed <- true;
    Hashtbl.replace t.committed_batches s.s_seq batch;
    Log.try_execute t
  | _ -> []

let vote (t : log) (s : slot) ~phase ~digest =
  Action.Send
    ( Log.leader_of t s.s_view,
      Message.Hs_vote { view = s.s_view; seq = s.s_seq; phase; digest; from = t.id } )

let certificate (t : log) (s : slot) =
  Message.Hs_qc
    {
      view = s.s_view;
      seq = s.s_seq;
      phase = s.qc;
      digest = s.qc_digest;
      senders = Quorum.senders s.votes (s.qc, s.qc_digest);
      from = t.id;
    }

(* A backup casts its next vote: phase [qc + 1], against the certificate
   chain as far as it has seen it (phase 1 against the bare proposal).
   Jumping is safe — a phase-p certificate transitively proves every
   earlier phase certified, so a backup that missed the phase-1
   certificate but holds the phase-2 one votes phase 3 directly. *)
let cast_vote (t : log) (s : slot) =
  match s.batch with
  | None -> []
  | Some b ->
    let digest = if s.qc > 0 then s.qc_digest else b.Message.digest in
    let target = s.qc + 1 in
    if
      target > 3
      || Log.leader_of t s.s_view = t.id
      || s.voted >= target
      || not (String.equal digest b.Message.digest)
    then []
    else begin
      s.voted <- target;
      [ vote t s ~phase:target ~digest ]
    end

(* Leader side: pool one vote and, on reaching 2f+1 distinct voters for
   the pending phase, assemble and broadcast the certificate, then act on
   it ourselves (vote the next phase into our own pool, or commit). *)
let rec leader_pool_vote (t : log) (s : slot) ~phase ~digest ~from =
  ignore (Quorum.add s.votes (phase, digest) from);
  maybe_assemble_qc t s ~digest

and maybe_assemble_qc (t : log) (s : slot) ~digest =
  let next = s.qc + 1 in
  if next > 3 then []
  else if Quorum.count s.votes (next, digest) < Config.qc_quorum t.config then []
  else begin
    s.qc <- next;
    s.qc_digest <- digest;
    let qc = certificate t s in
    let follow =
      if next < 3 then leader_pool_vote t s ~phase:(next + 1) ~digest ~from:t.id else commit t s
    in
    Action.Broadcast qc :: follow
  end

(* Store a proposal (from the wire, or re-proposed through New_view) and
   vote phase 1.  A conflicting proposal for an occupied slot is
   equivocation evidence: counted and dropped — votes are digest-keyed, so
   the conflicting copies split the vote pool and at most one digest can
   reach the 2f+1 certificate (2 * (2f+1) > n + 1 for f >= 1). *)
let accept_proposal h ~view ~parent ~(batch : Message.batch) =
  let t = h.log in
  let s = slot t ~view ~seq:batch.Message.seq in
  match s.batch with
  | Some existing when not (String.equal existing.Message.digest batch.Message.digest) ->
    t.equivocations <- t.equivocations + 1;
    []
  | Some _ -> []
  | None ->
    s.batch <- Some batch;
    s.parent <- parent;
    if Log.leader_of t view = t.id then begin
      (* our own (re-)proposal: chain the next one to it, and vote into
         our own pool *)
      h.last_proposed <- batch.Message.digest;
      leader_pool_vote t s ~phase:1 ~digest:batch.Message.digest ~from:t.id
    end
    else begin
      (* The commit certificate may have raced ahead of the (refetched)
         proposal: commit immediately once both are in hand. *)
      let committed =
        if s.qc >= 3 && String.equal s.qc_digest batch.Message.digest then commit t s else []
      in
      cast_vote t s @ committed
    end

let propose h ~reqs ~digest ~wire_bytes =
  let t = h.log in
  if (not (Log.is_primary t)) || t.in_view_change || not (Log.in_window t t.next_seq) then (None, [])
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let parent = h.last_proposed in
    let batch = { Message.view = t.view; seq; digest; reqs; wire_bytes } in
    let actions = accept_proposal h ~view:t.view ~parent ~batch in
    ( Some batch,
      Action.Broadcast (Message.Hs_proposal { view = t.view; seq; batch; parent; from = t.id })
      :: actions )
  end

(* ---- loss recovery -------------------------------------------------------- *)

(* A duplicate vote only arrives when its sender is stuck (nudging, or the
   network duplicated it): answer once per (slot, peer) with the highest
   certificate we hold, so a backup that lost a QC broadcast rejoins the
   phase ladder without a view change. *)
let echo_qc (t : log) (s : slot) ~dup ~target =
  let prev = Option.value ~default:0 (List.assoc_opt target s.qc_echoed_to) in
  if (not dup) || s.qc < 1 || s.qc <= prev then []
  else begin
    s.qc_echoed_to <- (target, s.qc) :: List.remove_assoc target s.qc_echoed_to;
    [ Action.Send (target, certificate t s) ]
  end

(* A certificate for a slot we hold no proposal for proves the proposal is
   long gone: fetch it eagerly (once; the demand timer's nudge is the
   backstop). *)
let maybe_fetch_batch (t : log) (s : slot) =
  if s.batch = None && (not s.hole_requested) && Log.leader_of t s.s_view <> t.id then begin
    s.hole_requested <- true;
    [ Log.fill_hole t ~view:s.s_view ~from_seq:s.s_seq ~to_seq:s.s_seq ]
  end
  else []

let proposal (t : log) (s : slot) batch =
  Message.Hs_proposal { view = s.s_view; seq = s.s_seq; batch; parent = s.parent; from = t.id }

(* Retransmission for a stuck slot.  A backup re-sends its current-phase
   vote (the duplicate makes the leader echo its highest certificate back
   — covering a lost vote AND a lost certificate with one exchange); the
   leader re-broadcasts its proposal and highest certificate. *)
let revote (t : log) (s : slot) (b : Message.batch) =
  if Log.leader_of t s.s_view = t.id then
    Action.Broadcast (proposal t s b)
    :: (if s.qc >= 1 then [ Action.Broadcast (certificate t s) ] else [])
  else if s.voted >= 1 then
    [ vote t s ~phase:s.voted ~digest:(if s.qc > 0 then s.qc_digest else b.Message.digest) ]
  else cast_vote t s

let ops h =
  {
    Log.batch = (fun s -> s.batch);
    (* The lock a view change must respect is the phase-1 certificate: a
       slot with [qc >= 1] could have committed in its view (the phase-3
       quorum intersects every phase-1 quorum), so the new leader must
       re-propose its batch.  This is exactly the role PBFT's prepared
       certificate plays, so the wire format is reused verbatim.  A view
       change restarts every re-proposed slot from phase 1: certificates
       from the old view are not carried forward, which is what makes the
       leader-failure path expensive next to the linear happy path. *)
    prepared = (fun s -> s.qc >= 1);
    adopt = (fun ~view batch -> accept_proposal h ~view ~parent:"" ~batch);
    proposal = proposal h.log;
    revote = revote h.log;
  }

let suspect_primary h = Log.suspect_primary h.log (ops h)
let view_change_retransmit h = Log.view_change_retransmit h.log (ops h)
let nudge h = Log.nudge h.log (ops h)

(* ---- message dispatch ----------------------------------------------------- *)

let distinct_senders senders = List.sort_uniq compare senders

let handle_message h (msg : Message.t) =
  let t = h.log in
  match msg with
  | Message.Hs_proposal { view; seq; batch; parent; from } ->
    if view <> t.view || t.in_view_change || from <> Log.leader_of t view then []
    else if not (Log.in_window t seq) then []
    else if seq <> batch.Message.seq then []
    else begin
      let before = t.equivocations in
      let actions = accept_proposal h ~view ~parent ~batch in
      if t.equivocations > before then
        (* Two conflicting proposals signed by one leader are transferable
           proof of equivocation: echo the conflicting copy so every
           replica sees the contradiction, and join the view change that
           rotates the leader out (the pacemaker's misbehavior path). *)
        (Action.Broadcast msg :: suspect_primary h) @ actions
      else actions
    end
  | Message.Hs_vote { view; seq; phase; digest; from } ->
    (* Votes are only meaningful at the leader of their view.  Votes for a
       HIGHER view are pooled in that view's slot — they come from
       replicas that installed the new view first. *)
    if view < t.view || (t.in_view_change && view = t.view) || not (Log.in_window t seq) then []
    else if Log.leader_of t view <> t.id || phase < 1 || phase > 3 then []
    else begin
      let s = slot t ~view ~seq in
      let dup = List.mem from (Quorum.senders s.votes (phase, digest)) in
      let pooled = leader_pool_vote t s ~phase ~digest ~from in
      let executed = Log.try_execute t in
      echo_qc t s ~dup ~target:from @ pooled @ executed
    end
  | Message.Hs_qc { view; seq; phase; digest; senders; from } ->
    if view < t.view || (t.in_view_change && view = t.view) || not (Log.in_window t seq) then []
    else if Log.leader_of t view <> from || phase < 1 || phase > 3 then []
    else if List.length (distinct_senders senders) < Config.qc_quorum t.config then
      (* An undersized certificate can never be honest output. *)
      []
    else begin
      let s = slot t ~view ~seq in
      match s.batch with
      | Some b when not (String.equal b.Message.digest digest) ->
        (* A valid certificate for a digest conflicting with our copy of
           the proposal: we are on the losing branch of an equivocation.
           Count the evidence and stay behind on this slot — the
           checkpoint quorum (or state transfer) will carry us past it. *)
        t.equivocations <- t.equivocations + 1;
        []
      | _ ->
        let fetch = maybe_fetch_batch t s in
        if phase > s.qc then begin
          s.qc <- phase;
          s.qc_digest <- digest
        end;
        let committed = if s.qc >= 3 then commit t s else [] in
        let voted = if s.qc < 3 then cast_vote t s else [] in
        fetch @ voted @ committed @ Log.try_execute t
    end
  | msg -> Log.handle_message t (ops h) msg
