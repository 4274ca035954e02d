type t = {
  config : Config.t;
  id : int;
  mutable view : int;
  mutable next_seq : int;
  mutable history : string; (* rolling digest over ordered batches *)
  mutable last_spec : int; (* last speculatively executed seq *)
  mutable last_exec_ack : int;
  mutable committed_upto : int;
  buffered : (int, Message.batch * string) Hashtbl.t; (* seq -> batch, history claim *)
  histories : (int, string) Hashtbl.t; (* seq -> our history after executing seq *)
  ordered_log : (int, Message.batch) Hashtbl.t;
      (* seq -> batch we ordered; kept until the checkpoint so fill-hole
         requests can be answered *)
  mutable hole_requested_upto : int; (* rate-limit duplicate fill-hole asks *)
  executed_batches : (int, Message.batch) Hashtbl.t;
  pending_certs : (int, Message.t list) Hashtbl.t; (* seq -> commit certs awaiting execution *)
  checkpoints : (int * string) Quorum.t;
  mutable equivocations : int;
      (* conflicting order-requests observed for an already-ordered slot:
         evidence of an equivocating primary (counted, then dropped) *)
}

let create config ~id =
  {
    config;
    id;
    view = 0;
    next_seq = 1;
    history = Rdb_crypto.Sha256.digest "zyzzyva-genesis";
    last_spec = 0;
    last_exec_ack = 0;
    committed_upto = 0;
    buffered = Hashtbl.create 64;
    histories = Hashtbl.create 256;
    ordered_log = Hashtbl.create 256;
    hole_requested_upto = 0;
    executed_batches = Hashtbl.create 64;
    pending_certs = Hashtbl.create 16;
    checkpoints = Quorum.create ();
    equivocations = 0;
  }

let id t = t.id
let is_primary t = Config.primary_of_view t.config t.view = t.id
let history t = t.history
let last_spec_executed t = t.last_spec
let committed_upto t = t.committed_upto
let equivocations_detected t = t.equivocations

let extend_history t digest = Rdb_crypto.Sha256.digest (t.history ^ digest)

(* Speculative execution: drain the buffer in sequence order, extending the
   history chain and handing batches to the execution layer.

   Before speculating on a batch the replica checks the primary's history
   claim: the order-request's [history] must equal H(h_{n-1} || d_n) over
   the replica's own chain (Zyzzyva §4.1 step 2).  An equivocating primary
   cannot satisfy both branches of a split — whichever copy carries a
   digest the claim does not chain over is a proof of misbehavior, dropped
   here without executing, so a replica on the losing branch wedges at the
   fork instead of diverging; fill-hole retransmission repairs the gap once
   an honest copy is available. *)
let drain t =
  let actions = ref [] in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.buffered (t.last_spec + 1) with
    | Some (batch, claimed) ->
      Hashtbl.remove t.buffered (t.last_spec + 1);
      let expected = extend_history t batch.Message.digest in
      if not (String.equal claimed expected) then begin
        t.equivocations <- t.equivocations + 1;
        continue := false
      end
      else begin
        t.history <- expected;
        t.last_spec <- batch.Message.seq;
        Hashtbl.replace t.histories batch.Message.seq t.history;
        Hashtbl.replace t.executed_batches batch.Message.seq batch;
        Hashtbl.replace t.ordered_log batch.Message.seq batch;
        actions := Action.Execute batch :: !actions
      end
    | None -> continue := false
  done;
  List.rev !actions

let order t (batch : Message.batch) ~claim =
  Hashtbl.replace t.buffered batch.Message.seq (batch, claim);
  drain t

let propose t ~reqs ~digest ~wire_bytes =
  if not (is_primary t) then (None, [])
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let batch = { Message.view = t.view; seq; digest; reqs; wire_bytes } in
    let claimed = Rdb_crypto.Sha256.digest (t.history ^ digest) in
    let actions = order t batch ~claim:claimed in
    ( Some batch,
      Action.Broadcast
        (Message.Order_request { view = t.view; seq; batch; history = claimed; from = t.id })
      :: actions )
  end

let ack_commit_cert t ~seq ~client =
  [ Action.Send_client (client, Message.Local_commit { view = t.view; seq; client; from = t.id }) ]

let handle_message t (msg : Message.t) =
  match msg with
  | Message.Order_request { view; seq; batch; history; from } ->
    if view <> t.view || from <> Config.primary_of_view t.config view then []
    else if seq <= t.last_spec || Hashtbl.mem t.buffered seq then begin
      (* The slot is already ordered; a different digest for it is
         equivocation evidence against the primary.  The conflicting copy
         is dropped either way — the history chain diverges at the first
         disagreement, so the client can never collect matching replies
         across the two branches. *)
      let ordered_digest =
        match Hashtbl.find_opt t.buffered seq with
        | Some (b, _) -> Some b.Message.digest
        | None -> (
          match Hashtbl.find_opt t.ordered_log seq with
          | Some b -> Some b.Message.digest
          | None -> None)
      in
      (match ordered_digest with
      | Some d when not (String.equal d batch.Message.digest) ->
        t.equivocations <- t.equivocations + 1
      | _ -> ());
      []
    end
    else begin
      let executed = order t batch ~claim:history in
      (* A gap means earlier Order-requests were lost: ask the primary to
         fill the hole (Zyzzyva's fill-hole sub-protocol), once per gap. *)
      let gap_end = seq - 1 in
      if t.last_spec < gap_end && t.hole_requested_upto < gap_end then begin
        t.hole_requested_upto <- gap_end;
        Action.Send
          ( Config.primary_of_view t.config t.view,
            Message.Fill_hole
              { view = t.view; from_seq = t.last_spec + 1; to_seq = gap_end; from = t.id } )
        :: executed
      end
      else executed
    end
  | Message.Fill_hole { view; from_seq; to_seq; from } ->
    if view <> t.view || not (is_primary t) then []
    else
      (* Resend what we still have; anything older than the last stable
         checkpoint is gone, and the requester will catch up from the
         checkpoint instead. *)
      List.filter_map
        (fun seq ->
          match Hashtbl.find_opt t.ordered_log seq with
          | Some batch ->
            let history = Option.value ~default:"" (Hashtbl.find_opt t.histories seq) in
            Some (Action.Send (from, Message.Order_request { view; seq; batch; history; from = t.id }))
          | None -> None)
        (List.init (max 0 (to_seq - from_seq + 1)) (fun i -> from_seq + i))
  | Message.Commit_cert { seq; digest; client; _ } ->
    (match Hashtbl.find_opt t.histories seq with
    | Some h ->
      (* Executed already: the certificate's history must match ours. *)
      if not (String.equal h digest) then []
      else begin
        t.committed_upto <- max t.committed_upto seq;
        ack_commit_cert t ~seq ~client
      end
    | None ->
      if seq <= t.last_spec then begin
        (* Executed but the history entry was garbage-collected by a stable
           checkpoint — which itself proves 2f+1 replicas agreed on the
           state, so acknowledging is safe. *)
        t.committed_upto <- max t.committed_upto seq;
        ack_commit_cert t ~seq ~client
      end
      else begin
        (* Not executed yet: remember and ack when execution catches up. *)
        let existing = Option.value ~default:[] (Hashtbl.find_opt t.pending_certs seq) in
        Hashtbl.replace t.pending_certs seq (msg :: existing);
        []
      end)
  | Message.Checkpoint { seq; state_digest; from } ->
    let n = Quorum.add t.checkpoints (seq, state_digest) from in
    if n = Config.commit_quorum t.config then begin
      Quorum.filter_keys t.checkpoints (fun (s, _) -> s > seq);
      let stale =
        Hashtbl.fold (fun s _ acc -> if s <= seq then s :: acc else acc) t.histories []
      in
      List.iter (Hashtbl.remove t.histories) stale;
      let stale_log =
        Hashtbl.fold (fun s _ acc -> if s <= seq then s :: acc else acc) t.ordered_log []
      in
      List.iter (Hashtbl.remove t.ordered_log) stale_log;
      [ Action.Stable_checkpoint seq ]
    end
    else []
  | _ -> []

let handle_executed t ~seq ~state_digest ~result =
  if seq <= t.last_exec_ack then []
  else if seq <> t.last_exec_ack + 1 then
    invalid_arg "Zyzzyva_replica.handle_executed: out of order"
  else begin
    t.last_exec_ack <- seq;
    match Hashtbl.find_opt t.executed_batches seq with
    | None -> []
    | Some batch ->
      Hashtbl.remove t.executed_batches seq;
      let h = Option.value ~default:t.history (Hashtbl.find_opt t.histories seq) in
      ignore result;
      let replies =
        List.map
          (fun (r : Message.request_ref) ->
            Action.Send_client
              ( r.Message.client,
                Message.Spec_reply
                  {
                    view = batch.Message.view;
                    seq;
                    txn_id = r.Message.txn_id;
                    client = r.Message.client;
                    from = t.id;
                    history = h;
                  } ))
          batch.Message.reqs
      in
      let cert_acks =
        match Hashtbl.find_opt t.pending_certs seq with
        | None -> []
        | Some certs ->
          Hashtbl.remove t.pending_certs seq;
          List.concat_map
            (function
              | Message.Commit_cert { seq; client; _ } ->
                t.committed_upto <- max t.committed_upto seq;
                ack_commit_cert t ~seq ~client
              | _ -> [])
            certs
      in
      let checkpoint =
        if Replica_log.checkpoint_due t.config ~seq then
          [ Action.Broadcast (Message.Checkpoint { seq; state_digest; from = t.id }) ]
        else []
      in
      replies @ cert_acks @ checkpoint
  end
