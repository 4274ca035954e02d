(** Wire messages for both protocol families.

    The consensus cores are payload-agnostic: a batch carries opaque
    request references plus size metadata; the hosting system keeps the
    actual transaction bodies and looks them up at execution time.  This is
    the same layering as ResilientDB's typed message classes over raw
    buffers (§4.8). *)

type request_ref = { client : int; txn_id : int }

type batch = {
  view : int;
  seq : int;
  digest : string;  (** digest over the single string representation of the
                        whole batch, as in §4.3 *)
  reqs : request_ref list;
  wire_bytes : int;  (** serialized size of the request payload *)
}

(** A prepared certificate carried in view-change messages: evidence that a
    batch could have committed in an earlier view. *)
type prepared_proof = { p_view : int; p_seq : int; p_digest : string; p_batch : batch }

type t =
  (* PBFT (§2.1) *)
  | Pre_prepare of { view : int; seq : int; batch : batch; from : int }
  | Prepare of { view : int; seq : int; digest : string; from : int }
  | Commit of { view : int; seq : int; digest : string; from : int }
  | Checkpoint of { seq : int; state_digest : string; from : int }
  | View_change of {
      new_view : int;
      last_stable : int;
      prepared : prepared_proof list;
      from : int;
    }
  | New_view of { view : int; vc_senders : int list; pre_prepares : batch list; from : int }
  (* HotStuff-lineage linear protocol (three-phase, leader-aggregated;
     see ARCHITECTURE.md "Protocol zoo") *)
  | Hs_proposal of { view : int; seq : int; batch : batch; parent : string; from : int }
      (** leader broadcast; [parent] chains to the digest proposed at
          [seq - 1] ("genesis" for the first slot) *)
  | Hs_vote of { view : int; seq : int; phase : int; digest : string; from : int }
      (** sent to the leader only — the linearity: n votes inbound instead
          of n^2 all-to-all.  [phase] is 1 (prepare), 2 (pre-commit) or
          3 (commit) *)
  | Hs_qc of { view : int; seq : int; phase : int; digest : string; senders : int list; from : int }
      (** leader broadcast of an assembled quorum certificate: the
          [senders] are the 2f+1 distinct voters, standing in for a
          threshold signature over their votes *)
  (* Zyzzyva (§2.1, "Speculative Execution") *)
  | Order_request of { view : int; seq : int; batch : batch; history : string; from : int }
  | Commit_cert of {
      view : int;
      seq : int;
      digest : string;
      client : int;
      responders : int list;  (** the 2f+1 replicas whose spec replies form the cert *)
    }
  | Fill_hole of { view : int; from_seq : int; to_seq : int; from : int }
      (** Zyzzyva: a backup asks the primary to resend Order-requests it
          never received (Kotla et al. §4.1's fill-hole sub-protocol) *)
  (* Replies to clients *)
  | Reply of { view : int; seq : int; txn_id : int; client : int; from : int; result : string }
  | Spec_reply of {
      view : int;
      seq : int;
      txn_id : int;
      client : int;
      from : int;
      history : string;
    }
  | Local_commit of { view : int; seq : int; client : int; from : int }
  (* Checkpoint-driven state transfer (paper §4.7 checkpointing; a replica
     that crashes and recovers, or falls behind the checkpoint horizon,
     catches up in O(gap) blocks instead of per-message retransmission) *)
  | State_request of { low : int; from : int }
      (** [low] is the requester's next ledger sequence: the donor ships
          everything it retains from there up *)
  | State_response of {
      last_stable : int;  (** donor's stable checkpoint sequence *)
      state_digest : string;  (** application state digest at [last_stable] *)
      cert : (int * string) list;
          (** stable-checkpoint certificate: (replica id, state digest)
              pairs from [2f+1] distinct replicas *)
      chain_digest : string;  (** donor ledger's cumulative digest *)
      appended : int;  (** donor ledger's total appended count *)
      app_seq : int;  (** sequence the exported application state reflects *)
      app_export : (string * string) list;
          (** application key-value export (empty when the host derives
              state from the chain alone) *)
      blocks : Rdb_chain.Block.t list;  (** retained chain segment, ascending *)
      from : int;
    }

let type_name = function
  | Pre_prepare _ -> "pre-prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Checkpoint _ -> "checkpoint"
  | View_change _ -> "view-change"
  | New_view _ -> "new-view"
  | Hs_proposal _ -> "hs-proposal"
  | Hs_vote _ -> "hs-vote"
  | Hs_qc _ -> "hs-qc"
  | Order_request _ -> "order-request"
  | Commit_cert _ -> "commit-cert"
  | Fill_hole _ -> "fill-hole"
  | Reply _ -> "reply"
  | Spec_reply _ -> "spec-reply"
  | Local_commit _ -> "local-commit"
  | State_request _ -> "state-request"
  | State_response _ -> "state-response"

(** Canonical string covering the authenticated fields of a message, fed to
    the MAC/signature layer by hosting systems.  Request payloads are
    covered transitively through the batch digest. *)
let auth_string t =
  let b = Buffer.create 64 in
  let add = Buffer.add_string b in
  let int n = add (string_of_int n) in
  let field n =
    Buffer.add_char b '|';
    int n
  in
  (* "n:s;" entries of a list. *)
  let entry n s =
    int n;
    Buffer.add_char b ':';
    add s;
    Buffer.add_char b ';'
  in
  let ids =
    List.iter (fun n ->
        int n;
        Buffer.add_char b ',')
  in
  add (type_name t);
  (match t with
  | Pre_prepare { view; seq; batch; from } ->
    field view; field seq; field from;
    add "|";
    add batch.digest
  | Prepare { view; seq; digest; from } | Commit { view; seq; digest; from } ->
    field view; field seq; field from;
    add "|";
    add digest
  | Checkpoint { seq; state_digest; from } ->
    field seq; field from;
    add "|";
    add state_digest
  | View_change { new_view; last_stable; prepared; from } ->
    field new_view; field last_stable; field from;
    add "|";
    List.iter
      (fun p ->
        int p.p_view;
        Buffer.add_char b ':';
        entry p.p_seq p.p_digest)
      prepared
  | New_view { view; vc_senders; pre_prepares; from } ->
    field view; field from;
    add "|";
    ids vc_senders;
    List.iter (fun (b' : batch) -> entry b'.seq b'.digest) pre_prepares
  | Hs_proposal { view; seq; batch; parent; from } ->
    field view; field seq; field from;
    add "|";
    add batch.digest;
    add "|";
    add parent
  | Hs_vote { view; seq; phase; digest; from } ->
    field view; field seq; field phase; field from;
    add "|";
    add digest
  | Hs_qc { view; seq; phase; digest; senders; from } ->
    field view; field seq; field phase; field from;
    add "|";
    add digest;
    add "|";
    ids senders
  | Order_request { view; seq; batch; history; from } ->
    field view; field seq; field from;
    add "|";
    add batch.digest;
    add history
  | Commit_cert { view; seq; digest; client; responders } ->
    field view; field seq; field client;
    add "|";
    add digest;
    ids responders
  | Fill_hole { view; from_seq; to_seq; from } -> field view; field from_seq; field to_seq; field from
  | Reply { view; seq; txn_id; client; from; result } ->
    field view; field seq; field txn_id; field client; field from;
    add "|";
    add result
  | Spec_reply { view; seq; txn_id; client; from; history } ->
    field view; field seq; field txn_id; field client; field from;
    add "|";
    add history
  | Local_commit { view; seq; client; from } -> field view; field seq; field client; field from
  | State_request { low; from } -> field low; field from
  | State_response
      { last_stable; state_digest; cert; chain_digest; appended; app_seq; app_export; blocks; from }
    ->
    field last_stable; field appended; field app_seq; field from;
    add "|";
    add state_digest;
    add "|";
    add chain_digest;
    add "|";
    List.iter (fun (id, d) -> entry id d) cert;
    List.iter
      (fun (blk : Rdb_chain.Block.t) -> entry blk.Rdb_chain.Block.seq blk.Rdb_chain.Block.digest)
      blocks;
    (* The key-value export is covered by one folded digest so the
       authenticated string stays bounded. *)
    let kv = Buffer.create 64 in
    List.iter
      (fun (key, value) ->
        Buffer.add_string kv key;
        Buffer.add_char kv '\x00';
        Buffer.add_string kv value;
        Buffer.add_char kv '\x00')
      app_export;
    add (Rdb_crypto.Sha256.digest (Buffer.contents kv)));
  Buffer.contents b

(* Fixed header: type tag, view, seq, sender, checksum. *)
let header_bytes = 32
let digest_bytes = 32

(** Wire size estimate, used for network bandwidth accounting.  [sig_bytes]
    is the signature size of the scheme in force on the link. *)
let wire_size ~sig_bytes = function
  | Pre_prepare { batch; _ } -> header_bytes + digest_bytes + batch.wire_bytes + sig_bytes
  | Prepare _ | Commit _ -> header_bytes + digest_bytes + sig_bytes
  | Checkpoint _ -> header_bytes + digest_bytes + sig_bytes
  | View_change { prepared; _ } ->
    header_bytes + sig_bytes + List.fold_left (fun acc p -> acc + digest_bytes + 16 + p.p_batch.wire_bytes) 0 prepared
  | New_view { pre_prepares; _ } ->
    header_bytes + sig_bytes
    + List.fold_left (fun acc b -> acc + digest_bytes + b.wire_bytes) 0 pre_prepares
  | Hs_proposal { batch; _ } ->
    (* proposal digest + parent chain digest *)
    header_bytes + (2 * digest_bytes) + batch.wire_bytes + sig_bytes
  | Hs_vote _ -> header_bytes + digest_bytes + sig_bytes
  | Hs_qc { senders; _ } ->
    (* one aggregate certificate: the digest plus the signer bitmap — the
       wire-size payoff of threshold-style aggregation vs shipping 2f+1
       full votes *)
    header_bytes + digest_bytes + sig_bytes + (List.length senders * 8)
  | Order_request { batch; _ } ->
    header_bytes + (2 * digest_bytes) + batch.wire_bytes + sig_bytes
  | Commit_cert { responders; _ } ->
    header_bytes + digest_bytes + sig_bytes + (List.length responders * (sig_bytes + 8))
  | Fill_hole _ -> header_bytes + sig_bytes
  | State_request _ -> header_bytes + sig_bytes
  | State_response { cert; app_export; blocks; _ } ->
    header_bytes + sig_bytes + (2 * digest_bytes)
    + (List.length cert * (digest_bytes + 8))
    + List.fold_left
        (fun acc (blk : Rdb_chain.Block.t) ->
          let link =
            match blk.Rdb_chain.Block.link with
            | Rdb_chain.Block.Prev_hash _ -> digest_bytes
            | Rdb_chain.Block.Certificate shares -> List.length shares * (sig_bytes + 8)
          in
          acc + digest_bytes + 16 + link)
        0 blocks
    + List.fold_left
        (fun acc (key, value) -> acc + String.length key + String.length value + 8)
        0 app_export
  | Reply _ -> header_bytes + digest_bytes + sig_bytes
  | Spec_reply _ -> header_bytes + (2 * digest_bytes) + sig_bytes
  | Local_commit _ -> header_bytes + sig_bytes
