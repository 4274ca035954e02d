module Merge = Rdb_replica.Exec_queue.Merge

type routed = { inst : int; act : Action.t }

type t = {
  k : int;
  n : int;
  id : int;
  cores : Pbft_replica.t array;
  merge : Message.batch Merge.t;
  mutable global_stable : int;
}

(* Instance [i] owns the global sequence numbers { g | (g - 1) mod k = i }
   (1-based round-robin): local slot [l] of instance [i] is global
   [(l - 1) * k + i + 1]. *)
let global_of t ~inst ~seq = ((seq - 1) * t.k) + inst + 1

let local_of t ~seq = ((seq - 1) / t.k) + 1

let instance_of t ~seq = (seq - 1) mod t.k

let create (cfg : Config.t) ~instances ~id =
  if instances < 1 then invalid_arg "Multi_pbft.create: need at least one instance";
  let per_instance i =
    (* Local sequence numbers advance k times slower than global ones, so
       the per-instance checkpoint interval shrinks by k to keep the global
       checkpoint cadence; the offset staggers the view-0 primaries. *)
    Config.make
      ~checkpoint_interval:(max 1 (cfg.Config.checkpoint_interval / instances))
      ~high_water_mark:cfg.Config.high_water_mark
      ~primary_offset:(i mod cfg.Config.n) ~n:cfg.Config.n ()
  in
  {
    k = instances;
    n = cfg.Config.n;
    id;
    cores = Array.init instances (fun i -> Pbft_replica.create (per_instance i) ~id);
    merge = Merge.create ~instances;
    global_stable = 0;
  }

let instances t = t.k

let id t = t.id

let core t inst = t.cores.(inst)

let view t ~inst = Pbft_replica.view t.cores.(inst)

let views t = Array.map Pbft_replica.view t.cores

let max_view t = Array.fold_left (fun acc c -> max acc (Pbft_replica.view c)) 0 t.cores

let is_primary t ~inst = Pbft_replica.is_primary t.cores.(inst)

let leads_any t = Array.exists Pbft_replica.is_primary t.cores

let led_instances t =
  let acc = ref [] in
  for i = t.k - 1 downto 0 do
    if Pbft_replica.is_primary t.cores.(i) then acc := i :: !acc
  done;
  !acc

let in_view_change t ~inst = Pbft_replica.in_view_change t.cores.(inst)

let last_executed t = Merge.next_seq t.merge - 1

let waiting_instance t = Merge.waiting_instance t.merge

let merge_pending_of t inst = Merge.pending_of t.merge inst

let equivocations_detected t =
  Array.fold_left (fun acc c -> acc + Pbft_replica.equivocations_detected c) 0 t.cores

let vc_spam_suppressed t =
  Array.fold_left (fun acc c -> acc + Pbft_replica.vc_spam_suppressed c) 0 t.cores

let last_stable_checkpoint t = t.global_stable

(* The global stable prefix: instance [j]'s first non-stable global slot is
   [global_of j (stable_j + 1)], so the prefix ends just before the minimum
   of those across instances. *)
let stable_watermark t =
  let w = ref max_int in
  Array.iteri
    (fun j c ->
      let s = Pbft_replica.last_stable_checkpoint c in
      w := min !w ((s * t.k) + j))
    t.cores;
  if !w = max_int then 0 else max 0 !w

(* Drain the merge: everything now contiguous at the global cursor comes out
   as [Execute] actions in strict global order, preserving the §4.6
   invariant the hosting system relies on. *)
let drain t =
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    match Merge.poll t.merge with
    | Some b -> acc := { inst = instance_of t ~seq:b.Message.seq; act = Action.Execute b } :: !acc
    | None -> continue := false
  done;
  List.rev !acc

(* Rewrite one instance's actions into the global sequence space:
   - [Execute] enters the merge (its batch re-stamped with the global slot)
     and comes back out only in global order;
   - client [Reply] sequence numbers become global, so reply aggregation
     keys are unique across instances;
   - [Stable_checkpoint] becomes the global stable-prefix watermark;
   - protocol traffic (pre-prepare/prepare/commit/checkpoint/view-change)
     stays in the instance's local space and is merely tagged with the
     instance for wire routing. *)
let translate t inst actions =
  List.concat_map
    (fun act ->
      match act with
      | Action.Execute b ->
        let g = global_of t ~inst ~seq:b.Message.seq in
        (match Merge.offer t.merge ~seq:g { b with Message.seq = g } with
        | Ok () -> ()
        | Error e -> invalid_arg ("Multi_pbft: merge rejected a commit: " ^ e));
        drain t
      | Action.Send_client (c, Message.Reply { view; seq; txn_id; client; from; result }) ->
        [
          {
            inst;
            act =
              Action.Send_client
                ( c,
                  Message.Reply
                    { view; seq = global_of t ~inst ~seq; txn_id; client; from; result } );
          };
        ]
      | Action.Stable_checkpoint _ ->
        let w = stable_watermark t in
        if w > t.global_stable then begin
          t.global_stable <- w;
          [ { inst; act = Action.Stable_checkpoint w } ]
        end
        else []
      | a -> [ { inst; act = a } ])
    actions

(* A checkpoint catch-up inside the core (a laggard adopting a stable
   checkpoint) skips local slots it will never execute; tell the merge so
   the global cursor does not wait on them forever.  A no-op on the normal
   path, where the expectation already moved with each offer. *)
let sync_merge t inst =
  let exec = Pbft_replica.last_executed t.cores.(inst) in
  if exec > 0 then Merge.advance t.merge ~inst ~seq:(global_of t ~inst ~seq:exec)

let wrap t inst actions =
  let translated = translate t inst actions in
  sync_merge t inst;
  (* The catch-up may have unblocked slots of other instances queued behind
     the skipped ones. *)
  translated @ drain t

let propose t ~inst ~reqs ~digest ~wire_bytes =
  let batch, actions = Pbft_replica.propose t.cores.(inst) ~reqs ~digest ~wire_bytes in
  (batch, wrap t inst actions)

let handle_message t ~inst msg = wrap t inst (Pbft_replica.handle_message t.cores.(inst) msg)

let handle_executed t ~seq ~state_digest ~result =
  let inst = instance_of t ~seq in
  let local = local_of t ~seq in
  wrap t inst (Pbft_replica.handle_executed t.cores.(inst) ~seq:local ~state_digest ~result)

(* No-op keepalive (the move RCC makes for starved instances): when the
   global merge is blocked on an instance THIS replica leads, nobody else
   can fix it — backups aim view changes at us, but a view change cannot
   conjure demand.  The scenario is real: after an instance's primary
   crashes, the retransmitted transactions are re-batched by whichever
   instances are still live, so the deposed instance's successor has
   nothing to propose while the siblings' committed batches pile up behind
   the hole.  The successor instead plugs its frontier with empty batches
   until its residue class reaches the merge's horizon and the backlog
   drains. *)
let keepalive t ~inst =
  if Merge.waiting_instance t.merge <> inst then []
  else begin
    let horizon = Merge.horizon t.merge in
    let acc = ref [] in
    let continue = ref (horizon > 0) in
    while !continue do
      match
        Pbft_replica.propose t.cores.(inst) ~reqs:[]
          ~digest:(Printf.sprintf "keepalive:i%d" inst) ~wire_bytes:0
      with
      | None, _ -> continue := false
      | Some b, actions ->
        acc := !acc @ wrap t inst actions;
        if global_of t ~inst ~seq:b.Message.seq >= horizon then continue := false
    done;
    !acc
  end

let suspect_primary t ~inst = wrap t inst (Pbft_replica.suspect_primary t.cores.(inst))

let nudge t ~inst = wrap t inst (Pbft_replica.nudge t.cores.(inst))

let view_change_retransmit t ~inst =
  wrap t inst (Pbft_replica.view_change_retransmit t.cores.(inst))

(* The primary of instance [inst] at view [view]: the round-robin rule
   shifted by the instance's offset, so view 0 spreads the k primaries over
   k distinct replicas. *)
let primary_of t ~inst ~view = (view + (inst mod t.n)) mod t.n
