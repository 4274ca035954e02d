(* The public ledger operations dispatch through a first-class BACKEND
   module, so the consensus fabric (cluster.ml / local_runtime.ml) is
   written once against the interface and the storage medium — in-memory
   list or durable WAL + B-tree — is a construction-time choice. *)

module type BACKEND = sig
  type store

  val append : store -> Block.t -> unit
  val get : store -> int -> Block.t option
  val prune_below : store -> int -> int
  val iter_retained : store -> (Block.t -> unit) -> unit
  val length : store -> int
  val last : store -> Block.t
  val next_seq : store -> int
  val cumulative_digest : store -> string
  val install : store -> retained:Block.t list -> appended:int -> running:string -> unit
  val checkpoint : store -> seq:int -> state_digest:string -> unit
  val close : store -> unit
end

module Mem = struct
  type store = {
    (* Retained blocks in reverse order (newest first). *)
    mutable retained : Block.t list;
    mutable appended : int;
    mutable next_seq : int;
    mutable running : string; (* cumulative digest over all appended blocks *)
  }

  let create ~primary_id =
    let g = Block.genesis ~primary_id in
    { retained = [ g ]; appended = 1; next_seq = 1; running = Block.hash g }

  let append s b =
    s.retained <- b :: s.retained;
    s.appended <- s.appended + 1;
    s.next_seq <- s.next_seq + 1;
    s.running <- Rdb_crypto.Sha256.digest (s.running ^ Block.hash b)

  let get s seq = List.find_opt (fun b -> b.Block.seq = seq) s.retained

  let prune_below s seq =
    let keep, drop = List.partition (fun b -> b.Block.seq >= seq) s.retained in
    (* Never drop the newest block: [last] must stay meaningful. *)
    match keep with
    | [] -> 0
    | _ ->
      s.retained <- keep;
      List.length drop

  let iter_retained s f = List.iter f (List.rev s.retained)

  let length s = s.appended

  let last s =
    match s.retained with
    | b :: _ -> b
    | [] -> assert false (* genesis is never pruned without replacement *)

  let next_seq s = s.next_seq

  let cumulative_digest s = s.running

  let install s ~retained ~appended ~running =
    (match retained with
    | [] -> invalid_arg "Ledger: empty segment"
    | _ -> ());
    s.retained <- List.rev retained;
    s.appended <- appended;
    s.next_seq <- (last s).Block.seq + 1;
    s.running <- running

  let checkpoint _ ~seq:_ ~state_digest:_ = ()

  let close _ = ()
end

module Durable = struct
  type store = Block_store.t

  let append = Block_store.append
  let get = Block_store.get
  let prune_below = Block_store.prune_below
  let iter_retained = Block_store.iter_retained
  let length = Block_store.length
  let last = Block_store.last
  let next_seq = Block_store.next_seq
  let cumulative_digest = Block_store.cumulative_digest
  let install = Block_store.install
  let checkpoint = Block_store.checkpoint
  let close = Block_store.close
end

type t = Packed : (module BACKEND with type store = 's) * 's * bool -> t
(* The boolean marks the durable backend, for callers that budget the
   modelled persistence cost. *)

let create ~primary_id = Packed ((module Mem), Mem.create ~primary_id, false)

let open_durable ~dir ~primary_id =
  let genesis = Block.genesis ~primary_id in
  Packed ((module Durable), Block_store.open_dir ~dir ~genesis, true)

let is_durable (Packed (_, _, durable)) = durable

let next_seq (Packed ((module B), s, _)) = B.next_seq s

let last (Packed ((module B), s, _)) = B.last s

let append (Packed ((module B), s, _)) b =
  if b.Block.seq <> B.next_seq s then
    invalid_arg
      (Printf.sprintf "Ledger.append: expected seq %d, got %d" (B.next_seq s) b.Block.seq);
  B.append s b

let length (Packed ((module B), s, _)) = B.length s

let find (Packed ((module B), s, _)) seq = B.get s seq

let prune_below (Packed ((module B), s, _)) seq = B.prune_below s seq

let iter_retained (Packed ((module B), s, _)) f = B.iter_retained s f

let retained t =
  let acc = ref [] in
  iter_retained t (fun b -> acc := b :: !acc);
  List.rev !acc (* oldest first *)

let verify t ~check_certificate =
  let blocks = retained t in
  let rec walk prev = function
    | [] -> Ok ()
    | (b : Block.t) :: rest ->
      let seq_ok =
        match prev with
        | None -> true
        | Some (p : Block.t) -> b.seq = p.seq + 1
      in
      if not seq_ok then Error (Printf.sprintf "sequence gap before %d" b.seq)
      else begin
        let link_ok =
          match (b.link, prev) with
          | Block.Prev_hash h, Some p -> String.equal h (Block.hash p)
          | Block.Prev_hash _, None -> true (* chain head after pruning *)
          | Block.Certificate shares, _ ->
            check_certificate ~seq:b.seq ~digest:b.digest shares
        in
        if not link_ok then Error (Printf.sprintf "bad linkage at seq %d" b.seq)
        else walk (Some b) rest
      end
  in
  walk None blocks

let cumulative_digest (Packed ((module B), s, _)) = B.cumulative_digest s

let install (Packed ((module B), s, _)) ~blocks ~appended ~running =
  (* [blocks] ascending and contiguous; the caller (state transfer) has
     already certificate-verified the segment. *)
  let rec contiguous = function
    | (a : Block.t) :: (b : Block.t) :: rest ->
      if b.seq <> a.seq + 1 then invalid_arg "Ledger.install: sequence gap"
      else contiguous (b :: rest)
    | _ -> ()
  in
  (match blocks with [] -> invalid_arg "Ledger.install: empty segment" | _ -> ());
  contiguous blocks;
  B.install s ~retained:blocks ~appended ~running

let checkpoint (Packed ((module B), s, _)) ~seq ~state_digest = B.checkpoint s ~seq ~state_digest

let close (Packed ((module B), s, _)) = B.close s
