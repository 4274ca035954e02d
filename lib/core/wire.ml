module Codec = Rdb_consensus.Codec
module Signer = Rdb_crypto.Signer

type t =
  | Request of {
      client : int;
      reply_host : string;
      reply_port : int;
      txn_id : int;
      payload : string;
      signature : string;
    }
  | Consensus of { msg : Rdb_consensus.Message.t; tag : string; attachments : attachment list }
  | Reply of { txn_id : int; from : int; result : string }

and attachment = {
  a_txn_id : int;
  a_client : int;
  a_reply_host : string;
  a_reply_port : int;
  a_payload : string;
}

let w_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

exception Bad of string

type cursor = { data : string; mutable pos : int }

let r_u32 c =
  if c.pos + 4 > String.length c.data then raise (Bad "truncated");
  let v =
    (Char.code c.data.[c.pos] lsl 24)
    lor (Char.code c.data.[c.pos + 1] lsl 16)
    lor (Char.code c.data.[c.pos + 2] lsl 8)
    lor Char.code c.data.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let r_str c =
  let n = r_u32 c in
  if c.pos + n > String.length c.data then raise (Bad "truncated string");
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* All three encoders run through the codec's pooled scratch buffers (§4.8):
   no per-message [Buffer] allocation, and a [Consensus] record appends its
   protocol message in place via [Codec.encode_into] instead of encoding to
   an intermediate string. *)
let encode wire =
  Codec.with_buffer (fun b ->
      (match wire with
      | Request { client; reply_host; reply_port; txn_id; payload; signature } ->
        Buffer.add_char b 'R';
        w_u32 b client;
        w_str b reply_host;
        w_u32 b reply_port;
        w_u32 b txn_id;
        w_str b payload;
        w_str b signature
      | Consensus { msg; tag; attachments } ->
        Buffer.add_char b 'M';
        w_str b tag;
        w_u32 b (List.length attachments);
        List.iter
          (fun a ->
            w_u32 b a.a_txn_id;
            w_u32 b a.a_client;
            w_str b a.a_reply_host;
            w_u32 b a.a_reply_port;
            w_str b a.a_payload)
          attachments;
        Codec.encode_into b msg
      | Reply { txn_id; from; result } ->
        Buffer.add_char b 'Y';
        w_u32 b txn_id;
        w_u32 b from;
        w_str b result);
      Buffer.contents b)

let decode s =
  try
    if String.length s = 0 then Error "empty"
    else begin
      let c = { data = s; pos = 1 } in
      match s.[0] with
      | 'R' ->
        let client = r_u32 c in
        let reply_host = r_str c in
        let reply_port = r_u32 c in
        let txn_id = r_u32 c in
        let payload = r_str c in
        let signature = r_str c in
        if c.pos <> String.length s then Error "trailing bytes"
        else Ok (Request { client; reply_host; reply_port; txn_id; payload; signature })
      | 'M' -> (
        let tag = r_str c in
        let count = r_u32 c in
        if count > 1_000_000 then Error "oversized attachment list"
        else begin
          let attachments =
            List.init count (fun _ ->
                let a_txn_id = r_u32 c in
                let a_client = r_u32 c in
                let a_reply_host = r_str c in
                let a_reply_port = r_u32 c in
                let a_payload = r_str c in
                { a_txn_id; a_client; a_reply_host; a_reply_port; a_payload })
          in
          (* Zero-copy: the protocol message is decoded from its window of
             [s] directly instead of being copied out first. *)
          match Codec.decode_sub s ~pos:c.pos ~len:(String.length s - c.pos) with
          | Ok msg -> Ok (Consensus { msg; tag; attachments })
          | Error e -> Error e
        end)
      | 'Y' ->
        let txn_id = r_u32 c in
        let from = r_u32 c in
        let result = r_str c in
        if c.pos <> String.length s then Error "trailing bytes"
        else Ok (Reply { txn_id; from; result })
      | k -> Error (Printf.sprintf "unknown kind %C" k)
    end
  with Bad reason -> Error reason

let request_auth ~client ~txn_id ~payload = Printf.sprintf "req|%d|%d|%s" client txn_id payload

let sign_request signer ~client ~txn_id ~payload =
  Signer.sign signer (request_auth ~client ~txn_id ~payload)

let verify_request verifier ~client ~txn_id ~payload ~signature =
  Signer.verify verifier (request_auth ~client ~txn_id ~payload) ~signature

let parse_peers s =
  String.split_on_char ',' s
  |> List.mapi (fun i hp ->
         match String.split_on_char ':' hp with
         | [ host; port ] -> (i, (host, int_of_string port))
         | _ -> failwith ("bad peer: " ^ hp))
