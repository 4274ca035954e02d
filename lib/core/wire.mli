(** Application-level wire format for networked deployments
    ([bin/resdb_node] / [bin/resdb_client]): what flows over
    {!Rdb_net.Tcp_transport} connections, carrying either a signed client
    request, an authenticated consensus message, or a reply.

    Client requests embed the client's own listening address so replicas
    can open the return path (clients are not part of the static peer
    directory). Consensus messages carry a CMAC tag over their canonical
    {!Rdb_consensus.Message.auth_string}. *)

type t =
  | Request of {
      client : int;
      reply_host : string;
      reply_port : int;
      txn_id : int;
      payload : string;
      signature : string;  (** client's digital signature over the payload *)
    }
  | Consensus of {
      msg : Rdb_consensus.Message.t;
      tag : string;
      attachments : attachment list;
          (** request bodies riding along with a Pre-prepare: the protocol
              core is payload-agnostic, so the hosting node ships the
              payloads (and the clients' reply addresses) next to the
              message that references them *)
    }
  | Reply of { txn_id : int; from : int; result : string }

and attachment = {
  a_txn_id : int;
  a_client : int;
  a_reply_host : string;
  a_reply_port : int;
  a_payload : string;
}

val encode : t -> string

val decode : string -> (t, string) result

val request_auth : client:int -> txn_id:int -> payload:string -> string
(** The canonical signing input of a client request: it covers client id,
    txn id and payload. *)

val sign_request : Rdb_crypto.Signer.t -> client:int -> txn_id:int -> payload:string -> string

val verify_request :
  Rdb_crypto.Signer.verifier ->
  client:int ->
  txn_id:int ->
  payload:string ->
  signature:string ->
  bool

val parse_peers : string -> (int * (string * int)) list
(** ["h0:p0,h1:p1,..."] as [(position, (host, port))]; fails on a bad entry. *)
