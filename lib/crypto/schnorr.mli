(** Schnorr signatures over a prime-order subgroup of Z_p*.

    This is the repository's ED25519 stand-in (see DESIGN.md §3): no
    elliptic-curve library is available offline, and Schnorr preserves the
    structure that matters to the system — short DL-based signatures with
    one modular exponentiation to sign and two to verify, providing
    non-repudiation (unlike MACs).  The simulator charges ED25519 costs from
    {!Cost_model}; this module makes the signing path real and testable.

    Domain parameters are DSA-style: primes [p], [q] with [q | p - 1] and a
    generator [g] of the order-[q] subgroup, generated deterministically.

    Every exponentiation is Montgomery arithmetic in {!Bignum}.  The
    parameters carry a fixed-base table for [g] ({!Bignum.fixed_base}),
    built once with them and immutable afterwards, so key generation and
    signing (g^k) cost one modular product per 4-bit digit of the exponent
    and no squarings.  Verification computes g^s·y^(q-e) in one pass by
    Shamir's simultaneous exponentiation, taking g's window from that
    table.  Nothing is mutated after construction, so keys and parameters
    may be shared by concurrent verifiers on any number of threads or
    domains. *)

type params = private {
  p : Bignum.t;
  q : Bignum.t;
  g : Bignum.t;
  g_table : Bignum.fixed_base;  (** powers of [g] mod [p] for exponents below [q] *)
}

type public
type secret

type keypair = { public : public; secret : secret }

val generate_params : Rdb_des.Rng.t -> p_bits:int -> q_bits:int -> params
(** Real DSA-style parameter generation: find a prime [q], then search for
    [p = q*k + 1] prime, then [g = h^((p-1)/q) <> 1]. *)

val default_params : unit -> params
(** 256-bit [p], 160-bit [q], generated deterministically from a fixed seed
    and memoized.  Small by production standards; see the module comment. *)

val generate : Rdb_des.Rng.t -> params -> keypair

val sign : Rdb_des.Rng.t -> secret -> string -> string
(** Signature is [e || s], each element padded to the byte width of [q]. *)

val verify : public -> string -> signature:string -> bool

val public_value : public -> Bignum.t
(** The group element y = g^x that verification checks against. *)

val signature_size : params -> int
