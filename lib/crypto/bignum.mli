(** Arbitrary-precision natural numbers, from scratch.

    This is the arithmetic engine underneath {!Rsa} and {!Schnorr}.  Values
    are immutable.  Only naturals are supported: the signature algorithms in
    this repository never need negative numbers, and keeping the domain to
    naturals removes a whole class of sign-handling bugs.  Subtraction of a
    larger number from a smaller one raises [Invalid_argument].

    Division uses Knuth's Algorithm D over 31-bit limbs.

    Modular exponentiation by an odd modulus runs in Montgomery form: CIOS
    multiplication on 31-bit limbs, where every limb product plus carry
    stays within [max_int], over fixed exponent windows.  Each Montgomery
    product works in one scratch accumulator allocated per exponentiation
    and allocates nothing; what an exponentiation allocates is its window
    table and its result.  An even modulus falls back to square-and-multiply
    with a full division per step.  None of this is constant-time. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int option
(** [None] if the value does not fit in a native int. *)

val of_hex : string -> t
(** Accepts upper or lower case; ignores a ["0x"] prefix and underscores. *)

val to_hex : t -> string
(** Lower-case, no prefix, no leading zeros (["0"] for zero). *)

val of_bytes_be : string -> t
(** Big-endian bytes to natural (e.g. a SHA-256 digest). *)

val to_bytes_be : ?pad_to:int -> t -> string
(** Big-endian bytes, optionally left-padded with zeros to [pad_to] bytes. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument "Bignum.sub"] if the result would be negative. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    Raises [Division_by_zero] if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Number of significant bits; 0 for zero. *)

val test_bit : t -> int -> bool

val mod_pow : t -> t -> t -> t
(** [mod_pow base exp m] = base^exp mod m. Raises on [m = 0].  Any [base]
    is accepted, including [base >= m]. *)

type fixed_base
(** Precomputed powers of one base [g] modulo one odd modulus:
    g^(d·16^i) for every 4-bit digit [d] and every window [i] of the
    exponent width it was built for.  Immutable once built, so one table
    may serve any number of threads and domains at once. *)

val fixed_base : t -> t -> max_bits:int -> fixed_base
(** [fixed_base g m ~max_bits] tabulates [g] modulo [m] for exponents of
    up to [max_bits] bits: 16 residues per 4 bits of exponent.  Raises
    [Invalid_argument] unless [m] is odd and greater than 1. *)

val fixed_base_pow : fixed_base -> t -> t
(** [fixed_base_pow fb e] = g^e mod m: one Montgomery product per nonzero
    4-bit digit of [e], with no squarings.  Exponents wider than the table
    fall back to windowed exponentiation with its first row. *)

val fixed_base_pow2 : fixed_base -> t -> t -> t -> t
(** [fixed_base_pow2 fb e1 b e2] = g^e1 · b^e2 mod m by Shamir's
    simultaneous exponentiation: one shared run of squarings over 4-bit
    windows, with g's digits taken from the table and b's from a 16-entry
    table built per call. *)

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1]. *)

val gcd : t -> t -> t

val random_bits : Rdb_des.Rng.t -> int -> t
(** Uniform with exactly the given number of bits (top bit set), bits >= 1. *)

val random_below : Rdb_des.Rng.t -> t -> t
(** Uniform in [\[0, bound)]; [bound] must be nonzero. *)

val is_probable_prime : ?rounds:int -> Rdb_des.Rng.t -> t -> bool
(** Miller–Rabin preceded by trial division by small primes.
    Default 24 rounds. *)

val generate_prime : Rdb_des.Rng.t -> bits:int -> t
(** Deterministic given the generator state: repeatedly samples odd
    [bits]-bit candidates until one passes {!is_probable_prime}. *)

val pp : Format.formatter -> t -> unit
