(* Cryptography tests: published test vectors (FIPS 180-4 / FIPS 197 /
   RFC 4493 / RFC 4231) for the primitives, algebraic properties for the
   bignum engine, and round-trip/tamper tests for the signature schemes. *)

open Rdb_crypto
module Rng = Rdb_des.Rng

let check = Alcotest.check
let qtest p = QCheck_alcotest.to_alcotest p

let hex_to_string h =
  let n = String.length h / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* ---- SHA-256 ------------------------------------------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, expected) -> check Alcotest.string msg expected (Sha256.digest_hex msg))
    sha_vectors

let test_sha256_million_a () =
  check Alcotest.string "1M x 'a'" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

let test_sha256_streaming_equals_oneshot () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  (* Feed in awkward chunk sizes to cross block boundaries. *)
  let rec feed off =
    if off < String.length msg then begin
      let len = min 37 (String.length msg - off) in
      Sha256.feed ctx (String.sub msg off len);
      feed (off + len)
    end
  in
  feed 0;
  check Alcotest.string "streaming" (Sha256.digest msg) (Sha256.finalize ctx)

let prop_sha256_deterministic_and_sensitive =
  QCheck.Test.make ~name:"sha256: deterministic; 1-bit flip changes digest" ~count:100
    QCheck.(string_of_size Gen.(1 -- 200))
    (fun s ->
      let d1 = Sha256.digest s and d2 = Sha256.digest s in
      let flipped =
        let b = Bytes.of_string s in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Bytes.to_string b
      in
      String.equal d1 d2 && not (String.equal d1 (Sha256.digest flipped)))

(* ---- SHA3-256 -------------------------------------------------------------- *)

let test_sha3_vectors () =
  (* FIPS 202 example values. *)
  check Alcotest.string "empty" "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    (Sha3.digest_hex "");
  check Alcotest.string "abc" "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
    (Sha3.digest_hex "abc")

let test_sha3_multiblock () =
  (* Exceeds one 136-byte rate block; must absorb across blocks without
     corruption (regression guard: digest is stable and length 32). *)
  let long = String.concat "" (List.init 10 (fun i -> Printf.sprintf "block %d of input..." i)) in
  let d = Sha3.digest long in
  check Alcotest.int "32 bytes" 32 (String.length d);
  check Alcotest.string "deterministic" (Sha3.digest_hex long) (Sha3.digest_hex long);
  Alcotest.(check bool) "differs from sha256" false (String.equal d (Sha256.digest long))

let prop_sha3_sensitivity =
  QCheck.Test.make ~name:"sha3: 1-bit flip changes digest" ~count:100
    QCheck.(string_of_size Gen.(1 -- 300))
    (fun s ->
      let flipped =
        let b = Bytes.of_string s in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Bytes.to_string b
      in
      not (String.equal (Sha3.digest s) (Sha3.digest flipped)))

(* ---- AES-128 ------------------------------------------------------------- *)

let test_aes_fips197 () =
  let key = hex_to_string "000102030405060708090a0b0c0d0e0f" in
  let pt = hex_to_string "00112233445566778899aabbccddeeff" in
  let k = Aes128.expand_key key in
  check Alcotest.string "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Sha256.hex (Aes128.encrypt_block k pt))

let test_aes_rfc4493_key () =
  (* The AES-128(K, 0^128) step from RFC 4493's subkey generation example. *)
  let key = hex_to_string "2b7e151628aed2a6abf7158809cf4f3c" in
  let k = Aes128.expand_key key in
  check Alcotest.string "AES-128(key, zeros)" "7df76b0c1ab899b33e42f047b91b546f"
    (Sha256.hex (Aes128.encrypt_block k (String.make 16 '\x00')))

let test_aes_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes128.expand_key: key must be 16 bytes")
    (fun () -> ignore (Aes128.expand_key "short"));
  let k = Aes128.expand_key (String.make 16 'k') in
  Alcotest.check_raises "short block"
    (Invalid_argument "Aes128.encrypt_block: block must be 16 bytes") (fun () ->
      ignore (Aes128.encrypt_block k "x"))

(* ---- CMAC (RFC 4493) ------------------------------------------------------ *)

let cmac_key = hex_to_string "2b7e151628aed2a6abf7158809cf4f3c"

let cmac_msg_full =
  hex_to_string
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"

let test_cmac_rfc4493 () =
  let k = Cmac.of_secret cmac_key in
  let cases =
    [
      (0, "bb1d6929e95937287fa37d129b756746");
      (16, "070a16b46b4d4144f79bdd9dd04a287c");
      (40, "dfa66747de9ae63030ca32611497c827");
      (64, "51f0bebf7e3b9d92fc49741779363cfe");
    ]
  in
  List.iter
    (fun (len, expected) ->
      check Alcotest.string
        (Printf.sprintf "len %d" len)
        expected
        (Sha256.hex (Cmac.mac k (String.sub cmac_msg_full 0 len))))
    cases

let test_cmac_verify () =
  let k = Cmac.of_secret cmac_key in
  let tag = Cmac.mac k "hello" in
  Alcotest.(check bool) "accepts" true (Cmac.verify k "hello" ~tag);
  Alcotest.(check bool) "rejects tamper" false (Cmac.verify k "hellp" ~tag)

let prop_cmac_distinct_messages =
  QCheck.Test.make ~name:"cmac: different messages get different tags" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(1 -- 64)))
    (fun (a, b) ->
      QCheck.assume (not (String.equal a b));
      let k = Cmac.of_secret cmac_key in
      not (String.equal (Cmac.mac k a) (Cmac.mac k b)))

(* ---- HMAC (RFC 4231) ------------------------------------------------------ *)

let test_hmac_rfc4231 () =
  (* Test cases 1, 2 and 7 of RFC 4231 (HMAC-SHA-256 outputs). *)
  check Alcotest.string "tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.hex (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  check Alcotest.string "tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  check Alcotest.string "tc7 (long key)"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Sha256.hex
       (Hmac.mac
          ~key:(String.make 131 '\xaa')
          "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."))

let test_hmac_verify () =
  let tag = Hmac.mac ~key:"k" "msg" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key:"k" "msg" ~tag);
  Alcotest.(check bool) "rejects wrong key" false (Hmac.verify ~key:"k2" "msg" ~tag)

(* ---- Bignum ---------------------------------------------------------------- *)

let bn = Bignum.of_int

let test_bignum_basic () =
  check Alcotest.string "hex roundtrip" "deadbeef" (Bignum.to_hex (Bignum.of_hex "0xDEAD_BEEF"));
  check Alcotest.(option int) "to_int" (Some 123456789) (Bignum.to_int (bn 123456789));
  check Alcotest.string "mul" "fffffffe00000001" (Bignum.to_hex (Bignum.mul (bn 0xffffffff) (bn 0xffffffff)));
  check Alcotest.string "add carry" "100000000" (Bignum.to_hex (Bignum.add (bn 0xffffffff) Bignum.one));
  check Alcotest.string "zero" "0" (Bignum.to_hex Bignum.zero);
  Alcotest.(check bool) "is_even" true (Bignum.is_even (bn 42));
  Alcotest.(check bool) "odd" false (Bignum.is_even (bn 43))

let test_bignum_sub_underflow () =
  Alcotest.check_raises "negative result" (Invalid_argument "Bignum.sub") (fun () ->
      ignore (Bignum.sub (bn 1) (bn 2)))

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_hex "0102030405060708090a0b0c0d0e0f" in
  check Alcotest.string "bytes roundtrip" (Bignum.to_hex v)
    (Bignum.to_hex (Bignum.of_bytes_be (Bignum.to_bytes_be v)));
  check Alcotest.int "pad_to" 32 (String.length (Bignum.to_bytes_be ~pad_to:32 v))

let test_bignum_shifts () =
  check Alcotest.string "shl 64" "10000000000000000" (Bignum.to_hex (Bignum.shift_left Bignum.one 64));
  check Alcotest.string "shr" "1" (Bignum.to_hex (Bignum.shift_right (Bignum.shift_left Bignum.one 64) 64));
  check Alcotest.int "bit_length" 65 (Bignum.bit_length (Bignum.shift_left Bignum.one 64));
  Alcotest.(check bool) "test_bit" true (Bignum.test_bit (Bignum.shift_left Bignum.one 64) 64)

let test_bignum_divmod_known () =
  let a = Bignum.of_hex "123456789abcdef0123456789abcdef0" in
  let b = Bignum.of_hex "fedcba9876543210" in
  let q, r = Bignum.divmod a b in
  Alcotest.(check bool) "a = q*b + r" true (Bignum.equal a (Bignum.add (Bignum.mul q b) r));
  Alcotest.(check bool) "r < b" true (Bignum.compare r b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Bignum.divmod a Bignum.zero))

let arb_bignum bits =
  QCheck.make
    ~print:(fun v -> Bignum.to_hex v)
    (QCheck.Gen.map
       (fun seed ->
         let rng = Rng.create (Int64.of_int seed) in
         Bignum.random_bits rng (1 + (abs seed mod bits)))
       QCheck.Gen.int)

let prop_divmod_invariant =
  QCheck.Test.make ~name:"bignum: divmod invariant on random operands" ~count:300
    (QCheck.pair (arb_bignum 512) (arb_bignum 256))
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_mul_commutes =
  QCheck.Test.make ~name:"bignum: multiplication commutes and distributes" ~count:200
    (QCheck.triple (arb_bignum 256) (arb_bignum 256) (arb_bignum 128))
    (fun (a, b, c) ->
      Bignum.equal (Bignum.mul a b) (Bignum.mul b a)
      && Bignum.equal
           (Bignum.mul a (Bignum.add b c))
           (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_add_sub_roundtrip =
  QCheck.Test.make ~name:"bignum: (a + b) - b = a" ~count:300
    (QCheck.pair (arb_bignum 300) (arb_bignum 300))
    (fun (a, b) -> Bignum.equal a (Bignum.sub (Bignum.add a b) b))

let prop_mod_pow_small =
  QCheck.Test.make ~name:"bignum: mod_pow agrees with naive power on small inputs" ~count:200
    QCheck.(triple (int_bound 30) (int_bound 12) (int_range 2 1000))
    (fun (b, e, m) ->
      let naive =
        let rec go acc i = if i = 0 then acc else go (acc * b mod m) (i - 1) in
        go 1 e
      in
      match Bignum.to_int (Bignum.mod_pow (bn b) (bn e) (bn m)) with
      | Some v -> v = naive
      | None -> false)

(* Plain left-to-right square-and-multiply with a full division per step:
   the reference the library's Montgomery and even-modulus paths must both
   agree with. *)
let ref_mod_pow b e m =
  if Bignum.equal m Bignum.one then Bignum.zero
  else begin
    let b = Bignum.rem b m in
    let acc = ref Bignum.one in
    for i = Bignum.bit_length e - 1 downto 0 do
      acc := Bignum.rem (Bignum.mul !acc !acc) m;
      if Bignum.test_bit e i then acc := Bignum.rem (Bignum.mul !acc b) m
    done;
    !acc
  end

(* An odd or even modulus of up to [bits] bits, at least 1. *)
let arb_modulus bits =
  QCheck.map
    (fun (m, odd) ->
      let m = if Bignum.is_even m = odd then Bignum.add m Bignum.one else m in
      if Bignum.is_zero m then Bignum.one else m)
    (QCheck.pair (arb_bignum bits) QCheck.bool)

let prop_mod_pow_reference =
  QCheck.Test.make ~name:"bignum: mod_pow equals square-and-multiply (odd and even m)" ~count:150
    (QCheck.triple (arb_bignum 600) (arb_bignum 300) (arb_modulus 300))
    (fun (b, e, m) -> Bignum.equal (Bignum.mod_pow b e m) (ref_mod_pow b e m))

let test_mod_pow_edges () =
  let hex = Bignum.of_hex in
  let cases =
    [
      ("m = 1", bn 12345, bn 77, Bignum.one);
      ("exponent 0, odd m", bn 12345, Bignum.zero, bn 1001);
      ("exponent 0, even m", bn 12345, Bignum.zero, bn 1000);
      ("base 0", Bignum.zero, bn 5, bn 1001);
      ("base = m", bn 1001, bn 3, bn 1001);
      ("base > m, odd m", hex "fffffffffffffffffffffffff1", hex "1234567", hex "7fffffff");
      ("base > m, even m", hex "fffffffffffffffffffffffff1", hex "1234567", hex "80000000");
      ("m one limb, odd", bn 3, hex "ffffffffffff", bn 0x7fffffff);
      ( "m two full limbs",
        bn 7,
        hex "deadbeef",
        Bignum.sub (Bignum.shift_left Bignum.one 62) Bignum.one );
      ("m = 3", bn 2, bn 10, bn 3);
    ]
  in
  List.iter
    (fun (name, b, e, m) ->
      check Alcotest.string name
        (Bignum.to_hex (ref_mod_pow b e m))
        (Bignum.to_hex (Bignum.mod_pow b e m)))
    cases;
  Alcotest.check_raises "m = 0" Division_by_zero (fun () ->
      ignore (Bignum.mod_pow Bignum.one Bignum.one Bignum.zero));
  Alcotest.check_raises "fixed base needs an odd modulus"
    (Invalid_argument "Bignum.fixed_base: modulus must be odd and > 1") (fun () ->
      ignore (Bignum.fixed_base (bn 3) (bn 1000) ~max_bits:8))

let prop_fixed_base_pow2 =
  QCheck.Test.make ~name:"bignum: fixed-base and double exponentiation equal single ones" ~count:100
    QCheck.(
      pair (triple (arb_bignum 300) (arb_bignum 200) (arb_bignum 300))
        (triple (arb_bignum 300) (arb_bignum 260) (int_bound 200)))
    (fun ((g, e1, m), (b, e2, max_bits)) ->
      let m = if Bignum.is_even m then Bignum.add m Bignum.one else m in
      QCheck.assume (Bignum.compare m Bignum.one > 0);
      let fb = Bignum.fixed_base g m ~max_bits in
      let gp = ref_mod_pow g e1 m in
      (* e1 may be wider than the table: that path falls back to windows. *)
      Bignum.equal (Bignum.fixed_base_pow fb e1) gp
      && Bignum.equal (Bignum.fixed_base_pow2 fb e1 b e2)
           (Bignum.rem (Bignum.mul gp (ref_mod_pow b e2 m)) m))

let test_mod_inverse () =
  (match Bignum.mod_inverse (bn 3) (bn 10) with
  | Some x -> check Alcotest.(option int) "3^-1 mod 10" (Some 7) (Bignum.to_int x)
  | None -> Alcotest.fail "expected inverse");
  Alcotest.(check bool) "no inverse when gcd > 1" true (Bignum.mod_inverse (bn 4) (bn 8) = None)

let prop_mod_inverse =
  QCheck.Test.make ~name:"bignum: a * inverse(a) = 1 mod m" ~count:200
    (QCheck.pair (arb_bignum 128) (arb_bignum 128))
    (fun (a, m) ->
      QCheck.assume (Bignum.compare m Bignum.two > 0);
      QCheck.assume (not (Bignum.is_zero (Bignum.rem a m)));
      match Bignum.mod_inverse a m with
      | None -> not (Bignum.equal (Bignum.gcd a m) Bignum.one)
      | Some x -> Bignum.equal (Bignum.rem (Bignum.mul (Bignum.rem a m) x) m) Bignum.one)

let test_primality () =
  let rng = Rng.create 99L in
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (Bignum.is_probable_prime rng (bn p)))
    [ 2; 3; 5; 7; 97; 7919; 104729 ];
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c) false (Bignum.is_probable_prime rng (bn c)))
    [ 0; 1; 4; 100; 7917; 561 (* Carmichael *); 104730 ]

let test_generate_prime () =
  let rng = Rng.create 1234L in
  let p = Bignum.generate_prime rng ~bits:96 in
  check Alcotest.int "bit length" 96 (Bignum.bit_length p);
  Alcotest.(check bool) "probably prime" true (Bignum.is_probable_prime rng p)

(* ---- RSA ------------------------------------------------------------------- *)

let test_rsa_roundtrip () =
  let rng = Rng.create 7L in
  let kp = Rsa.generate rng ~bits:256 in
  let s = Rsa.sign kp.Rsa.secret "attack at dawn" in
  Alcotest.(check bool) "verifies" true (Rsa.verify kp.Rsa.public "attack at dawn" ~signature:s);
  Alcotest.(check bool) "message tamper" false (Rsa.verify kp.Rsa.public "attack at dusk" ~signature:s);
  let bad = Bytes.of_string s in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  Alcotest.(check bool) "signature tamper" false
    (Rsa.verify kp.Rsa.public "attack at dawn" ~signature:(Bytes.to_string bad));
  check Alcotest.int "signature size" (Rsa.signature_size kp.Rsa.public) (String.length s)

let test_rsa_cross_key () =
  let rng = Rng.create 8L in
  let kp1 = Rsa.generate rng ~bits:256 in
  let kp2 = Rsa.generate rng ~bits:256 in
  let s = Rsa.sign kp1.Rsa.secret "msg" in
  Alcotest.(check bool) "other key rejects" false (Rsa.verify kp2.Rsa.public "msg" ~signature:s)

(* ---- Schnorr ----------------------------------------------------------------- *)

let test_schnorr_params () =
  let p = Schnorr.default_params () in
  let rng = Rng.create 3L in
  Alcotest.(check bool) "p prime" true (Bignum.is_probable_prime rng p.Schnorr.p);
  Alcotest.(check bool) "q prime" true (Bignum.is_probable_prime rng p.Schnorr.q);
  (* q | p - 1 *)
  Alcotest.(check bool) "q divides p-1" true
    (Bignum.is_zero (Bignum.rem (Bignum.sub p.Schnorr.p Bignum.one) p.Schnorr.q));
  (* g has order q: g^q = 1 mod p, g <> 1 *)
  Alcotest.(check bool) "g^q = 1" true
    (Bignum.equal (Bignum.mod_pow p.Schnorr.g p.Schnorr.q p.Schnorr.p) Bignum.one);
  Alcotest.(check bool) "g <> 1" false (Bignum.equal p.Schnorr.g Bignum.one)

let test_schnorr_roundtrip () =
  let rng = Rng.create 5L in
  let params = Schnorr.default_params () in
  let kp = Schnorr.generate rng params in
  let s = Schnorr.sign rng kp.Schnorr.secret "block 42" in
  check Alcotest.int "signature size" (Schnorr.signature_size params) (String.length s);
  Alcotest.(check bool) "verifies" true (Schnorr.verify kp.Schnorr.public "block 42" ~signature:s);
  Alcotest.(check bool) "tamper msg" false (Schnorr.verify kp.Schnorr.public "block 43" ~signature:s);
  let bad = Bytes.of_string s in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 0x80));
  Alcotest.(check bool) "tamper sig" false
    (Schnorr.verify kp.Schnorr.public "block 42" ~signature:(Bytes.to_string bad))

let test_schnorr_cross_key () =
  let rng = Rng.create 6L in
  let params = Schnorr.default_params () in
  let kp1 = Schnorr.generate rng params in
  let kp2 = Schnorr.generate rng params in
  let s = Schnorr.sign rng kp1.Schnorr.secret "m" in
  Alcotest.(check bool) "other key rejects" false (Schnorr.verify kp2.Schnorr.public "m" ~signature:s)

let prop_schnorr_random_messages =
  QCheck.Test.make ~name:"schnorr: every signed message verifies" ~count:20
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun msg ->
      let rng = Rng.create 77L in
      let kp = Schnorr.generate rng (Schnorr.default_params ()) in
      let s = Schnorr.sign rng kp.Schnorr.secret msg in
      Schnorr.verify kp.Schnorr.public msg ~signature:s)

(* The verification formula written out with the reference exponentiation:
   r' = g^s * y^(q-e) mod p, accepted iff H(r' || msg) mod q = e. *)
let ref_schnorr_verify public msg signature =
  let params = Schnorr.default_params () in
  let p = params.Schnorr.p and q = params.Schnorr.q and g = params.Schnorr.g in
  let w = (Bignum.bit_length q + 7) / 8 in
  String.length signature = 2 * w
  &&
  let e = Bignum.of_bytes_be (String.sub signature 0 w) in
  let s = Bignum.of_bytes_be (String.sub signature w w) in
  (not (Bignum.is_zero e))
  && Bignum.compare e q < 0
  && Bignum.compare s q < 0
  &&
  let y = Schnorr.public_value public in
  let r' = Bignum.rem (Bignum.mul (ref_mod_pow g s p) (ref_mod_pow y (Bignum.sub q e) p)) p in
  let c = Bignum.rem (Bignum.of_bytes_be (Sha256.digest (Bignum.to_bytes_be r' ^ msg))) q in
  Bignum.equal c e

let flip_byte str i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x5a) else c) str

(* Valid signatures and corrupted ones: flipped bytes in e, in s and in the
   message, e = 0, s >= q, and wrong lengths. *)
let schnorr_corpus () =
  let rng = Rng.create 31L in
  let params = Schnorr.default_params () in
  let kp = Schnorr.generate rng params in
  let w = Schnorr.signature_size params / 2 in
  let q_bytes = Bignum.to_bytes_be ~pad_to:w params.Schnorr.q in
  let cases =
    List.concat_map
      (fun i ->
        let msg = Printf.sprintf "txn %d payload %s" i (String.make (i mod 7) 'x') in
        let sg = Schnorr.sign rng kp.Schnorr.secret msg in
        let e = String.sub sg 0 w and s = String.sub sg w w in
        [
          (msg, sg);
          (msg, flip_byte sg (i mod w));
          (msg, flip_byte sg (w + (i mod w)));
          (flip_byte msg (i mod String.length msg), sg);
          (msg, String.make w '\x00' ^ s);
          (msg, e ^ q_bytes);
          (msg, e ^ String.make w '\xff');
          (msg, String.sub sg 0 ((2 * w) - 1));
          (msg, sg ^ "\x00");
          (msg, "");
        ])
      (List.init 6 Fun.id)
  in
  (kp.Schnorr.public, cases)

let test_schnorr_reference_verdicts () =
  let public, cases = schnorr_corpus () in
  List.iteri
    (fun i (msg, sg) ->
      let verdict = Schnorr.verify public msg ~signature:sg in
      Alcotest.(check bool) (Printf.sprintf "case %d matches the formula" i)
        (ref_schnorr_verify public msg sg) verdict;
      (* Every tenth case is the untouched signature. *)
      Alcotest.(check bool) (Printf.sprintf "case %d verdict" i) (i mod 10 = 0) verdict)
    cases

(* Replicas verify on transport reader threads: two domains verifying
   through one key and one parameter table must agree with a serial run. *)
let test_schnorr_concurrent_domains () =
  let public, cases = schnorr_corpus () in
  let verdicts () = List.map (fun (msg, sg) -> Schnorr.verify public msg ~signature:sg) cases in
  let serial = verdicts () in
  let run () = List.init 3 (fun _ -> verdicts ()) in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  List.iter
    (fun rounds -> List.iter (fun v -> Alcotest.(check (list bool)) "same verdicts" serial v) rounds)
    [ Domain.join d1; Domain.join d2 ]

(* ---- Signer façade ------------------------------------------------------------ *)

let test_signer_all_schemes () =
  List.iter
    (fun scheme ->
      let rng = Rng.create 11L in
      let t = Signer.create rng scheme in
      let v = Signer.verifier t in
      let s = Signer.sign t "payload" in
      Alcotest.(check bool)
        (Signer.scheme_name scheme ^ " verifies")
        true
        (Signer.verify v "payload" ~signature:s);
      check Alcotest.string "scheme name survives" (Signer.scheme_name scheme)
        (Signer.scheme_name (Signer.scheme t)))
    [ Signer.No_sig; Signer.Cmac_aes; Signer.Ed25519; Signer.Rsa ]

let test_signer_tamper_detection () =
  List.iter
    (fun scheme ->
      let rng = Rng.create 12L in
      let t = Signer.create rng scheme in
      let v = Signer.verifier t in
      let s = Signer.sign t "payload" in
      Alcotest.(check bool)
        (Signer.scheme_name scheme ^ " rejects tamper")
        false
        (Signer.verify v "payloae" ~signature:s))
    [ Signer.Cmac_aes; Signer.Ed25519; Signer.Rsa ]

let test_signature_sizes () =
  check Alcotest.int "none" 0 (Signer.signature_size Signer.No_sig);
  check Alcotest.int "cmac" 16 (Signer.signature_size Signer.Cmac_aes);
  check Alcotest.int "ed25519" 64 (Signer.signature_size Signer.Ed25519);
  check Alcotest.int "rsa" 256 (Signer.signature_size Signer.Rsa)

(* ---- Cost model ----------------------------------------------------------------- *)

let test_cost_model_ordering () =
  let c = Cost_model.default in
  Alcotest.(check bool) "mac << ed25519" true
    (Cost_model.sign_cost c Signer.Cmac_aes < Cost_model.sign_cost c Signer.Ed25519);
  Alcotest.(check bool) "ed25519 << rsa" true
    (Cost_model.sign_cost c Signer.Ed25519 < Cost_model.sign_cost c Signer.Rsa);
  Alcotest.(check bool) "no_sig free" true (Cost_model.sign_cost c Signer.No_sig = 0);
  Alcotest.(check bool) "batched verify cheaper" true
    (Cost_model.verify_cost_batched c Signer.Ed25519 < Cost_model.verify_cost c Signer.Ed25519);
  Alcotest.(check bool) "sqlite >> mem" true
    (Cost_model.execute_cost c ~sqlite:true ~ops:10 > Cost_model.execute_cost c ~sqlite:false ~ops:10);
  Alcotest.(check bool) "hash linear in size" true
    (Cost_model.hash_cost c ~bytes:10_000 > Cost_model.hash_cost c ~bytes:100)

let () =
  Alcotest.run "rdb_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming_equals_oneshot;
          qtest prop_sha256_deterministic_and_sensitive;
        ] );
      ( "sha3",
        [
          Alcotest.test_case "FIPS 202 vectors" `Quick test_sha3_vectors;
          Alcotest.test_case "multi-block absorption" `Quick test_sha3_multiblock;
          qtest prop_sha3_sensitivity;
        ] );
      ( "aes",
        [
          Alcotest.test_case "FIPS-197" `Quick test_aes_fips197;
          Alcotest.test_case "RFC 4493 subkey step" `Quick test_aes_rfc4493_key;
          Alcotest.test_case "bad sizes rejected" `Quick test_aes_bad_sizes;
        ] );
      ( "cmac",
        [
          Alcotest.test_case "RFC 4493 vectors" `Quick test_cmac_rfc4493;
          Alcotest.test_case "verify" `Quick test_cmac_verify;
          qtest prop_cmac_distinct_messages;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "basics" `Quick test_bignum_basic;
          Alcotest.test_case "sub underflow" `Quick test_bignum_sub_underflow;
          Alcotest.test_case "bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
          Alcotest.test_case "shifts" `Quick test_bignum_shifts;
          Alcotest.test_case "divmod" `Quick test_bignum_divmod_known;
          Alcotest.test_case "mod_inverse" `Quick test_mod_inverse;
          Alcotest.test_case "primality" `Quick test_primality;
          Alcotest.test_case "generate prime" `Quick test_generate_prime;
          qtest prop_divmod_invariant;
          qtest prop_mul_commutes;
          qtest prop_add_sub_roundtrip;
          qtest prop_mod_pow_small;
          Alcotest.test_case "mod_pow edge cases" `Quick test_mod_pow_edges;
          qtest prop_mod_pow_reference;
          qtest prop_fixed_base_pow2;
          qtest prop_mod_inverse;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "roundtrip + tamper" `Quick test_rsa_roundtrip;
          Alcotest.test_case "cross-key rejection" `Quick test_rsa_cross_key;
        ] );
      ( "schnorr",
        [
          Alcotest.test_case "domain parameters" `Quick test_schnorr_params;
          Alcotest.test_case "roundtrip + tamper" `Quick test_schnorr_roundtrip;
          Alcotest.test_case "cross-key rejection" `Quick test_schnorr_cross_key;
          qtest prop_schnorr_random_messages;
          Alcotest.test_case "verdicts match the reference formula" `Quick
            test_schnorr_reference_verdicts;
          Alcotest.test_case "two domains, same verdicts" `Quick test_schnorr_concurrent_domains;
        ] );
      ( "signer",
        [
          Alcotest.test_case "all schemes roundtrip" `Quick test_signer_all_schemes;
          Alcotest.test_case "tamper detection" `Quick test_signer_tamper_detection;
          Alcotest.test_case "wire sizes" `Quick test_signature_sizes;
        ] );
      ("cost model", [ Alcotest.test_case "cost ordering" `Quick test_cost_model_ordering ]);
    ]
