type params = { p : Bignum.t; q : Bignum.t; g : Bignum.t; g_table : Bignum.fixed_base }

type public = { pub_params : params; y : Bignum.t }
type secret = { sec_params : params; x : Bignum.t }
type keypair = { public : public; secret : secret }

let generate_params rng ~p_bits ~q_bits =
  if q_bits >= p_bits then invalid_arg "Schnorr.generate_params: q_bits must be < p_bits";
  let q = Bignum.generate_prime rng ~bits:q_bits in
  (* Search p = q*k + 1 with the right bit length. *)
  let rec find_p () =
    let k = Bignum.random_bits rng (p_bits - q_bits) in
    let p = Bignum.add (Bignum.mul q k) Bignum.one in
    if Bignum.bit_length p = p_bits && Bignum.is_probable_prime rng p then (p, k)
    else find_p ()
  in
  let p, k = find_p () in
  let rec find_g () =
    let h = Bignum.add Bignum.two (Bignum.random_below rng (Bignum.sub p (Bignum.of_int 3))) in
    let g = Bignum.mod_pow h k p in
    if Bignum.equal g Bignum.one then find_g () else g
  in
  let g = find_g () in
  (* Every exponent of g is below q. *)
  { p; q; g; g_table = Bignum.fixed_base g p ~max_bits:q_bits }

let default =
  lazy (generate_params (Rdb_des.Rng.create 0x52444253436E7231L) ~p_bits:256 ~q_bits:160)

let default_params () = Lazy.force default

let generate rng params =
  let x = Bignum.add Bignum.one (Bignum.random_below rng (Bignum.sub params.q Bignum.one)) in
  let y = Bignum.fixed_base_pow params.g_table x in
  { public = { pub_params = params; y }; secret = { sec_params = params; x } }

let q_bytes params = (Bignum.bit_length params.q + 7) / 8

(* Challenge e = H(r || m) reduced mod q. *)
let challenge params r msg =
  let r_bytes = Bignum.to_bytes_be r in
  Bignum.rem (Bignum.of_bytes_be (Sha256.digest (r_bytes ^ msg))) params.q

let sign rng secret msg =
  let params = secret.sec_params in
  let rec go () =
    let k = Bignum.add Bignum.one (Bignum.random_below rng (Bignum.sub params.q Bignum.one)) in
    let r = Bignum.fixed_base_pow params.g_table k in
    let e = challenge params r msg in
    if Bignum.is_zero e then go ()
    else begin
      (* s = k + x*e mod q *)
      let s = Bignum.rem (Bignum.add k (Bignum.mul secret.x e)) params.q in
      if Bignum.is_zero s then go ()
      else begin
        let w = q_bytes params in
        Bignum.to_bytes_be ~pad_to:w e ^ Bignum.to_bytes_be ~pad_to:w s
      end
    end
  in
  go ()

let verify public msg ~signature =
  let params = public.pub_params in
  let w = q_bytes params in
  if String.length signature <> 2 * w then false
  else begin
    let e = Bignum.of_bytes_be (String.sub signature 0 w) in
    let s = Bignum.of_bytes_be (String.sub signature w w) in
    if Bignum.is_zero e || Bignum.compare e params.q >= 0 || Bignum.compare s params.q >= 0
    then false
    else begin
      (* r' = g^s * y^(-e) = g^s * y^(q-e) mod p; then H(r' || m) must be e. *)
      let r' = Bignum.fixed_base_pow2 params.g_table s public.y (Bignum.sub params.q e) in
      Bignum.equal (challenge params r' msg) e
    end
  end

let public_value public = public.y

let signature_size params = 2 * q_bytes params
