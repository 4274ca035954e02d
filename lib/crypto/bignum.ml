(* Little-endian arrays of 31-bit limbs, always normalized (no trailing zero
   limb); zero is the empty array.  31-bit limbs keep every intermediate
   product and dividend estimate within OCaml's 63-bit native int. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero t = Array.length t = 0

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  if n = 0 then zero
  else begin
    let rec limbs n = if n = 0 then [] else (n land limb_mask) :: limbs (n lsr limb_bits) in
    Array.of_list (limbs n)
  end

let to_int t =
  (* A native int holds at most 62 value bits: two limbs always fit. *)
  match Array.length t with
  | 0 -> Some 0
  | 1 -> Some t.(0)
  | 2 -> Some ((t.(1) lsl limb_bits) lor t.(0))
  | 3 when t.(2) = 0 -> Some ((t.(1) lsl limb_bits) lor t.(0))
  | _ -> None

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let is_even t = Array.length t = 0 || t.(0) land 1 = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let acc = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- acc land limb_mask;
        carry := acc lsr limb_bits
      done;
      (* Propagate the final carry (it can span multiple limbs). *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let acc = out.(!k) + !carry in
        out.(!k) <- acc land limb_mask;
        carry := acc lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let bit_length t =
  let n = Array.length t in
  if n = 0 then 0
  else begin
    let top = t.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let test_bit t i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length t && (t.(limb) lsr off) land 1 = 1

let shift_left t k =
  if k < 0 then invalid_arg "Bignum.shift_left";
  if is_zero t || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length t in
    let out = Array.make (n + limbs + 1) 0 in
    for i = 0 to n - 1 do
      let v = t.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- out.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

let shift_right t k =
  if k < 0 then invalid_arg "Bignum.shift_right";
  if is_zero t || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length t in
    if limbs >= n then zero
    else begin
      let m = n - limbs in
      let out = Array.make m 0 in
      for i = 0 to m - 1 do
        let lo = t.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < n then (t.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        out.(i) <- if bits = 0 then t.(i + limbs) else lo lor hi
      done;
      normalize out
    end
  end

(* Knuth Algorithm D (Hacker's Delight divmnu), base 2^31. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    (* Short division by a single limb. *)
    let d = b.(0) in
    let n = Array.length a in
    let q = Array.make n 0 in
    let r = ref 0 in
    for i = n - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (normalize q, of_int !r)
  end
  else begin
    let n = Array.length b in
    let m = Array.length a - n in
    (* Normalize so the top divisor limb has its high bit set. *)
    let shift = limb_bits - bit_length [| b.(n - 1) |] in
    let u =
      let s = shift_left a shift in
      let arr = Array.make (Array.length a + n + 2) 0 in
      Array.blit s 0 arr 0 (Array.length s);
      arr
    in
    let v =
      let s = shift_left b shift in
      let arr = Array.make n 0 in
      Array.blit s 0 arr 0 (Array.length s);
      arr
    in
    let q = Array.make (m + 1) 0 in
    for j = m downto 0 do
      let top = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (top / v.(n - 1)) in
      let rhat = ref (top mod v.(n - 1)) in
      let continue = ref true in
      while
        !continue
        && (!qhat >= base
           || !qhat * v.(n - 2) > (!rhat lsl limb_bits) lor u.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + v.(n - 1);
        if !rhat >= base then continue := false
      done;
      (* Multiply and subtract. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr limb_bits;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        u.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let of_hex s =
  let s =
    let s = if String.length s >= 2 && (s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')) then String.sub s 2 (String.length s - 2) else s in
    String.concat "" (String.split_on_char '_' s)
  in
  let value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bignum.of_hex: invalid character"
  in
  let acc = ref zero in
  String.iter (fun c -> acc := add (shift_left !acc 4) (of_int (value c))) s;
  !acc

let to_hex t =
  if is_zero t then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go v =
      if not (is_zero v) then begin
        let q, r = divmod v (of_int 16) in
        go q;
        let d = match to_int r with Some d -> d | None -> assert false in
        Buffer.add_char buf "0123456789abcdef".[d]
      end
    in
    go t;
    Buffer.contents buf
  end

(* Bits [pos, pos + w) of [t], for [w <= limb_bits]; zero past the top. *)
let bits_at (t : t) pos w =
  let limb = pos / limb_bits and off = pos mod limb_bits in
  let n = Array.length t in
  let lo = if limb < n then t.(limb) lsr off else 0 in
  let hi = if off + w > limb_bits && limb + 1 < n then t.(limb + 1) lsl (limb_bits - off) else 0 in
  (lo lor hi) land ((1 lsl w) - 1)

let of_bytes_be s =
  let len = String.length s in
  let out = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  for i = 0 to len - 1 do
    let byte = Char.code s.[len - 1 - i] in
    let limb = 8 * i / limb_bits and off = 8 * i mod limb_bits in
    out.(limb) <- out.(limb) lor ((byte lsl off) land limb_mask);
    if off > limb_bits - 8 then out.(limb + 1) <- out.(limb + 1) lor (byte lsr (limb_bits - off))
  done;
  normalize out

let to_bytes_be ?pad_to t =
  let n_bytes = max 1 ((bit_length t + 7) / 8) in
  let width = match pad_to with Some w when w > n_bytes -> w | _ -> n_bytes in
  String.init width (fun i -> Char.chr (bits_at t (8 * (width - 1 - i)) 8))

(* ---- Montgomery arithmetic (odd moduli) ----

   For an odd modulus m of n limbs and R = 2^(31n), a residue a is held in
   Montgomery form, aR mod m, as exactly n limbs (not normalized).
   [mont_mul] computes abR^-1 mod m by CIOS (Koc, Acar & Kaliski, IEEE
   Micro 1996), with the multiply and reduce passes fused into one loop
   over two carry chains.  Each step adds one limb product to a limb and a
   carry: at most (2^31-1)^2 + 2(2^31-1) = 2^62 - 1 = max_int, so nothing
   leaves a native int and nothing is allocated. *)

type mont = {
  m : int array;  (* the modulus, n limbs *)
  m' : int;  (* -m^-1 mod 2^31 *)
  r2 : int array;  (* R^2 mod m: a Montgomery product with it enters the form *)
}

let pad (a : t) n =
  let out = Array.make n 0 in
  Array.blit a 0 out 0 (Array.length a);
  out

let mont_ctx (m : t) =
  let n = Array.length m in
  (* Newton's step doubles the correct low bits of m0^-1: 1, 2, 4, ..., 32. *)
  let m0 = m.(0) in
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := (!inv * ((2 - (m0 * !inv)) land limb_mask)) land limb_mask
  done;
  { m; m' = (base - !inv) land limb_mask; r2 = pad (rem (shift_left one (2 * limb_bits * n)) m) n }

(* The accumulator [mont_mul] works in: n + 1 limbs.  One per caller, never
   shared, so concurrent exponentiations do not interfere. *)
let scratch ctx = Array.make (Array.length ctx.m + 1) 0

(* [dst] <- [a]*[b]*R^-1 mod m, for a, b < m.  [dst] may alias [a] or [b]:
   it is written only after both are read for the last time.  The length
   check at entry is what makes the unchecked reads of the inner loop, the
   hottest code under signature verification, safe. *)
let mont_mul ctx (t : int array) (dst : int array) (a : int array) (b : int array) =
  let m = ctx.m and m' = ctx.m' in
  let n = Array.length m in
  if Array.length t <= n || Array.length a < n || Array.length b < n || Array.length dst < n then
    invalid_arg "Bignum.mont_mul";
  Array.fill t 0 (n + 1) 0;
  for i = 0 to n - 1 do
    let bi = b.(i) in
    let x = t.(0) + (a.(0) * bi) in
    let c1 = ref (x lsr limb_bits) in
    let u = ((x land limb_mask) * m') land limb_mask in
    let c2 = ref (((x land limb_mask) + (u * m.(0))) lsr limb_bits) in
    for j = 1 to n - 1 do
      let x = Array.unsafe_get t j + (Array.unsafe_get a j * bi) + !c1 in
      c1 := x lsr limb_bits;
      let y = (x land limb_mask) + (u * Array.unsafe_get m j) + !c2 in
      c2 := y lsr limb_bits;
      Array.unsafe_set t (j - 1) (y land limb_mask)
    done;
    (* t stays below 2m, so its top limb is 0 or 1. *)
    let top = t.(n) + !c1 + !c2 in
    t.(n - 1) <- top land limb_mask;
    t.(n) <- top lsr limb_bits
  done;
  let i = ref (n - 1) in
  while !i >= 0 && t.(!i) = m.(!i) do
    decr i
  done;
  if t.(n) <> 0 || !i < 0 || t.(!i) > m.(!i) then begin
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = t.(i) - m.(i) - !borrow in
      dst.(i) <- d land limb_mask;
      borrow := if d < 0 then 1 else 0
    done
  end
  else Array.blit t 0 dst 0 n

let to_mont ctx t x =
  let n = Array.length ctx.m in
  let out = pad (rem x ctx.m) n in
  mont_mul ctx t out out ctx.r2;
  out

let of_mont ctx t x =
  let out = Array.make (Array.length ctx.m) 0 in
  mont_mul ctx t out x (pad one (Array.length ctx.m));
  normalize out

(* [tbl.(d)] = base^d in Montgomery form, for d < 2^w. *)
let window_table ctx t base_m w =
  let tbl = Array.make (1 lsl w) base_m in
  tbl.(0) <- to_mont ctx t one;
  for d = 2 to (1 lsl w) - 1 do
    let next = Array.make (Array.length ctx.m) 0 in
    mont_mul ctx t next tbl.(d - 1) base_m;
    tbl.(d) <- next
  done;
  tbl

(* The product of tbl^e over [terms], in Montgomery form, by fixed w-bit
   windows scanned from the top: one shared run of squarings, with each
   exponent's window digit multiplied in as it passes (Shamir's trick when
   there are two terms). *)
let pow_product ctx t w terms =
  let acc = Array.copy (fst (List.hd terms)).(0) in
  let started = ref false in
  let nbits = List.fold_left (fun a (_, e) -> max a (bit_length e)) 0 terms in
  for i = ((nbits + w - 1) / w) - 1 downto 0 do
    if !started then
      for _ = 1 to w do
        mont_mul ctx t acc acc acc
      done;
    List.iter
      (fun (tbl, e) ->
        let d = bits_at e (i * w) w in
        if d <> 0 then
          if !started then mont_mul ctx t acc acc tbl.(d)
          else begin
            Array.blit tbl.(d) 0 acc 0 (Array.length acc);
            started := true
          end)
      terms
  done;
  acc

(* The window width minimising table building (2^w - 2 products) plus one
   product per window (nbits / w), for an nbits-bit exponent. *)
let window_bits nbits =
  if nbits <= 4 then 1
  else if nbits <= 24 then 2
  else if nbits <= 96 then 3
  else if nbits <= 320 then 4
  else 5

(* Right-to-left square-and-multiply with a full division per step: the
   path for even moduli, where Montgomery reduction does not apply. *)
let mod_pow_even b e m =
  let result = ref one in
  let b = ref (rem b m) in
  let nbits = bit_length e in
  for i = 0 to nbits - 1 do
    if test_bit e i then result := rem (mul !result !b) m;
    if i < nbits - 1 then b := rem (mul !b !b) m
  done;
  !result

let mod_pow b e m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_even m then mod_pow_even b e m
  else begin
    let ctx = mont_ctx m in
    let t = scratch ctx in
    let w = window_bits (bit_length e) in
    of_mont ctx t (pow_product ctx t w [ (window_table ctx t (to_mont ctx t b) w, e) ])
  end

(* rows.(i).(d) = g^(d * 2^(w*i)) in Montgomery form, for d < 2^w. *)
type fixed_base = { ctx : mont; rows : int array array array }

let fixed_w = 4

let fixed_base g m ~max_bits =
  if is_even m || compare m one <= 0 then
    invalid_arg "Bignum.fixed_base: modulus must be odd and > 1";
  let ctx = mont_ctx m in
  let t = scratch ctx in
  let rows = Array.make (max 1 ((max_bits + fixed_w - 1) / fixed_w)) [||] in
  let g_i = ref (to_mont ctx t g) in
  for i = 0 to Array.length rows - 1 do
    rows.(i) <- window_table ctx t !g_i fixed_w;
    (* g_(i+1) = g_i^(2^w) = g_i^(2^w - 1) * g_i *)
    let next = Array.make (Array.length m) 0 in
    mont_mul ctx t next rows.(i).((1 lsl fixed_w) - 1) !g_i;
    g_i := next
  done;
  { ctx; rows }

let fixed_base_pow fb e =
  let t = scratch fb.ctx in
  let nrows = Array.length fb.rows in
  if bit_length e > nrows * fixed_w then
    of_mont fb.ctx t (pow_product fb.ctx t fixed_w [ (fb.rows.(0), e) ])
  else begin
    (* One product per nonzero window digit, and no squarings. *)
    let acc = Array.copy fb.rows.(0).(0) in
    for i = 0 to nrows - 1 do
      let d = bits_at e (i * fixed_w) fixed_w in
      if d <> 0 then mont_mul fb.ctx t acc acc fb.rows.(i).(d)
    done;
    of_mont fb.ctx t acc
  end

let fixed_base_pow2 fb e1 b e2 =
  let t = scratch fb.ctx in
  let tbl = window_table fb.ctx t (to_mont fb.ctx t b) fixed_w in
  of_mont fb.ctx t (pow_product fb.ctx t fixed_w [ (fb.rows.(0), e1); (tbl, e2) ])

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

(* Extended Euclid over naturals, tracking signs of the Bezout coefficient
   for [a] explicitly. *)
let mod_inverse a m =
  if is_zero m then invalid_arg "Bignum.mod_inverse: zero modulus";
  let a = rem a m in
  if is_zero a then None
  else begin
    (* Invariants: r0 = x0*a mod m (with sign s0), r1 = x1*a mod m. *)
    let rec go r0 x0 s0 r1 x1 s1 =
      if is_zero r1 then
        if equal r0 one then
          let x = if s0 then sub m (rem x0 m) else rem x0 m in
          Some (rem x m)
        else None
      else begin
        let q, r2 = divmod r0 r1 in
        (* x2 = x0 - q*x1, tracking sign. *)
        let qx1 = mul q x1 in
        let x2, s2 =
          if s0 = s1 then
            if compare x0 qx1 >= 0 then (sub x0 qx1, s0)
            else (sub qx1 x0, not s0)
          else (add x0 qx1, s0)
        in
        go r1 x1 s1 r2 x2 s2
      end
    in
    go m zero false a one false
  end

let random_bits rng bits =
  if bits < 1 then invalid_arg "Bignum.random_bits";
  let n_limbs = ((bits - 1) / limb_bits) + 1 in
  let out = Array.make n_limbs 0 in
  for i = 0 to n_limbs - 1 do
    out.(i) <- Int64.to_int (Int64.logand (Rdb_des.Rng.int64 rng) (Int64.of_int limb_mask))
  done;
  (* Clear bits above the requested width, then force the top bit. *)
  let top = (bits - 1) mod limb_bits in
  let top_limb = (bits - 1) / limb_bits in
  out.(top_limb) <- out.(top_limb) land ((1 lsl (top + 1)) - 1);
  out.(top_limb) <- out.(top_limb) lor (1 lsl top);
  for i = top_limb + 1 to n_limbs - 1 do
    out.(i) <- 0
  done;
  normalize out

let random_below rng bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let bits = bit_length bound in
  let rec try_once () =
    let n_limbs = ((bits - 1) / limb_bits) + 1 in
    let out = Array.make n_limbs 0 in
    for i = 0 to n_limbs - 1 do
      out.(i) <- Int64.to_int (Int64.logand (Rdb_des.Rng.int64 rng) (Int64.of_int limb_mask))
    done;
    let top = (bits - 1) mod limb_bits in
    let top_limb = (bits - 1) / limb_bits in
    out.(top_limb) <- out.(top_limb) land ((1 lsl (top + 1)) - 1);
    for i = top_limb + 1 to n_limbs - 1 do
      out.(i) <- 0
    done;
    let v = normalize out in
    if compare v bound < 0 then v else try_once ()
  in
  try_once ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229 ]

let is_probable_prime ?(rounds = 24) rng n =
  if compare n two < 0 then false
  else if equal n two then true
  else if is_even n then false
  else begin
    let divisible_by_small =
      List.exists
        (fun p ->
          let p = of_int p in
          if compare n p <= 0 then false else is_zero (rem n p))
        small_primes
    in
    let is_small_prime = List.exists (fun p -> equal n (of_int p)) small_primes in
    if is_small_prime then true
    else if divisible_by_small then false
    else begin
      (* n-1 = 2^s * d with d odd. *)
      let n_minus_1 = sub n one in
      let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n_minus_1 0 in
      let witness_passes a =
        let x = mod_pow a d n in
        if equal x one || equal x n_minus_1 then true
        else begin
          let rec loop x i =
            if i >= s - 1 then false
            else begin
              let x = rem (mul x x) n in
              if equal x n_minus_1 then true else loop x (i + 1)
            end
          in
          loop x 0
        end
      in
      let rec rounds_loop i =
        if i >= rounds then true
        else begin
          let a = add two (random_below rng (sub n (of_int 4))) in
          if witness_passes a then rounds_loop (i + 1) else false
        end
      in
      rounds_loop 0
    end
  end

let generate_prime rng ~bits =
  if bits < 4 then invalid_arg "Bignum.generate_prime: need at least 4 bits";
  let rec go () =
    let candidate = random_bits rng bits in
    let candidate = if is_even candidate then add candidate one else candidate in
    if bit_length candidate = bits && is_probable_prime rng candidate then candidate
    else go ()
  in
  go ()

let pp ppf t = Format.pp_print_string ppf (to_hex t)
