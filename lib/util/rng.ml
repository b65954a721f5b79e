(* The 64-bit state sits unboxed in 8 bytes: an [int64] record field
   would be re-boxed on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let make seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

(* Rejection sampling to avoid modulo bias. *)
let rec draw t bound =
  let b = Int64.of_int bound in
  let r = Int64.shift_right_logical (bits64 t) 1 in
  let v = Int64.rem r b in
  if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int b) 1L then draw t bound
  else Int64.to_int v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let r = Int64.shift_right_logical (bits64 t) 11 in
  (* 53 random bits, the double-precision mantissa width. *)
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
