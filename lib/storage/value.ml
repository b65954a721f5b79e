type t = Int of int | Text of string | Bool of bool

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Text x, Text y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Int _ | Text _ | Bool _), _ -> false

let compare a b =
  let rank = function Int _ -> 0 | Text _ -> 1 | Bool _ -> 2 in
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Text x, Text y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let pp ppf = function
  | Int n -> Fmt.int ppf n
  | Text s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b

let to_string v = Fmt.str "%a" pp v

let int n = Int n
let text s = Text s
let bool b = Bool b

(* FNV-1a, deterministic across runs unlike [Hashtbl.hash] seeds under
   randomization. The 64-bit fold runs in native ints: xor and
   multiplication modulo 2^63 give exactly the low 63 bits of the 64-bit
   values, which is all [land max_int] keeps, so every hash equals the
   boxed [Int64] fold's without allocating. The offset basis is
   0xcbf29ce484222325 modulo 2^63. *)
let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let rec fnv1a s i h =
  if i >= String.length s then h
  else fnv1a s (i + 1) ((h lxor Char.code s.[i]) * fnv_prime)

let[@hot] string_hash s = fnv1a s 0 fnv_offset land max_int

let as_int = function
  | Int n -> n
  | Bool b -> if b then 1 else 0
  | Text s -> string_hash s

let lift2 f a b = Int (f (as_int a) (as_int b))

let add = lift2 ( + )
let sub = lift2 ( - )
let mul = lift2 ( * )
let neg v = Int (-as_int v)
let min_v = lift2 min
let max_v = lift2 max

let mix v =
  let z = Int64.of_int (as_int v) in
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  Int (Int64.to_int z land max_int)
