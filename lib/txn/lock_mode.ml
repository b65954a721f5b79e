type t = Shared | Exclusive

let equal a b =
  match (a, b) with
  | Shared, Shared | Exclusive, Exclusive -> true
  | (Shared | Exclusive), _ -> false

let compatible held requested =
  match (held, requested) with
  | Shared, Shared -> true
  | Shared, Exclusive | Exclusive, Shared | Exclusive, Exclusive -> false

let covers held requested =
  match (held, requested) with
  | Exclusive, (Shared | Exclusive) | Shared, Shared -> true
  | Shared, Exclusive -> false

let to_string = function Shared -> "S" | Exclusive -> "X"

let pp ppf t = Format.pp_print_string ppf (to_string t)
