type t = { n : int; theta : float; cdf : float array }

let make ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.make: n must be positive";
  if not (theta >= 0.0) then
    invalid_arg "Zipf.make: theta must be non-negative";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  { n; theta; cdf }

let n t = t.n
let theta t = t.theta

let sample t rng =
  let u = Rng.float rng 1.0 in
  (* Smallest index whose cumulative weight exceeds [u]. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (t.n - 1)

let probability t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.probability: rank out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)
