type t = Eager | Periodic of int | Adaptive

let adaptive_min = 8
let adaptive_max = 512
let adaptive_start = 64

let equal a b =
  match (a, b) with
  | Eager, Eager | Adaptive, Adaptive -> true
  | Periodic m, Periodic n -> m = n
  | (Eager | Periodic _ | Adaptive), _ -> false

let to_string = function
  | Eager -> "eager"
  | Periodic n -> Printf.sprintf "periodic:%d" n
  | Adaptive -> "adaptive"

let of_string s =
  match s with
  | "eager" -> Some Eager
  | "adaptive" -> Some Adaptive
  | _ -> (
      match String.split_on_char ':' s with
      | [ "periodic"; n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> Some (Periodic n)
          | Some _ | None -> None)
      | _ -> None)

(* A [Periodic] pass re-arms [n] ticks on; with [n < 1] it re-arms at the
   current tick, the tick never advances and [max_ticks] never trips. *)
let check = function
  | Periodic n when n < 1 ->
      invalid_arg (Printf.sprintf "Detection_policy: periodic:%d (period < 1)" n)
  | Eager | Periodic _ | Adaptive -> ()

let pp ppf t = Format.pp_print_string ppf (to_string t)

let is_eager = function Eager -> true | Periodic _ | Adaptive -> false

(* The watchdog bound: the longest a transaction may sit blocked with no
   detection pass having run since it blocked, before the engine forces a
   full sweep. Derived so that a healthy detector always beats it — the
   watchdog only fires when passes were lost (a detector outage), never in
   steady state. *)
let stall_bound = function
  | Eager -> 0 (* detection is inline in the request path; never stalls *)
  | Periodic n -> 4 * n
  | Adaptive -> 4 * adaptive_max

let initial_interval = function
  | Eager -> 0
  | Periodic n -> n
  | Adaptive -> adaptive_start

type cadence = { mutable interval : int; mutable quiet : int }

let cadence interval = { interval; quiet = 0 }

(* The adaptive rule (after Ling et al.): a pass that found deadlocks
   halves the interval; two consecutive empty passes double it. *)
let adapt c ~found =
  if found then begin
    c.interval <- max adaptive_min (c.interval / 2);
    c.quiet <- 0
  end
  else begin
    c.quiet <- c.quiet + 1;
    if c.quiet >= 2 then begin
      c.interval <- min adaptive_max (c.interval * 2);
      c.quiet <- 0
    end
  end

let all_deferred = [ Periodic 32; Adaptive ]

let all = Eager :: all_deferred
