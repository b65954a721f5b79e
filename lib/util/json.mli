(** A minimal JSON reader for the files this repository writes and reads:
    [BENCH_scale.json], [BENCHMARK.json] and the repository benchmark's
    result lines. *)

exception Parse_error of string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t
(** The one value [s] holds, surrounded by nothing but whitespace.
    Strings may escape only a quote, a backslash, a slash, [n], [t] and
    [r]. @raise Parse_error on anything else, with the offset. *)

val member : string -> t -> t option
(** The named field of an object; [None] if it has none or is not an
    object. *)

val field : string -> t -> t
(** @raise Parse_error when {!member} would return [None]. *)

val to_float : t -> float
(** A number; [Null] reads as [nan]. @raise Parse_error otherwise. *)

val to_int : t -> int
(** An integral number. @raise Parse_error otherwise. *)

val to_bool : t -> bool
val to_string : t -> string
val to_list : t -> t list
(** Each @raise Parse_error on a value of another kind. *)
