(** Values stored in global entities and transaction-local variables.

    The paper's analysis is value-agnostic; a small concrete value type
    keeps programs replayable (rollback re-executes operations and must
    reproduce identical states) and lets tests compare states exactly. *)

type t = Int of int | Text of string | Bool of bool

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val int : int -> t
val text : string -> t
val bool : bool -> t

val as_int : t -> int
(** Numeric view used by arithmetic in the expression language: [Int n] is
    [n], [Bool b] is 0/1, [Text s] is [string_hash s]. *)

val string_hash : string -> int
(** FNV-1a over the bytes of the string, kept to its low 62 bits (so
    non-negative): deterministic across runs and platforms with 63-bit
    ints, and allocation-free. The values are those of the 64-bit fold
    over boxed [Int64]s ([string_hash "abc" = 2819150120103270219]); the
    distributed engine's default entity-to-site map is this hash modulo
    the number of sites, so a changed value moves entities between
    sites. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val min_v : t -> t -> t
val max_v : t -> t -> t

val mix : t -> t
(** A cheap injective-ish integer mixer (splitmix64 finaliser truncated to
    OCaml int), used by synthetic workloads so written values depend on
    read values in a non-trivial, deterministic way. *)
