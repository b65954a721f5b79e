(** Reference implementation of {!Prb_storage.Value.string_hash} (the
    original FNV-1a fold over boxed [Int64]s), retained for differential
    testing only. *)

val string_hash : string -> int
(** The 64-bit FNV-1a fold of the string's bytes, cut to OCaml's int
    range with [Int64.to_int] and [land max_int]. *)
