(** Deterministic views of hash tables.

    [Hashtbl] iteration order is a function of the hash seed, the table's
    history and the stdlib version; replaying a run byte-for-byte must not
    depend on it. Replay-critical modules traverse tables only through
    these helpers, which sort the bindings by key under an explicit
    comparator — the static analyzer ([lib/lint], rule D1) enforces the
    discipline.

    All helpers assume tables with at most one binding per key
    ([Hashtbl.replace] semantics). *)

val sorted_bindings :
  ('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** [sorted_bindings cmp tbl] is the bindings of [tbl] sorted by key. *)

val iter_sorted :
  ('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted cmp f tbl] applies [f] to each binding in ascending key
    order. *)
