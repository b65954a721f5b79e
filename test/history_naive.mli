(** The original O(I²) serializability construction, retained verbatim as
    the differential-testing reference for the streaming checker.

    This is the seed implementation of {!Prb_history.History}: every
    query re-derives its answer from the full committed interval list —
    the conflict graph by an all-pairs scan, overlap detection likewise —
    and nothing is ever truncated. It is quadratic in run length and exists only so property
    tests can replay one random API trace into both implementations and
    assert that the streaming checker's verdict is identical and its
    witness linearises this module's precedence graph. *)

type txn = Prb_history.History.txn
type entity = Prb_history.History.entity
type mode = Prb_history.History.mode

type interval = Prb_history.History.interval = {
  txn : txn;
  entity : entity;
  mode : mode;
  granted_at : int;
  released_at : int;
}

type t

val create : unit -> t
val note_grant : t -> tick:int -> txn -> entity -> mode -> unit
val note_release : t -> tick:int -> txn -> entity -> unit
val discard : t -> txn -> entity -> unit
val discard_txn : t -> txn -> unit
val commit_txn : t -> txn -> unit

val committed : t -> interval list
(** Every committed interval, sorted by grant tick then txn. *)

val precedence_graph : t -> Digraph.t
(** The full conflict graph, rebuilt by the quadratic pairwise scan. *)

val overlapping_conflicts : t -> (interval * interval) list
val serializable : t -> bool
val equivalent_serial_order : t -> txn list option
