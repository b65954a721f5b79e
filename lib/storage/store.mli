(** The global database: a map from entity names to values, and the one
    numbering of entity names the engine indexes by.

    Per the paper's Section 4 model, a transaction's writes land in
    transaction-local copies; the *global value* of an entity "does not
    change until the transaction unlocks it". Consequently only two
    operations mutate the store: initial population and the final-value
    install performed at unlock/commit time. Rollback never touches the
    store — that invariant is what makes partial rollback cheap, and tests
    assert it.

    Every name gets a dense id, [0, 1, 2, ...] in the order the store
    first meets it: defined, or looked up through {!id} (DESIGN.md §12).
    The lock table, the certifier and the transaction states index by it,
    resolving each lock state's name once at admission. Ids follow first
    definition order, which is name order only when names are defined
    sorted, so nothing observable follows them: every list below is in
    name order. *)

type entity = string
(** Entity names; the paper's a, b, c ... or generated ["e0042"]. *)

(** Explicit comparisons for entity names. Replay-critical modules must
    compare entities through this module rather than the polymorphic
    primitives (static-analysis rule D2). *)
module Entity : sig
  type t = entity

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

type t

val create : unit -> t

val of_list : (entity * Value.t) list -> t

val define : t -> entity -> Value.t -> unit
(** Add (or reset) an entity. Used for schema population, not by
    transactions. *)

val id : t -> entity -> int
(** The name's id, numbering it on first use. A name the store never
    defined gets an id too (a program may name one); {!get_at} and
    {!install_at} raise [Not_found] on it until it is defined. One hash
    lookup: call it once per name, off the per-operation path. *)

val name : t -> int -> entity
(** @raise Invalid_argument on an id {!id} never returned. *)

val mem : t -> entity -> bool

val get : t -> entity -> Value.t
(** Global value of an entity. @raise Not_found on undefined entities. *)

val find_opt : t -> entity -> Value.t option

val install : t -> entity -> Value.t -> unit
(** Commit-time publication of a final local value (the unlock step of the
    paper's model). @raise Not_found on undefined entities, because a
    transaction can only unlock what it locked and it can only have locked
    defined entities. *)

val get_at : t -> int -> Value.t
(** {!get} by id: an array read, no hashing, no allocation.
    @raise Not_found on an undefined entity's id. *)

val install_at : t -> int -> Value.t -> unit
(** {!install} by id. @raise Not_found on an undefined entity's id. *)

val entities : t -> entity list
(** Sorted. *)

val size : t -> int

val snapshot : t -> (entity * Value.t) list
(** Sorted association list of the full state, for tests and consistency
    checks. *)

val equal_state : t -> t -> bool
(** Same entities with equal values, however each store numbers them. *)

val install_count : t -> int
(** Number of [install] calls since creation — the experiment harness uses
    it to verify rollbacks never wrote the store. *)

(** Consistency constraints (Section 2's "set of consistent states"). *)
module Constraint : sig
  type store = t
  type t

  val make : name:string -> (store -> bool) -> t
  val name : t -> string
  val holds : t -> store -> bool

  val sum_preserved : name:string -> entity list -> expected:int -> t
  (** The classic bank-balances invariant: the listed entities' integer
      values sum to [expected]. *)

  val all_hold : t list -> store -> (unit, string list) result
  (** [Error names] lists the violated constraints. *)
end
