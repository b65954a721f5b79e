(** Dense int-indexed building blocks for the flat, allocation-free hot
    paths (DESIGN.md Section 12).

    Deterministic: behaviour depends only on the call sequence, never on
    hashing, addresses or clocks, so replay discipline is preserved when
    replay-critical modules are rebuilt on top of it. *)

module Pqueue : sig
  (** Int-payload binary min-heap on parallel int arrays. The tie-break
      is (priority, push sequence): equal-priority events fire in the
      order they were scheduled, as in a boxed FIFO-tie heap (the test
      suite keeps one as the reference). Push and pop allocate nothing in
      steady state: {!pop} deposits the popped entry into the [cur_*]
      fields instead of returning an option. *)

  type t

  val create : unit -> t
  val is_empty : t -> bool
  val size : t -> int

  val push : t -> priority:int -> tag:int -> a:int -> b:int -> unit
  (** [tag]/[a]/[b] encode the event payload; [a] and [b] may be any int
      (negative selectors included) — pass 0 when unused. They are
      mandatory so a full application never boxes them in [Some]: push
      sits on the [@hot] (allocation-free) path. *)

  val pop : t -> bool
  (** False on an empty queue; true after depositing the minimum entry
      into the [cur_*] accessors. *)

  val cur_prio : t -> int
  val cur_tag : t -> int
  val cur_a : t -> int
  val cur_b : t -> int

  val clear : t -> unit
end
