(** Minimal boxed binary min-heap: the reference the dense event queue
    ({!Prb_util.Dense.Pqueue}) is checked against.

    Ties are broken by insertion order so event processing is fully
    deterministic — two events scheduled for the same instant fire in the
    order they were scheduled. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> priority:int -> 'a -> unit
(** Insert with an integer priority (simulated time). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-priority element (earliest inserted
    among ties), or [None] when empty. *)

val peek : 'a t -> (int * 'a) option

val clear : 'a t -> unit
