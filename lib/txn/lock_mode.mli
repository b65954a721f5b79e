(** Lock modes of the paper's Section 2: shared (read-only) and exclusive
    (read/write). *)

type t = Shared | Exclusive

val equal : t -> t -> bool

val compatible : t -> t -> bool
(** [compatible held requested] — can both be granted simultaneously to
    different transactions? Only [Shared]/[Shared] is. *)

val covers : t -> t -> bool
(** [covers held requested] — does holding [held] already grant what
    [requested] asks? Only [Shared] does not cover [Exclusive]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** ["S"] or ["X"], the conventional abbreviations. *)
