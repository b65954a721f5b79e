(** Streaming and batch statistics for experiment metrics. *)

type t
(** A mutable accumulator over float observations (Welford's algorithm, so
    mean and variance are numerically stable over long runs). *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val add_int : t -> int -> unit

val count : t -> int
val total : t -> float

val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val min_value : t -> float
(** Smallest observation; [nan] when empty. *)

val max_value : t -> float
(** Largest observation; [nan] when empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having seen both
    streams (parallel variance combination). *)

val percentile : float array -> float -> float
(** [percentile data p] for [p] in [\[0,100\]] with linear interpolation;
    sorts a copy. @raise Invalid_argument on empty data or p outside
    range. *)

val median : float array -> float

val mean_of : float list -> float
(** Batch mean; [nan] on empty list. *)
