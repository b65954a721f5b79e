(** Batch statistics for experiment metrics. *)

val percentile : float array -> float -> float
(** [percentile data p] for [p] in [\[0,100\]] with linear interpolation;
    sorts a copy. @raise Invalid_argument on empty data or p outside
    range. *)

val median : float array -> float
