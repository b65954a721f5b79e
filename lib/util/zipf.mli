(** Zipfian access-skew sampler.

    Database contention experiments need a hot-spot distribution: the
    probability of picking item [i] of [n] is proportional to
    [1 / (i+1)^theta]. [theta = 0] is uniform; higher values concentrate
    accesses on few entities, which drives up lock conflicts and hence
    deadlock rates — the knob the paper's motivation (rising concurrency)
    turns. *)

type t

val make : n:int -> theta:float -> t
(** [make ~n ~theta] prepares a sampler over ranks [0 .. n-1].
    @raise Invalid_argument if [n <= 0], or [theta] is negative or NaN. *)

val n : t -> int
(** Population size. *)

val theta : t -> float
(** Skew parameter. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [\[0, n)], rank 0 being the hottest. Uses inverse-CDF
    binary search over precomputed cumulative weights: O(log n) per draw. *)

val probability : t -> int -> float
(** [probability t i] is the exact probability of rank [i]. *)
