(** Reference implementation of {!Prb_workload.Generator} (names
    formatted per use, per-program hashtables), retained for differential
    testing only.

    Synthetic workload generation.

    The paper's motivation is rising concurrency making deadlocks common;
    its evaluation artefacts are worked examples plus structural claims.
    To quantify those claims we need a workload whose contention knobs we
    control. This generator produces valid two-phase transaction programs
    parameterised by the levers the paper discusses:

    - database size and Zipf skew (contention),
    - transaction length (locks per transaction),
    - shared-lock fraction (Section 3.2's harder optimisation problem),
    - writes per entity and {e write clustering} (Section 5 / Figure 5),
    - three-phase restructuring (Section 5's acquire/update/release).

    Everything is deterministic in the seed. *)

type params = Prb_workload.Generator.params = {
  n_entities : int;  (** database size *)
  min_locks : int;
  max_locks : int;  (** locks per transaction, uniform *)
  read_fraction : float;  (** probability a lock is shared *)
  zipf_theta : float;  (** access skew; 0 = uniform *)
  min_writes : int;
  max_writes : int;  (** writes per exclusively locked entity *)
  clustering : float;
      (** probability that a write lands in its entity's first usable
          segment (right after the lock) rather than a uniformly random
          later segment; 1.0 reproduces Figure 5's clustered structure *)
  compute_ops : int;  (** local assignments per segment (pure work) *)
  three_phase : bool;
      (** place every write after the last lock request
          (acquire/update/release structure, Section 5) *)
  explicit_unlocks : bool;
      (** emit unlock operations (otherwise locks release at commit) *)
}

val default_params : params
(** 64 entities, 3–6 locks, 30% shared, theta 0.6, 1–2 writes, clustering
    0.5, 1 compute op, no restructuring, explicit unlocks. *)

val entity_name : int -> string
(** ["e0042"]-style names used by {!populate} and the generator. *)

val populate : params -> Prb_storage.Store.t
(** A store holding entities [e0000 .. e(n-1)], each initialised to a
    deterministic value. *)

val generate_one :
  ?zipf:Prb_util.Zipf.t -> params -> Prb_util.Rng.t -> name:string ->
  Prb_txn.Program.t
(** One valid program drawn from the distribution. [zipf] supplies a
    pre-built sampler for [n_entities]/[zipf_theta] — the table is
    deterministic in the params, so sharing it across calls changes
    nothing but the allocation bill; omitted, a fresh one is built. *)

val generate : params -> seed:int -> n:int -> Prb_txn.Program.t list
(** [n] programs named ["w0000" ...], deterministic in [seed]. Every
    program passes {!Prb_txn.Program.validate} (asserted). *)
