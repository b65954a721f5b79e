(** Aggregate statistics over a (partial or finished) run, one record for
    both engines (DESIGN.md Section 15). The engine core holds one such
    record, [Engine.t.st], zeroed by [Engine.create], and the core and
    both schedulers count into it in place. Six fields are not counted
    but derived, so they are not mutable: [ticks], [ops_lost],
    [ops_executed], [blocks], [peak_copies] and [deferred_detection];
    [Engine.stats] fills them in the copy it hands out. {!Scheduler} and
    [Dist_scheduler] re-export the type. *)

type stats = {
  ticks : int;
  mutable commits : int;
  mutable deadlocks : int;  (** resolution rounds (>= 1 cycle each) *)
  mutable cycles_broken : int;
  mutable rollbacks : int;  (** victim rollbacks performed *)
  mutable requeues : int;
      (** fair-queueing victims whose arcs were all queue arcs, broken by
          cancelling the pending request (no progress lost) *)
  ops_lost : int;  (** Σ progress destroyed by rollbacks *)
  mutable overshoot_ops : int;
      (** the part of [ops_lost] beyond the minimal release point — 0
          under [Mcs], the whole prefix under [Total], the cost of
          non-well-defined states under [Sdg] *)
  mutable ops_committed : int;  (** Σ program lengths of committed txns *)
  ops_executed : int;  (** Σ operations executed, re-execution included *)
  blocks : int;  (** lock requests that queued *)
  peak_copies : int;  (** max over transactions of peak local copies *)
  mutable optimal_resolutions : int;
      (** decisions from the exact cut solver *)
  mutable timeouts : int;
      (** timeout self-restarts: the central [Timeout_abort] baseline, and
          the distributed engine's degraded-mode aborts while its detector
          is out *)
  mutable preventions : int;
      (** wound-wait wounds in both engines, and the central [Wait_die_c]
          deaths *)
  mutable txn_crashes : int;
      (** fault-plan transaction crashes that hit a victim (central) *)
  mutable detection_passes : int;
      (** scheduled detection passes run: central sweeps (0 under [Eager],
          whose checks count only in [check_calls]) and distributed global
          rounds *)
  mutable watchdog_fires : int;
      (** full sweeps forced by the stall watchdog (central) *)
  mutable starvation_fallbacks : int;
      (** resolutions where a cycle offered no non-immune victim and the
          starvation guard was overridden *)
  mutable missed_passes : int;
      (** scheduled passes suppressed by detector outages *)
  mutable max_blocked_ticks : int;  (** longest completed blocking episode *)
  mutable total_blocked_ticks : int;  (** Σ durations of completed episodes *)
  mutable max_txn_rollbacks : int;
      (** rollbacks suffered by the worst-hit transaction — bounded by
          [starvation_limit] (plus forced restarts outside victim
          selection) whenever [starvation_fallbacks] is 0 *)
  mutable local_deadlocks : int;
      (** resolved instantly by one site (distributed) *)
  mutable global_deadlocks : int;
      (** found only by the periodic global detector (distributed) *)
  mutable messages : int;  (** distributed message count *)
  mutable shipped_copies : int;
      (** version-bookkeeping volume that chased moving transactions —
          zero under [Total] (distributed) *)
  mutable site_crashes : int;
  mutable site_recoveries : int;
  mutable purged_locks : int;  (** stale rows dropped by lock-table rebuilds *)
  mutable msgs_lost : int;
  mutable msgs_duplicated : int;
  mutable retransmissions : int;
  deferred_detection : bool;
      (** the run used a non-[Eager] detection policy *)
  mutable check_seconds : float;
      (** wall time inside the boolean deadlock checks; 0 unless the
          config supplies a clock *)
  mutable check_calls : int;  (** boolean deadlock checks run *)
  mutable enumerate_seconds : float;
      (** wall time enumerating cycles for the resolver; 0 unless the
          config supplies a clock *)
  mutable enumerate_calls : int;  (** cycle enumerations run *)
  mutable flow_decided : int;
      (** resolution rounds max flow decided without enumerating their
          cycles (DESIGN.md Section 16, "The cut by max-flow") *)
  mutable flow_tied : int;
      (** cut-policy rounds it left to enumeration because the minimum
          cut is tied or more than nine members are candidates *)
  mutable flow_incomplete : int;
      (** rounds it looked at whose enumeration a cap would cut short, or
          whose component holds a cycle that avoids the requester *)
}
