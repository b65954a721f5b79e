(** Aggregate statistics over a (partial or finished) run, one record for
    both engines (DESIGN.md Section 15). {!Engine.stats} fills every
    counter the engine core keeps and writes 0 for the rest; each
    scheduler then supplies its own: the centralised one [txn_crashes]
    and [watchdog_fires], the distributed one the site, message and
    message-fault counters and the local/global deadlock split. Both set
    [deferred_detection]. {!Scheduler} and [Dist_scheduler] re-export the
    type. *)

type stats = {
  ticks : int;
  commits : int;
  deadlocks : int;  (** resolution rounds (>= 1 cycle each) *)
  cycles_broken : int;
  rollbacks : int;  (** victim rollbacks performed *)
  requeues : int;
      (** fair-queueing victims whose arcs were all queue arcs, broken by
          cancelling the pending request (no progress lost) *)
  ops_lost : int;  (** Σ progress destroyed by rollbacks *)
  overshoot_ops : int;
      (** the part of [ops_lost] beyond the minimal release point — 0
          under [Mcs], the whole prefix under [Total], the cost of
          non-well-defined states under [Sdg] *)
  ops_committed : int;  (** Σ program lengths of committed txns *)
  ops_executed : int;  (** Σ operations executed, re-execution included *)
  blocks : int;  (** lock requests that queued *)
  peak_copies : int;  (** max over transactions of peak local copies *)
  optimal_resolutions : int;  (** decisions from the exact cut solver *)
  timeouts : int;
      (** timeout self-restarts: the central [Timeout_abort] baseline, and
          the distributed engine's degraded-mode aborts while its detector
          is out *)
  preventions : int;
      (** wound-wait wounds in both engines, and the central [Wait_die_c]
          deaths *)
  txn_crashes : int;
      (** fault-plan transaction crashes that hit a victim (central) *)
  detection_passes : int;
      (** scheduled detection passes run: central sweeps (0 under [Eager],
          whose checks count only in [check_calls]) and distributed global
          rounds *)
  watchdog_fires : int;  (** full sweeps forced by the stall watchdog (central) *)
  starvation_fallbacks : int;
      (** resolutions where a cycle offered no non-immune victim and the
          starvation guard was overridden *)
  missed_passes : int;  (** scheduled passes suppressed by detector outages *)
  max_blocked_ticks : int;  (** longest completed blocking episode *)
  total_blocked_ticks : int;  (** Σ durations of completed episodes *)
  max_txn_rollbacks : int;
      (** rollbacks suffered by the worst-hit transaction — bounded by
          [starvation_limit] (plus forced restarts outside victim
          selection) whenever [starvation_fallbacks] is 0 *)
  local_deadlocks : int;  (** resolved instantly by one site (distributed) *)
  global_deadlocks : int;
      (** found only by the periodic global detector (distributed) *)
  messages : int;  (** distributed message count *)
  shipped_copies : int;
      (** version-bookkeeping volume that chased moving transactions —
          zero under [Total] (distributed) *)
  site_crashes : int;
  site_recoveries : int;
  purged_locks : int;  (** stale rows dropped by lock-table rebuilds *)
  msgs_lost : int;
  msgs_duplicated : int;
  retransmissions : int;
  deferred_detection : bool;
      (** the run used a non-[Eager] detection policy *)
  check_seconds : float;
      (** wall time inside the boolean deadlock checks; 0 unless the
          config supplies a clock *)
  check_calls : int;  (** boolean deadlock checks run *)
  enumerate_seconds : float;
      (** wall time enumerating cycles for the resolver; 0 unless the
          config supplies a clock *)
  enumerate_calls : int;  (** cycle enumerations run *)
  flow_decided : int;
      (** resolution rounds max flow decided without enumerating their
          cycles (DESIGN.md Section 16, "The cut by max-flow") *)
  flow_tied : int;
      (** cut-policy rounds it left to enumeration because the minimum
          cut is tied or more than nine members are candidates *)
  flow_incomplete : int;
      (** rounds it looked at whose enumeration a cap would cut short, or
          whose component holds a cycle that avoids the requester *)
}
