module Store = Prb_storage.Store
module Waits_for = Prb_wfg.Waits_for
module Strategy = Prb_rollback.Strategy
module Txn_state = Prb_rollback.Txn_state
module History = Prb_history.History
module Pqueue = Prb_util.Dense.Pqueue
module Fault = Prb_fault.Fault

type intervention =
  | Detect
  | Timeout_abort of int
  | Wound_wait_c
  | Wait_die_c

type config = {
  strategy : Strategy.t;
  policy : Policy.t;
  intervention : intervention;
  detection : Detection_policy.t;
  starvation_limit : int option;
  seed : int;
  max_ticks : int;
  cycle_limit : int;
  fair_locking : bool;
  faults : Fault.plan option;
  clock : (unit -> float) option;
}

let default_config =
  {
    strategy = Strategy.Sdg;
    policy = Policy.Ordered_min_cost;
    intervention = Detect;
    detection = Detection_policy.Eager;
    starvation_limit = None;
    seed = 1;
    max_ticks = 1_000_000;
    cycle_limit = Engine.default_cycle_limit;
    fair_locking = true;
    faults = None;
    clock = None;
  }

exception Stuck = Engine.Stuck

(* Debug tracing: enable with Logs.Src.set_level (e.g. via the CLI's
   --verbose) to watch grants, blocks, deadlocks and rollbacks. *)
module Log = (val Logs.src_log Engine.log_src : Logs.LOG)

(* Events live in the engine's dense int-payload queue: each entry is a
   (tag, a, b) triple, so the steady-state tick loop pushes and pops
   without allocating. The tags ([Engine.ev_exec], [a] = transaction id,
   is shared with the engine core): *)

let ev_exec = Engine.ev_exec
let ev_timer = 1 (* a [Timeout_abort] timer; [a] = transaction id *)

let ev_crash_txn = 2
(* a scheduled transaction crash; [a] is the plan's victim selector
   (possibly negative), resolved against the live growing transactions
   when the crash fires *)

let ev_detect_tick = 3
(* a scheduled detection pass ([Periodic]/[Adaptive]); fires a full
   sweep and reschedules itself, so the queue never drains while
   transactions are deadlocked *)

let ev_watchdog = 4
(* the stall watchdog: periodically checks for a transaction blocked
   past the policy's stall bound with no detection pass since it
   blocked, and forces a full sweep if one exists *)

type t = {
  cfg : config;
  eng : Engine.t;
      (** per-transaction state, lock table, waits-for graph, history,
          event queue and the stats record *)
  mutable crash_counts : int array;
      (** crashes suffered per transaction, driving re-admission backoff *)
  mutable last_detect_tick : int;  (** tick of the last detection sweep *)
  mutable submit_ticks : int array;  (** [-1] when never submitted *)
  mutable commit_ticks : int array;  (** [-1] when uncommitted *)
}

let create ?(config = default_config) store =
  let eng =
    Engine.create ~strategy:config.strategy ~policy:config.policy
      ~detection:config.detection ~starvation_limit:config.starvation_limit
      ~cycle_limit:config.cycle_limit ~clock:config.clock ~seed:config.seed
      ~fair:config.fair_locking store
  in
  let cap = Array.length eng.txns in
  let t =
    {
      cfg = config;
      eng;
      crash_counts = Array.make cap 0;
      last_detect_tick = 0;
      submit_ticks = Array.make cap (-1);
      commit_ticks = Array.make cap (-1);
    }
  in
  (match config.faults with
  | Some p when not (Fault.is_none p) ->
      List.iter
        (fun (c : Fault.txn_crash) ->
          Pqueue.push eng.events ~priority:(max 1 c.Fault.crash_at)
            ~tag:ev_crash_txn ~a:c.Fault.victim ~b:0)
        p.Fault.txn_crashes
  | Some _ | None -> ());
  (* A deferred detection policy supplies its own wake sources up front:
     the sweep tick chain and the watchdog chain are both
     self-perpetuating, so the event queue cannot drain while
     deadlocked transactions sit with no [Exec] events of their own. *)
  (match config.intervention with
  | Detect when not (Detection_policy.is_eager config.detection) ->
      Pqueue.push eng.events
        ~priority:(Detection_policy.initial_interval config.detection)
        ~tag:ev_detect_tick ~a:0 ~b:0;
      Pqueue.push eng.events
        ~priority:(Detection_policy.stall_bound config.detection)
        ~tag:ev_watchdog ~a:0 ~b:0
  | Detect | Timeout_abort _ | Wound_wait_c | Wait_die_c -> ());
  t

let config t = t.cfg
let store t = t.eng.store

let submit_at ?copy_allocation t ~at program =
  let e = t.eng in
  let at = max at e.tick in
  let id = Engine.admit ?copy_allocation e program in
  (* the engine grew its arrays; this engine's own follow in lockstep *)
  let cap = Array.length e.txns in
  if cap > Array.length t.crash_counts then begin
    t.crash_counts <- Engine.grown t.crash_counts cap 0;
    t.submit_ticks <- Engine.grown t.submit_ticks cap (-1);
    t.commit_ticks <- Engine.grown t.commit_ticks cap (-1)
  end;
  t.submit_ticks.(id) <- at;
  Engine.schedule_at e id ~at:(max (e.tick + 1) at);
  id

let submit ?copy_allocation t program =
  submit_at ?copy_allocation t ~at:t.eng.tick program

let txn_state t id = Engine.txn_state t.eng id
let all_txns t = List.init t.eng.next_id Fun.id
let now t = t.eng.tick
let n_committed t = t.eng.st.commits
let all_committed t = t.eng.st.commits = t.eng.next_id
let waits_for t = t.eng.wfg
let lock_table t = t.eng.locks
let history t = t.eng.hist
let check_seconds t = t.eng.st.check_seconds
let check_calls t = t.eng.st.check_calls
let enumerate_seconds t = t.eng.st.enumerate_seconds
let enumerate_calls t = t.eng.st.enumerate_calls
let n_blocked_tracked t = t.eng.n_blocked

let schedule t id =
  Pqueue.push t.eng.events ~priority:(t.eng.tick + 1) ~tag:ev_exec ~a:id ~b:0

(* How a grant reaches its waiter: at once. A1 follows calls, not the
   functions handed to the engine, so this and [blocked] are hot roots of
   their own. *)
let[@hot] granted t w _ =
  Txn_state.lock_granted (Engine.live_state t.eng w);
  schedule t w

let release_lock t id e = Engine.release t.eng t ~granted id e

(* --- Rollback: this engine's steps for the shared core ------------- *)

let drop_wait t v = Engine.withdraw t.eng t ~granted v

let release_rolled_back t v released =
  List.iter
    (fun e ->
      History.discard t.eng.hist v e;
      release_lock t v e)
    released

let[@lint.allow
     "A1: a restart abandons the pending request and rolls the victim \
      back to state 0 — restart machinery allocates by design, off the \
      grant fast path"] restart t v ~resume_at =
  Engine.restart t.eng t ~drop_wait ~release:release_rolled_back ~resume_at v

(* The prevention/timeout baselines restart a transaction directly. *)
let self_restart t id = restart t id ~resume_at:(t.eng.tick + 1)

let roll_back_victim t ~deferred ~stagger v entities =
  Engine.apply_rollback t.eng t ~drop_wait ~release:release_rolled_back
    ~restart ~deferred ~stagger v entities

(* --- Deadlock resolution ------------------------------------------- *)

(* A full detection sweep (periodic/adaptive tick or watchdog): one run
   of the engine's fixpoint with no preferred requester. *)
let[@lint.allow
     "A1: a full detection sweep is scheduled work off the request \
      path"] run_sweep t =
  t.eng.st.detection_passes <- t.eng.st.detection_passes + 1;
  Engine.resolve t.eng t ~deferred:true ~apply:roll_back_victim None;
  t.last_detect_tick <- t.eng.tick

(* Detector outages model the asynchronous detector service being down:
   scheduled passes are suppressed (counted as missed) while the current
   tick lies inside an outage window. Eager detection is not a service —
   it is inline in the lock-request path (the paper's scheme has no
   separate detector process) — so it is unaffected. *)
let in_detector_outage t =
  match t.cfg.faults with
  | Some p -> Fault.in_outage p t.eng.tick
  | None -> false

(* First tick at or after now that lies outside every outage window. *)
let[@lint.allow
     "A1: consulted only while the detector sits inside an injected \
      outage window — fault-plan bookkeeping, not steady-state \
      work"] outage_end t =
  let now = t.eng.tick in
  match t.cfg.faults with
  | None -> now
  | Some p ->
      List.fold_left
        (fun acc (o : Fault.outage) ->
          if o.Fault.out_from <= acc && acc < o.Fault.out_until then
            o.Fault.out_until
          else acc)
        now
        (List.sort
           (fun (a : Fault.outage) b ->
             Int.compare a.Fault.out_from b.Fault.out_from)
           p.Fault.detector_outages)

(* Wound-wait (centralised): each wounded blocker partially rolls back
   just far enough to release the entity (or requeues, if it was merely
   queued ahead). *)
let wound t requester x b =
  let e = Store.name t.eng.store x in
  Log.info (fun m -> m "[%d] T%d wounds T%d over %s" t.eng.tick requester b e);
  roll_back_victim t ~deferred:false ~stagger:0 b [ e ]

(* A transaction crash (fault plan): the victim loses its volatile state —
   rollback to state 0, releasing everything — and is re-admitted after a
   delay that doubles with repeated crashes of the same transaction.
   Shrinking transactions are past their commit point and immune, so the
   plan's victim selector resolves against live growing transactions
   only (modulo their count, keeping plans replayable on any workload). *)
let[@lint.allow
     "A1: fault-injection path — a crash rolls the victim back to state \
      0 and re-admits it after a backoff; crash machinery allocates by \
      design"] crash_transaction t selector =
  let live =
    List.filter
      (fun id ->
        Txn_state.phase (Engine.live_state t.eng id) = Txn_state.Growing)
      (Engine.live_ids t.eng)
  in
  match live with
  | [] -> ()
  | _ :: _ ->
      let id = List.nth live (abs selector mod List.length live) in
      let n = 1 + t.crash_counts.(id) in
      t.crash_counts.(id) <- n;
      t.eng.st.txn_crashes <- t.eng.st.txn_crashes + 1;
      Log.info (fun m ->
          m "[%d] T%d crashed (crash #%d)" t.eng.tick id n);
      let delay =
        Fault.readmit_delay * (1 lsl min (n - 1) Fault.backoff_cap)
      in
      restart t id ~resume_at:(t.eng.tick + 1 + delay)

(* --- Executing one transaction step -------------------------------- *)

(* Wait-die: is some blocker older (smaller id = earlier timestamp) than
   the requester? Top-level and int-annotated for the hot request path. *)
let rec any_blocker_older (id : int) = function
  | [] -> false
  | b :: rest -> b < id || any_blocker_older id rest

(* What a block triggers: the intervention, or an eager check. *)
let[@hot] blocked t id x holders =
  let eng = t.eng in
  match t.cfg.intervention with
  | Detect -> (
      match t.cfg.detection with
      | Detection_policy.Eager ->
          (* Edges installed; a deadlock exists iff some blocker reaches
             the waiter (Section 3.1's descendant check). Only the boolean
             probe itself is a "check" — resolution bills its enumeration
             to the enumerate counters and its rollback work to nobody. *)
          if Engine.would_deadlock eng ~waiter:id ~holders then
            (Engine.resolve eng t ~deferred:false ~apply:roll_back_victim
               (Some id)
             [@lint.allow
               "A1: a detected deadlock hands the requester to resolution, \
                which allocates by design"])
      | Detection_policy.Periodic _ | Detection_policy.Adaptive ->
          (* the request path pays nothing; the sweep chain detects *)
          ())
  | Timeout_abort n ->
      Pqueue.push eng.events ~priority:(eng.tick + n) ~tag:ev_timer ~a:id ~b:0
  | Wound_wait_c ->
      (Engine.wound_younger eng t ~wound id x holders
       [@lint.allow
         "A1: a wound rolls the younger blocker back far enough to release \
          the entity — the prevention baseline's rollback path allocates \
          its restart machinery by design"])
  | Wait_die_c ->
      if any_blocker_older id holders then begin
        (* younger than a blocker: die, keeping the timestamp *)
        eng.st.preventions <- eng.st.preventions + 1;
        (Log.info (fun m ->
             m "[%d] T%d dies over %s" eng.tick id (Store.name eng.store x))
         [@lint.allow
           "A1: log msgf closure renders only when a reporter is armed"]);
        self_restart t id
      end

let handle_unlock t id =
  release_lock t id (Engine.unlock t.eng id);
  schedule t id

let[@lint.allow
     "A1: commit retires the transaction — final installs, release-all \
      regrants, history certification and pool returns run once per \
      transaction, off the per-operation path"] handle_commit t id =
  let eng = t.eng in
  Engine.commit eng t ~release:release_lock id;
  (match Logs.Src.level Engine.log_src with
  | Some Logs.Debug -> Log.debug (fun m -> m "[%d] T%d committed" eng.tick id)
  | Some (Logs.App | Logs.Error | Logs.Warning | Logs.Info) | None -> ());
  t.commit_ticks.(id) <- eng.tick

(* A committed transaction is retired: its slot reads [None]. *)
let exec_one t id =
  match t.eng.txns.(id) with
  | None -> ()
  | Some ts -> (
      if Waits_for.is_blocked t.eng.wfg id then
        (* Stale wakeup for a transaction that re-blocked; it will be
           rescheduled on grant. *)
        ()
      else
        match Txn_state.next_action ts with
        | Txn_state.Need_lock mode ->
            Engine.request t.eng t ~granted ~blocked id mode
              (Txn_state.next_lock_id ts)
        | Txn_state.Need_unlock -> handle_unlock t id
        | Txn_state.Data_step ->
            Txn_state.exec_data_op ts;
            schedule t id
        | Txn_state.At_end -> handle_commit t id)

let handle_timer t id =
  (* a Timeout_abort timer: restart the waiter if it is still stuck on
     the same wait *)
  let eng = t.eng in
  let n =
    match t.cfg.intervention with
    | Timeout_abort n -> n
    | Detect | Wound_wait_c | Wait_die_c -> max_int
  in
  let since = eng.blocked_since.(id) in
  if since >= 0 && Waits_for.is_blocked eng.wfg id then
    if since + n <= eng.tick then begin
      eng.st.timeouts <- eng.st.timeouts + 1;
      (Log.info (fun m ->
           m "[%d] T%d timed out; restarting" eng.tick id)
       [@lint.allow
         "A1: log msgf closure renders only when a reporter is armed"]);
      self_restart t id
    end
    else
      Pqueue.push eng.events ~priority:(since + n) ~tag:ev_timer ~a:id
        ~b:0

let[@lint.allow
     "A1: the sweep chain runs once per detection tick, not per \
      operation; sweep dispatch, outage checks and cadence adaptation \
      are off the request path"] handle_detect_tick t =
  (* the sweep chain: run (or miss, during an outage) a full pass and
     reschedule — self-perpetuating so deadlocked configurations always
     have a pending wake source. Only a deferred policy arms it, so the
     [Eager] period is never read. *)
  let eng = t.eng in
  let delay =
    Engine.scheduled_pass eng ~outage:(in_detector_outage t) ~period:0
      (fun () -> run_sweep t)
  in
  Pqueue.push eng.events ~priority:(eng.tick + delay) ~tag:ev_detect_tick ~a:0
    ~b:0

(* Ascending-id scan over tracked blocks, stopping at the first stalled
   transaction — the short-circuit the sorted fold had. Top-level and
   int-annotated so the per-arm watchdog check allocates nothing. *)
let rec watchdog_scan t bound (id : int) =
  let eng = t.eng in
  id < eng.next_id
  && ((let since = eng.blocked_since.(id) in
       since >= 0
       && eng.tick - since >= bound
       && t.last_detect_tick <= since
       && Waits_for.is_blocked eng.wfg id)
     || watchdog_scan t bound (id + 1))

let handle_watchdog t =
  (* the liveness net: a transaction blocked past the policy's stall
     bound with no sweep since it blocked means passes were lost (an
     outage) — force one. Self-perpetuating at half
     the bound, so a stall is caught within 1.5x the bound of arising. *)
  let eng = t.eng in
  let bound = Detection_policy.stall_bound t.cfg.detection in
  if in_detector_outage t then
    (* suppressed like any detection while the detector is down; re-armed
       for the first healthy tick so recovery sweeps promptly *)
    Pqueue.push eng.events ~priority:(outage_end t) ~tag:ev_watchdog
      ~a:0 ~b:0
  else begin
    if watchdog_scan t bound 0 then begin
      eng.st.watchdog_fires <- eng.st.watchdog_fires + 1;
      (Log.info (fun m ->
           m "[%d] stall watchdog: forcing a full sweep" eng.tick)
       [@lint.allow
         "A1: log msgf closure renders only when a reporter is armed"]);
      run_sweep t
    end;
    Pqueue.push eng.events
      ~priority:(eng.tick + max (bound / 2) 1)
      ~tag:ev_watchdog ~a:0 ~b:0
  end

let[@hot] step t =
  let eng = t.eng in
  let events = eng.events in
  if all_committed t then false
  else if not (Pqueue.pop events) then
    (* Live transactions with an empty event queue means a wakeup was
       lost — always a bug, never a valid quiescent state (an acyclic
       waits-for graph has a runnable transaction, and runnable
       transactions hold events). *)
    raise (Stuck "event queue drained with live transactions")
  else begin
    let tick = Pqueue.cur_prio events in
    if tick > t.cfg.max_ticks then false
    else begin
      eng.tick <- max eng.tick tick;
      let tag = Pqueue.cur_tag events in
      let a = Pqueue.cur_a events in
      if tag = ev_exec then exec_one t a
      else if tag = ev_crash_txn then crash_transaction t a
      else if tag = ev_timer then handle_timer t a
      else if tag = ev_detect_tick then handle_detect_tick t
      else handle_watchdog t;
      true
    end
  end

let run t =
  while step t do
    ()
  done

include Run_stats

let set_deadlock_hook t hook = t.eng.hook <- Some hook

let submit_tick t id =
  if id >= 0 && id < t.eng.next_id && t.submit_ticks.(id) >= 0 then
    Some t.submit_ticks.(id)
  else None

let commit_tick t id =
  if id >= 0 && id < t.eng.next_id && t.commit_ticks.(id) >= 0 then
    Some t.commit_ticks.(id)
  else None

let latency t id =
  match (submit_tick t id, commit_tick t id) with
  | Some s, Some c -> Some (c - s)
  | _ -> None

let stats t = Engine.stats t.eng

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>ticks: %d@,commits: %d@,deadlocks: %d (cycles broken: %d)@,\
     rollbacks: %d (+%d requeues)@,ops lost: %d (overshoot %d)@,\
     ops committed: %d@,ops executed: %d@,blocks: %d@,peak copies: %d@,\
     optimal resolutions: %d@,timeouts: %d, preventions: %d@,\
     txn crashes: %d"
    s.ticks s.commits s.deadlocks s.cycles_broken s.rollbacks s.requeues
    s.ops_lost s.overshoot_ops s.ops_committed s.ops_executed s.blocks
    s.peak_copies s.optimal_resolutions s.timeouts s.preventions
    s.txn_crashes;
  (* The deferred-detection and blocked-duration lines appear only when a
     scheduled detector or timeout ran, keeping eager fixed-seed output
     byte-identical to the pre-policy engine. *)
  if
    s.detection_passes > 0 || s.watchdog_fires > 0 || s.missed_passes > 0
    || s.starvation_fallbacks > 0 || s.timeouts > 0
  then
    Fmt.pf ppf
      "@,detection passes: %d (missed: %d)@,\
       watchdog fires: %d, starvation fallbacks: %d@,\
       max blocked: %d ticks (total %d), max txn rollbacks: %d"
      s.detection_passes s.missed_passes s.watchdog_fires
      s.starvation_fallbacks s.max_blocked_ticks s.total_blocked_ticks
      s.max_txn_rollbacks;
  Fmt.pf ppf "@]"
