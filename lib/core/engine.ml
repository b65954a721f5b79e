module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Lock_mode = Prb_txn.Lock_mode
module Lock_table = Prb_lock.Lock_table
module Waits_for = Prb_wfg.Waits_for
module Strategy = Prb_rollback.Strategy
module Txn_state = Prb_rollback.Txn_state
module History = Prb_history.History
module History_stack = Prb_rollback.History_stack
module Pqueue = Prb_util.Dense.Pqueue
module Rng = Prb_util.Rng

exception Stuck of string

let log_src = Logs.Src.create "prb.scheduler" ~doc:"partial-rollback scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  strategy : Strategy.t;
  policy : Policy.t;
  detection : Detection_policy.t;
  cadence : Detection_policy.cadence;
  starvation_limit : int option;
  cycle_limit : int;
  clock : (unit -> float) option;
  store : Store.t;
  locks : Lock_table.t;
  wfg : Waits_for.t;
  hist : History.t;
  rng : Rng.t;
  events : Pqueue.t;
  pool : History_stack.Pool.t;
  mutable txns : Txn_state.t option array;
  mutable programs : Program.t array;
  mutable rollback_counts : int array;
  mutable executed : int array;
  mutable peak_copies : int array;
  mutable monitored_writes : int array;
  mutable blocked_since : int array;
  mutable n_blocked : int;
  mutable oldest_live : int;
  mutable hook :
    (requester:int ->
    cycles:Resolver.cycle list ->
    decision:Resolver.decision ->
    unit)
    option;
  mutable next_id : int;
  mutable tick : int;
  mutable commits : int;
  mutable deadlocks : int;
  mutable cycles_broken : int;
  mutable rollback_events : int;
  mutable requeue_events : int;
  mutable overshoot_ops : int;
  mutable optimal_resolutions : int;
  mutable ops_committed : int;
  mutable committed_executed : int;
  mutable committed_peak_copies : int;
  mutable timeouts : int;
  mutable preventions : int;
  mutable detection_passes : int;
  mutable missed_passes : int;
  mutable starvation_fallbacks : int;
  mutable max_blocked_ticks : int;
  mutable total_blocked_ticks : int;
  mutable check_seconds : float;
  mutable check_calls : int;
  mutable enumerate_seconds : float;
  mutable enumerate_calls : int;
  flow : Prb_graph.Flow_cut.t;
  mutable flow_incomplete : int;
  mutable flow_tied : int;
  mutable flow_decided : int;
}

let initial_txn_cap = 64
let default_cycle_limit = 256

(* Fills [programs] past the admitted ids. *)
let no_program = Program.make ~name:"" ~locals:[] []

let create ~strategy ~policy ~detection ~starvation_limit ~cycle_limit ~clock
    ~seed ~fair store =
  Detection_policy.check detection;
  {
    strategy;
    policy;
    detection;
    cadence =
      Detection_policy.cadence (Detection_policy.initial_interval detection);
    starvation_limit;
    cycle_limit;
    clock;
    store;
    locks = Lock_table.create ~fair store;
    wfg = Waits_for.create ();
    hist = History.create store;
    rng = Rng.make seed;
    events = Pqueue.create ();
    pool = History_stack.Pool.create ();
    txns = Array.make initial_txn_cap None;
    programs = Array.make initial_txn_cap no_program;
    rollback_counts = Array.make initial_txn_cap 0;
    executed = Array.make initial_txn_cap 0;
    peak_copies = Array.make initial_txn_cap 0;
    monitored_writes = Array.make initial_txn_cap 0;
    blocked_since = Array.make initial_txn_cap (-1);
    n_blocked = 0;
    oldest_live = 0;
    hook = None;
    next_id = 0;
    tick = 0;
    commits = 0;
    deadlocks = 0;
    cycles_broken = 0;
    rollback_events = 0;
    requeue_events = 0;
    overshoot_ops = 0;
    optimal_resolutions = 0;
    ops_committed = 0;
    committed_executed = 0;
    committed_peak_copies = 0;
    timeouts = 0;
    preventions = 0;
    detection_passes = 0;
    missed_passes = 0;
    starvation_fallbacks = 0;
    max_blocked_ticks = 0;
    total_blocked_ticks = 0;
    check_seconds = 0.0;
    check_calls = 0;
    enumerate_seconds = 0.0;
    enumerate_calls = 0;
    flow = Prb_graph.Flow_cut.create ();
    flow_incomplete = 0;
    flow_tied = 0;
    flow_decided = 0;
  }

(* --- Transactions -------------------------------------------------- *)

let ev_exec = 0

let schedule_at e id ~at =
  Pqueue.push e.events ~priority:at ~tag:ev_exec ~a:id ~b:0

let grown a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Ids are allocated densely, so every per-transaction array grows in
   lockstep the moment a new id would fall off the end. *)
let admit ?copy_allocation e program =
  let id = e.next_id in
  e.next_id <- id + 1;
  let old = Array.length e.txns in
  if id >= old then begin
    let cap = max (id + 1) (2 * old) in
    e.txns <- grown e.txns cap None;
    e.programs <- grown e.programs cap no_program;
    e.rollback_counts <- grown e.rollback_counts cap 0;
    e.executed <- grown e.executed cap 0;
    e.peak_copies <- grown e.peak_copies cap 0;
    e.monitored_writes <- grown e.monitored_writes cap 0;
    e.blocked_since <- grown e.blocked_since cap (-1)
  end;
  e.txns.(id) <-
    Some
      (Txn_state.create ?copy_allocation ~pool:e.pool ~strategy:e.strategy ~id
         ~store:e.store program);
  e.programs.(id) <- program;
  Waits_for.add_txn e.wfg id;
  id

let live_state e id =
  if id < 0 || id >= e.next_id then raise Not_found
  else match e.txns.(id) with Some ts -> ts | None -> raise Not_found

(* A committed id answers with its disposed state, rebuilt. *)
let txn_state e id =
  if id < 0 || id >= e.next_id then raise Not_found
  else
    match e.txns.(id) with
    | Some ts -> ts
    | None ->
        Txn_state.committed ~strategy:e.strategy ~id ~store:e.store
          ~total_executed:e.executed.(id)
          ~n_rollbacks:e.rollback_counts.(id)
          ~peak_copies:e.peak_copies.(id)
          ~monitored_writes:e.monitored_writes.(id) e.programs.(id)

let live_ids e =
  let rec down id acc =
    if id < e.oldest_live then acc
    else
      down (id - 1) (match e.txns.(id) with Some _ -> id :: acc | None -> acc)
  in
  down (e.next_id - 1) []

let max_txn_rollbacks e =
  let m = ref 0 in
  for id = 0 to e.next_id - 1 do
    if e.rollback_counts.(id) > !m then m := e.rollback_counts.(id)
  done;
  !m

let note_blocked e id =
  if e.blocked_since.(id) < 0 then e.n_blocked <- e.n_blocked + 1;
  e.blocked_since.(id) <- e.tick

(* Every path that unblocks a transaction funnels through here,
   rollback victims included. *)
let note_unblocked e id =
  let since = e.blocked_since.(id) in
  if since >= 0 then begin
    let d = e.tick - since in
    if d > e.max_blocked_ticks then e.max_blocked_ticks <- d;
    e.total_blocked_ticks <- e.total_blocked_ticks + d;
    e.blocked_since.(id) <- -1;
    e.n_blocked <- e.n_blocked - 1
  end

let note_rollback e v = e.rollback_counts.(v) <- e.rollback_counts.(v) + 1

(* The starvation guard: a transaction rolled back at least
   [starvation_limit] times is shielded from victim selection (the
   resolver falls back to it only when a cycle offers nobody else). *)
let immune e v =
  match e.starvation_limit with
  | Some k -> e.rollback_counts.(v) >= k
  | None -> false

(* An unlock step: install the entity's final value and close its history
   interval; the caller releases the lock. Entities travel as the store
   ids their lock states resolved at admission (DESIGN.md §12). *)
let unlock e id =
  let x, final = Txn_state.perform_unlock (live_state e id) in
  (match final with Some v -> Store.install_at e.store x v | None -> ());
  History.note_release e.hist ~tick:e.tick id x;
  x

let rec advance_oldest_live e =
  let id = e.oldest_live in
  if id < e.next_id then
    match e.txns.(id) with
    | Some _ -> ()
    | None ->
        e.oldest_live <- id + 1;
        advance_oldest_live e

(* Retirement: the committed transaction's accounting moves into the
   counters [stats] sums and the id-indexed arrays [txn_state] rebuilds
   it from, and its state is dropped, so no per-transaction block
   survives the commit (DESIGN.md §12). *)
let retire e id ts =
  let executed = Txn_state.total_executed ts
  and peak = Txn_state.peak_copies ts in
  e.committed_executed <- e.committed_executed + executed;
  if peak > e.committed_peak_copies then e.committed_peak_copies <- peak;
  e.executed.(id) <- executed;
  e.peak_copies.(id) <- peak;
  e.monitored_writes.(id) <- Txn_state.monitored_writes ts;
  e.txns.(id) <- None;
  advance_oldest_live e

(* Commit: install the final values, close the intervals of the locks
   still held and hand each to the embedder's [release], then retire the
   transaction. A committer was never blocked at this point, but a stale
   [blocked_since] entry may still linger (set on a block, cleared on
   grant paths only) — drop it without folding it into the duration stats
   (the wait it describes ended long ago). The transaction's history
   buffers go back to the pool for the next admission. *)
let commit e s ~release id =
  let ts = live_state e id in
  List.iter (fun (x, v) -> Store.install_at e.store x v) (Txn_state.commit ts);
  let held = Lock_table.held_by e.locks id in
  List.iter (fun (x, _) -> History.note_release e.hist ~tick:e.tick id x) held;
  List.iter (fun (x, _) -> release s id x) held;
  Waits_for.remove_txn e.wfg id;
  History.commit_txn e.hist id;
  if e.blocked_since.(id) >= 0 then begin
    e.blocked_since.(id) <- -1;
    e.n_blocked <- e.n_blocked - 1
  end;
  e.commits <- e.commits + 1;
  e.ops_committed <- e.ops_committed + Program.length (Txn_state.program ts);
  Txn_state.dispose ts;
  retire e id ts

(* --- Detection ----------------------------------------------------- *)

(* Detection accounting splits the boolean "is anyone deadlocked?" checks
   from the cycle enumeration the resolver consumes. Every detection call
   goes through [clocked], which counts it and, only when the config
   supplies a clock, times it; the wrapped calls are top-level functions
   over the waits-for graph and three arguments (unit where unused), so
   the unclocked path builds no closure. *)
type meter = Check | Enumerate

let[@lint.allow
     "A1: detection wall-clock accounting boxes floats only when a clock \
      is configured"] clocked e meter f x y z =
  (match meter with
  | Check -> e.check_calls <- e.check_calls + 1
  | Enumerate -> e.enumerate_calls <- e.enumerate_calls + 1);
  match e.clock with
  | None -> f e.wfg x y z
  | Some clk -> (
      let t0 = clk () in
      let r = f e.wfg x y z in
      match meter with
      | Check ->
          e.check_seconds <- e.check_seconds +. (clk () -. t0);
          r
      | Enumerate ->
          e.enumerate_seconds <- e.enumerate_seconds +. (clk () -. t0);
          r)

let deadlock_probe wfg label_ok waiter holders =
  Waits_for.would_deadlock ?label_ok wfg ~waiter ~holders

let would_deadlock ?label_ok e ~waiter ~holders =
  clocked e Check deadlock_probe label_ok waiter holders

let census wfg seeds () () = Waits_for.on_cycle_from wfg seeds

let enumerate wfg limit requester () =
  Waits_for.enumerate ~limit wfg requester

(* A deferred round's cycle-enumeration budget. An eager round enumerates
   up to [cycle_limit] cycles through the requester because its victim
   choices are part of the replayable contract. A deferred round
   re-examines the graph after every cut, so it can feed the Section 3.2
   cut solver a small sample per round and let iteration make up the
   difference. On the dense graphs deferral accretes, DFS cycle
   enumeration is the dominant detection cost, and this budget is where
   the deferred policies' wall-clock win over eager detection comes from.
   (Sampling is only safe together with {!deferred_escalation}: small cuts
   roll back fewer victims per round, and without escalation the
   survivors re-collide indefinitely.) *)
let deferred_cycle_budget = 8

let cycle_budget e ~deferred =
  if deferred then min deferred_cycle_budget e.cycle_limit else e.cycle_limit

(* The enumeration already records each cycle in the resolver's form —
   member and entity to release per arc — so this is the whole step. *)
let resolver_cycles e ~deferred requester =
  clocked e Enumerate enumerate (cycle_budget e ~deferred) requester ()

(* --- Rollback ------------------------------------------------------ *)

(* An arc into a cycle member is labelled with the entity whose
   availability the predecessor awaits. The member breaks the arc either
   by rolling back far enough to release the entity (it holds it), or —
   under fair queueing, where waits-for edges also point at conflicting
   requests queued ahead — by cancelling its own pending request for that
   entity and requeueing at the tail.

   Releasing a set of held entities costs what releasing its lowest lock
   state costs: targets never decrease as the lock state grows, and a
   later target loses less. So one pass keeps the costliest single
   release. Requeueing loses no progress but is not free: charge one op
   so the optimiser does not see it as a universally-winning move. *)
let rec arcs_cost ts cost queued = function
  | [] -> if queued then cost + 1 else cost
  | x :: rest -> (
      match Txn_state.holds ts x with
      | None -> arcs_cost ts cost true rest
      | Some _ ->
          let c = Txn_state.cost_to_release ts x in
          arcs_cost ts (if c > cost then c else cost) queued rest)

let[@hot] release_cost e v entities =
  arcs_cost (live_state e v) 0 false entities

(* --- The request path ------------------------------------------------ *)

(* Every lock-table transition happens here, once for both engines. The
   central engine delivers a grant at once; the distributed one at once,
   by a reply message, or not at all from a down site. *)

(* The request path's two debug lines, a grant from the queue and a
   block. Their messages are built only at the debug level, so a run
   without a debug reporter allocates nothing for them. *)
let[@lint.allow
     "A1: the message closures are built only at the debug level"] debug_line
    e ~queued id mode x holders =
  match Logs.Src.level log_src with
  | Some Logs.Debug ->
      if queued then
        Log.debug (fun m ->
            m "[%d] grant %a(%s) to T%d (from queue)" e.tick Lock_mode.pp mode
              (Store.name e.store x) id)
      else
        Log.debug (fun m ->
            m "[%d] T%d blocked on %a(%s) behind %s" e.tick id Lock_mode.pp
              mode (Store.name e.store x)
              (String.concat "," (List.map (Printf.sprintf "T%d") holders)))
  | Some _ | None -> ()

let end_wait e id =
  Waits_for.clear_wait e.wfg id;
  note_unblocked e id

(* After the holder set of [x] changed without a grant, blocked waiters'
   waits-for edges must track the new holders. O(1) exit when nothing
   queues on [x]. *)
let[@lint.allow
     "A1: runs only when a contended entity's holder set changed; \
      re-pointing consumes the waiter/blocker lists the lock-table API \
      returns, and the uncontended path exits at the has_waiters \
      check"] refresh_waiters e x =
  if Lock_table.has_waiters e.locks x then
    List.iter
      (fun (w, _) ->
        match Lock_table.blockers e.locks w with
        | [] -> () (* about to be granted by the caller's grant pass *)
        | holders ->
            Waits_for.set_wait e.wfg ~waiter:w ~holders (Store.name e.store x))
      (Lock_table.waiters e.locks x)

(* A queued request granted: its wait ends and its interval opens. *)
let grant e s ~granted w mode x =
  debug_line e ~queued:true w mode x [];
  end_wait e w;
  History.note_grant e.hist ~tick:e.tick w x mode;
  granted s w x

let rec grant_all e s ~granted x = function
  | [] -> ()
  | (w, mode) :: rest ->
      grant e s ~granted w mode x;
      grant_all e s ~granted x rest

let request e s ~granted ~blocked id mode x =
  match Lock_table.request e.locks id mode x with
  | Lock_table.Granted ->
      History.note_grant e.hist ~tick:e.tick id x mode;
      (* A direct grant can change the holder set under queued waiters
         (a shared request joining shared holders past a queued exclusive
         one): their waits-for edges must follow, or cycles through the
         new holder are invisible to later deadlock checks. *)
      refresh_waiters e x;
      granted s id x
  | Lock_table.Blocked holders ->
      debug_line e ~queued:false id mode x holders;
      Waits_for.set_wait e.wfg ~waiter:id ~holders (Store.name e.store x);
      (* Every block is tracked, whatever follows it: the duration feeds
         the blocked-time statistics, the stall watchdog and the timeout
         interventions. *)
      note_blocked e id;
      blocked s id x holders

(* Release one lock and propagate: grants wake waiters, survivors
   re-point their edges. *)
let release e s ~granted id x =
  grant_all e s ~granted x (Lock_table.release e.locks id x);
  refresh_waiters e x

(* Withdraw [v]'s queued request, if any, granting the waiters that
   shrinking the queue unblocks, and end its wait. *)
let withdraw e s ~granted v =
  (match Lock_table.cancel_wait e.locks v with
  | Some (x, grants) ->
      grant_all e s ~granted x grants;
      refresh_waiters e x
  | None -> ());
  end_wait e v

(* Roll the transaction back to [target] and hand what it gave up to the
   engine's [release]. *)
let roll_back e s ~release v ts target =
  let released = Txn_state.rollback_to ts target in
  e.rollback_events <- e.rollback_events + 1;
  note_rollback e v;
  release s v released

(* Self-restart: the transaction abandons its pending request, rolls back
   to state 0 releasing everything, and starts over (keeping its id, which
   is its timestamp). Timeouts, prevention, crashes and deferred
   escalation all end here. *)
let restart e s ~drop_wait ~release ~resume_at v =
  let ts = live_state e v in
  drop_wait s v;
  roll_back e s ~release v ts Txn_state.restart_target;
  schedule_at e v ~at:resume_at

(* How many rollbacks a transaction may suffer before a deferred round
   stops rolling it back partially and escalates to a delayed full
   restart. Deferred resolution restarts its victims into the same
   deterministic workload that just deadlocked them; without escalation
   the hot-set regulars re-collide forever (a limit cycle — Figure 2's
   pathology resurrected by batching), and a partial-rollback victim
   cannot simply be parked with a long backoff because it keeps holding
   its remaining locks, turning the backoff into a convoy. The full
   restart releases everything, so the quadratic re-admission delay in
   {!apply_rollback} desynchronises the herd without stalling anyone
   behind it. *)
let deferred_escalation = 4

(* The held entity of an arc list with the lowest lock state, if any:
   rolling back far enough to release it releases every other one. *)
let rec lowest_held ts lowest lowest_k = function
  | [] -> lowest
  | x :: rest -> (
      match Txn_state.lock_state_of ts x with
      | Some k when k < lowest_k -> lowest_held ts (Some x) k rest
      | Some _ | None -> lowest_held ts lowest lowest_k rest)

let apply_partial_rollback e s ~drop_wait ~release ~deferred ~stagger v
    entities =
  let ts = live_state e v in
  (* A blocked victim abandons its pending request; shrinking its queue
     may unblock waiters behind it, and survivors re-point their edges.
     When every arc is a queue arc this cancel-and-retry (the transaction
     re-issues the request and lands at the queue tail) is the whole
     remedy. *)
  drop_wait s v;
  (match lowest_held ts None (Txn_state.lock_index ts) entities with
  | None -> e.requeue_events <- e.requeue_events + 1
  | Some x ->
      let target = Txn_state.rollback_target ts x in
      (* Overshoot: progress destroyed beyond the minimal release point —
         zero under MCS, the whole prefix under Total, the price of
         non-well-defined states under SDG. *)
      let minimal = Option.get (Txn_state.lock_state_of ts x) in
      e.overshoot_ops <-
        e.overshoot_ops
        + Txn_state.cost_of_target ts target
        - Txn_state.cost_of_target ts minimal;
      (match Logs.Src.level log_src with
      | Some (Logs.Info | Logs.Debug) ->
          Log.info (fun m ->
              m "[%d] partial rollback of T%d to %s (releasing %s)" e.tick v
                (if target = Txn_state.restart_target then "restart"
                 else Printf.sprintf "lock state %d" target)
                (String.concat ","
                   (List.filter (fun x -> Txn_state.holds ts x <> None)
                      entities)))
      | Some (Logs.App | Logs.Error | Logs.Warning) | None -> ());
      roll_back e s ~release v ts target);
  (* A deferred pass can roll back many victims in one round; restarted in
     lockstep at [t+1] they re-request the same hot entities in the same
     order and the next pass faces the same cycles. Stagger the herd by
     victim position and back off early repeat victims quadratically —
     deterministic, and zero in eager rounds, whose replay output must
     stay byte-identical. (Victims past [deferred_escalation] never reach
     this push; {!apply_rollback} escalates them to a delayed full
     restart, so the backoff here stays too short to convoy waiters
     behind a still-held lock.) *)
  let backoff =
    if not deferred then 0
    else
      let n = e.rollback_counts.(v) in
      stagger + (n * n)
  in
  schedule_at e v ~at:(e.tick + 1 + backoff)

let apply_rollback e s ~drop_wait ~release ~restart ~deferred ~stagger v
    entities =
  let prior = e.rollback_counts.(v) in
  if deferred && prior >= deferred_escalation then
    restart s v ~resume_at:(e.tick + 1 + stagger + min 4096 (prior * prior))
  else
    apply_partial_rollback e s ~drop_wait ~release ~deferred ~stagger v
      entities

(* Wound-wait: an older requester wounds every younger blocker. Shrinking
   blockers are immune (Section 2's no-rollback-after-unlock rule) and
   exempt: they issue no more lock requests, so they can never sit on a
   cycle, and they will release on their own. Afterwards every wait edge
   points to an older or shrinking transaction, and no cycle can close. *)
let wound_younger e s ~wound requester x blockers =
  List.iter
    (fun b ->
      let growing =
        match e.txns.(b) with
        | Some ts -> Txn_state.phase ts = Txn_state.Growing
        | None -> false (* committed, its release still in flight *)
      in
      if b > requester && growing then begin
        e.preventions <- e.preventions + 1;
        wound s requester x b
      end)
    blockers

(* --- Resolution ---------------------------------------------------- *)

(* Victim policy for one resolution round. An eager round sees only
   cycles a single request just closed, where the configured policy's
   trade-offs were calibrated; a deferred round can face several cycles
   that accreted between passes — exactly the multi-cycle regime Section
   3.2's minimum-cost vertex cut was built for — so the iterative
   single-victim policies are routed through the cut solver
   ([Ordered_min_cost], keeping Theorem 2's preemption order). Policies
   that already are cuts run unchanged. *)
let resolution_policy e ~deferred n_cycles =
  if
    deferred && n_cycles > 1
    &&
    match e.policy with
    | Policy.Min_cost | Policy.Ordered_min_cost -> false
    | Policy.Requester | Policy.Youngest | Policy.Random_victim -> true
  then Policy.Ordered_min_cost
  else e.policy

(* A round's bookkeeping, hook and rollbacks, once its decision is made.
   Only an installed hook pays for the list view, and for a round decided
   without a record it pays for the enumeration too. *)
let finish_round e s ~deferred ~apply requester n decision cycles =
  (match Logs.Src.level log_src with
  | Some (Logs.Info | Logs.Debug) ->
      Log.info (fun m ->
          m "[%d] deadlock: %d cycle(s) through T%d" e.tick n requester)
  | Some (Logs.App | Logs.Error | Logs.Warning) | None -> ());
  e.deadlocks <- e.deadlocks + 1;
  e.cycles_broken <- e.cycles_broken + n;
  if decision.Resolver.optimal then
    e.optimal_resolutions <- e.optimal_resolutions + 1;
  if decision.Resolver.starved_fallback then
    e.starvation_fallbacks <- e.starvation_fallbacks + 1;
  (match e.hook with
  | Some h ->
      let cycles =
        match cycles with
        | Some c -> c
        | None -> resolver_cycles e ~deferred requester
      in
      h ~requester ~cycles:(Waits_for.arcs cycles) ~decision
  | None -> ());
  List.iteri
    (fun i (v, entities) -> apply s ~deferred ~stagger:i v entities)
    decision.Resolver.victims

let resolve_round e s ~deferred ~apply requester (cycles : Waits_for.cycles) =
  if not (Waits_for.intact e.wfg cycles) then
    raise (Stuck "waits-for edge vanished during resolution");
  let n = cycles.Waits_for.n_cycles in
  let decision =
    Resolver.choose_cycles ~immune:(immune e)
      ~policy:(resolution_policy e ~deferred n)
      ~requester
      ~entry_order:(fun v -> Txn_state.entry_order (live_state e v))
      ~release_cost:(release_cost e) ~rng:e.rng cycles
  in
  finish_round e s ~deferred ~apply requester n decision (Some cycles)

(* The cut policies' decision by max flow over the requester's component
   (DESIGN §16, "The cut by max-flow"), when it provably is the one
   enumeration and branch-and-bound would reach: with its cycle count. A
   round whose policy cannot come out a cut policy is not looked at. *)
let flow_decision e ~deferred requester =
  match e.policy with
  | (Policy.Requester | Policy.Youngest | Policy.Random_victim)
    when not deferred ->
      None
  | Policy.Requester | Policy.Youngest | Policy.Random_victim
  | Policy.Min_cost | Policy.Ordered_min_cost -> (
      let c =
        Waits_for.component ~limit:(cycle_budget e ~deferred) e.wfg requester
      in
      let n = c.Waits_for.n_cycles in
      if not c.Waits_for.complete then begin
        e.flow_incomplete <- e.flow_incomplete + 1;
        None
      end
      else
        match resolution_policy e ~deferred n with
        | (Policy.Min_cost | Policy.Ordered_min_cost) as policy when n > 0 -> (
            match
              Resolver.choose_flow ~immune:(immune e) ~policy
                ~entry_order:(fun v -> Txn_state.entry_order (live_state e v))
                ~release_cost:(release_cost e) e.flow c
            with
            | Some decision ->
                e.flow_decided <- e.flow_decided + 1;
                Some (n, decision)
            | None ->
                e.flow_tied <- e.flow_tied + 1;
                None)
        | Policy.Min_cost | Policy.Ordered_min_cost | Policy.Requester
        | Policy.Youngest | Policy.Random_victim ->
            None)

(* The round of the first candidate that still has cycles once [keep]
   has filtered them; with no filter, max flow may decide it before any
   enumeration. Returns whether a round was applied. *)
let rec first_round e s ~deferred ~keep ~apply = function
  | [] ->
      (* enumeration hit its budget everywhere, or [keep] hid every cycle:
         the changed set stays, so the next resolution looks again *)
      false
  | b :: rest -> (
      match
        match keep with None -> flow_decision e ~deferred b | Some _ -> None
      with
      | Some (n, decision) ->
          finish_round e s ~deferred ~apply b n decision None;
          true
      | None -> (
          let cycles = resolver_cycles e ~deferred b in
          (match keep with
          | Some keep -> Waits_for.keep_cycles cycles (keep cycles)
          | None -> ());
          match cycles.Waits_for.n_cycles with
          | 0 -> first_round e s ~deferred ~keep ~apply rest
          | _ ->
              resolve_round e s ~deferred ~apply b cycles;
              true))

(* One round of the fixpoint over the census's cycle members: [primary]
   first when it is one of them, then the rest in id order. *)
let[@lint.allow
     "A1: runs only when the census reported a cycle — cycle enumeration \
      and victim selection allocate their reports by design"] resolve_one e s
    ~deferred ~keep ~apply primary on_cycle =
  let candidates =
    match primary with
    | Some p when List.exists (Int.equal p) on_cycle ->
        p :: List.filter (fun v -> not (Int.equal v p)) on_cycle
    | Some _ | None -> on_cycle
  in
  first_round e s ~deferred ~keep ~apply candidates

(* Every cycle passes through a changed waiter (Waits_for.changed), so a
   census seeded there sees them all, and an empty one proves the graph
   acyclic. A round's requeues, grants and re-pointed edges can leave or
   close cycles away from the requester, hence the fixpoint. *)
let rec fixpoint e s ~deferred ~keep ~apply primary round =
  if round > 1000 then raise (Stuck "deadlock resolution did not converge");
  match Waits_for.changed e.wfg with
  | [] -> Waits_for.settle e.wfg
  | seeds -> (
      match clocked e Check census seeds () () with
      | [] -> Waits_for.settle e.wfg
      | on_cycle ->
          if resolve_one e s ~deferred ~keep ~apply primary on_cycle then
            fixpoint e s ~deferred ~keep ~apply primary (round + 1))

let[@hot] resolve e s ~deferred ?keep ~apply primary =
  fixpoint e s ~deferred ~keep ~apply primary 1

let scheduled_pass e ~outage ~period pass =
  (if outage then e.missed_passes <- e.missed_passes + 1
   else
     let before = e.deadlocks in
     pass ();
     match e.detection with
     | Detection_policy.Adaptive ->
         Detection_policy.adapt e.cadence ~found:(e.deadlocks > before)
     | Detection_policy.Eager | Detection_policy.Periodic _ -> ());
  match e.detection with
  | Detection_policy.Eager -> period
  | Detection_policy.Periodic n -> n
  | Detection_policy.Adaptive -> e.cadence.Detection_policy.interval

(* --- Statistics ---------------------------------------------------- *)

let stats e =
  (* The committed transactions' aggregates are counters; only the live
     ones are read. A committed transaction lost what it executed beyond
     its program's length. *)
  let ops_lost = ref (e.committed_executed - e.ops_committed)
  and ops_executed = ref e.committed_executed
  and peak_copies = ref e.committed_peak_copies in
  List.iter
    (fun id ->
      let ts = live_state e id in
      ops_lost := !ops_lost + Txn_state.ops_lost ts;
      ops_executed := !ops_executed + Txn_state.total_executed ts;
      peak_copies := max !peak_copies (Txn_state.peak_copies ts))
    (live_ids e);
  {
    Run_stats.ticks = e.tick;
    commits = e.commits;
    deadlocks = e.deadlocks;
    cycles_broken = e.cycles_broken;
    rollbacks = e.rollback_events;
    requeues = e.requeue_events;
    ops_lost = !ops_lost;
    overshoot_ops = e.overshoot_ops;
    ops_committed = e.ops_committed;
    ops_executed = !ops_executed;
    blocks = Lock_table.n_blocks e.locks;
    peak_copies = !peak_copies;
    optimal_resolutions = e.optimal_resolutions;
    timeouts = e.timeouts;
    preventions = e.preventions;
    txn_crashes = 0;
    detection_passes = e.detection_passes;
    watchdog_fires = 0;
    starvation_fallbacks = e.starvation_fallbacks;
    missed_passes = e.missed_passes;
    max_blocked_ticks = e.max_blocked_ticks;
    total_blocked_ticks = e.total_blocked_ticks;
    max_txn_rollbacks = max_txn_rollbacks e;
    local_deadlocks = 0;
    global_deadlocks = 0;
    messages = 0;
    shipped_copies = 0;
    site_crashes = 0;
    site_recoveries = 0;
    purged_locks = 0;
    msgs_lost = 0;
    msgs_duplicated = 0;
    retransmissions = 0;
    deferred_detection = not (Detection_policy.is_eager e.detection);
    check_seconds = e.check_seconds;
    check_calls = e.check_calls;
    enumerate_seconds = e.enumerate_seconds;
    enumerate_calls = e.enumerate_calls;
    flow_decided = e.flow_decided;
    flow_tied = e.flow_tied;
    flow_incomplete = e.flow_incomplete;
  }
