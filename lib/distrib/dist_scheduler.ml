module Store = Prb_storage.Store
module Lock_mode = Prb_txn.Lock_mode
module Lock_table = Prb_lock.Lock_table
module Waits_for = Prb_wfg.Waits_for
module Strategy = Prb_rollback.Strategy
module Txn_state = Prb_rollback.Txn_state
module History = Prb_history.History
module Pqueue = Prb_util.Dense.Pqueue
module Txn_id = Prb_txn.Txn_id
module Policy = Prb_core.Policy
module Engine = Prb_core.Engine
module Run_stats = Prb_core.Run_stats
module Detection_policy = Prb_core.Detection_policy
module Fault = Prb_fault.Fault

type detection = Local_then_global of int | Wound_wait

type config = {
  n_sites : int;
  detection : detection;
  detection_policy : Detection_policy.t;
  starvation_limit : int option;
  strategy : Strategy.t;
  policy : Policy.t;
  seed : int;
  max_ticks : int;
  faults : Fault.plan option;
  clock : (unit -> float) option;
}

(* The default victim policy differs from the centralised engine's:
   under periodic global detection the resolver works from a stale
   snapshot with no meaningful "requester", and cost-optimising policies
   (min-cost, ordered-min-cost) then re-victimise the same cheap
   transaction round after round — the Figure 2 pathology resurrected by
   staleness (measured in experiment E10b). The age-based rule converges,
   which is exactly why the distributed literature the paper cites [1,7,
   10] uses timestamps for victim selection. *)
let default_config =
  {
    n_sites = 4;
    detection = Local_then_global 50;
    detection_policy = Detection_policy.Eager;
    starvation_limit = None;
    strategy = Strategy.Sdg;
    policy = Policy.Youngest;
    seed = 1;
    max_ticks = 1_000_000;
    faults = None;
    clock = None;
  }

exception Stuck = Engine.Stuck

(* Without a fault plan every remote interaction is synchronous (the seed
   model: messages are counted, never materialised). With a plan, remote
   lock requests, grant replies and unlock/commit releases become events
   that can be lost, duplicated or delayed; crashes and recoveries are
   events too. Entities travel as the store's ids (DESIGN.md §12). *)
type event =
  | Exec of int
  | Detector
  | Req_arrive of int * Lock_mode.t * int
      (** a (possibly retransmitted) remote lock request reaches the
          entity's site *)
  | Req_timeout of int * int
      (** requester-side probe: retransmit a lost request, rediscover a
          lost grant *)
  | Grant_arrive of int * int
      (** the site's grant reply reaches the requester *)
  | Release_arrive of int * int
  | Release_retry of int * int * int  (** attempt count *)
  | Crash of int * int  (** site, downtime *)
  | Recover of int

type meta = {
  home : int;
  mutable last_site : int;
  mutable pending : (Lock_mode.t * int) option;
      (** the remote request in flight (or queued remotely); the owner is
          parked until a grant is observed *)
  mutable attempt : int;  (** retransmissions of the pending request *)
}

type t = {
  cfg : config;
  eng : Engine.t;
      (** per-transaction state, lock table, waits-for graph, history,
          event queue and the shared counters *)
  site_fn : Store.entity -> int;
  at_site : (Store.entity -> bool) option array;
      (** per site, the label filter of its block-time probe: the entity
          lives at that site. Built once, so a probe allocates nothing *)
  mutable sites : int array;
      (** by entity id, its site once asked for, else [-1]: [site_fn]
          runs once per entity, not once per message *)
  mutable metas : meta option array;  (** indexed by transaction id *)
  faults : Fault.t option;
  down : bool array;
  up_at : int array;  (** recovery tick of a currently-down site *)
  mutable inflight_releases : int;
      (** release messages not yet delivered; the run is quiescent only
          once they drain, or end-of-run lock-table checks would see
          phantom rows *)
  mutable local_deadlocks : int;
  mutable global_deadlocks : int;
  mutable messages : int;
  mutable shipped_copies : int;
  mutable site_crashes : int;
  mutable site_recoveries : int;
  mutable purged_locks : int;
  mutable msgs_lost : int;
  mutable msgs_duplicated : int;
  mutable retransmissions : int;
}

(* --- Events ---------------------------------------------------------- *)

(* Events travel through the engine's dense (tag, a, b) queue and are
   decoded back into [event] for dispatch. [a] is the transaction (or
   site); an entity travels as its id in the low 32 bits of [b], with a
   mode bit or attempt count above it. *)
let ev_exec = Engine.ev_exec
let ev_detector = 1
let ev_req_arrive = 2
let ev_req_timeout = 3
let ev_grant_arrive = 4
let ev_release_arrive = 5
let ev_release_retry = 6
let ev_crash = 7
let ev_recover = 8

let pack slot k = (k lsl 32) lor slot
let slot_of b = b land 0xffff_ffff
let count_of b = b lsr 32

let encode = function
  | Exec id -> (ev_exec, id, 0)
  | Detector -> (ev_detector, 0, 0)
  | Req_arrive (id, mode, x) ->
      let bit =
        match mode with Lock_mode.Shared -> 0 | Lock_mode.Exclusive -> 1
      in
      (ev_req_arrive, id, pack x bit)
  | Req_timeout (id, x) -> (ev_req_timeout, id, x)
  | Grant_arrive (id, x) -> (ev_grant_arrive, id, x)
  | Release_arrive (id, x) -> (ev_release_arrive, id, x)
  | Release_retry (id, x, attempt) -> (ev_release_retry, id, pack x attempt)
  | Crash (s, downtime) -> (ev_crash, s, downtime)
  | Recover s -> (ev_recover, s, 0)

let decode tag a b =
  let x = slot_of b in
  if tag = ev_exec then Exec a
  else if tag = ev_detector then Detector
  else if tag = ev_req_arrive then
    let mode =
      if count_of b = 1 then Lock_mode.Exclusive else Lock_mode.Shared
    in
    Req_arrive (a, mode, x)
  else if tag = ev_req_timeout then Req_timeout (a, x)
  else if tag = ev_grant_arrive then Grant_arrive (a, x)
  else if tag = ev_release_arrive then Release_arrive (a, x)
  else if tag = ev_release_retry then Release_retry (a, x, count_of b)
  else if tag = ev_crash then Crash (a, b)
  else if tag = ev_recover then Recover a
  else invalid_arg "Dist_scheduler: unknown event tag"

let push t ~at ev =
  let tag, a, b = encode ev in
  Pqueue.push t.eng.events ~priority:at ~tag ~a ~b

let default_site_of n_sites e = Prb_storage.Value.string_hash e mod n_sites

(* A caller's map may name a site that does not exist; every site-indexed
   array read goes through here, so it fails here, naming the entity. *)
let checked_site f n_sites e =
  let s = f e in
  if s < 0 || s >= n_sites then
    invalid_arg
      (Printf.sprintf
         "Dist_scheduler.site_of: entity %S maps to site %d (n_sites = %d)" e
         s n_sites);
  s

let create ?site_of config store =
  if config.n_sites < 1 then invalid_arg "Dist_scheduler: n_sites < 1";
  let n_sites = config.n_sites in
  let site_fn =
    match site_of with Some f -> f | None -> default_site_of n_sites
  in
  let faults =
    match config.faults with
    | Some p when not (Fault.is_none p) -> Some (Fault.make p)
    | Some _ | None -> None
  in
  let eng =
    Engine.create ~strategy:config.strategy ~policy:config.policy
      ~detection:config.detection_policy
      ~starvation_limit:config.starvation_limit
      ~cycle_limit:Engine.default_cycle_limit ~clock:config.clock
      ~seed:config.seed ~fair:true store
  in
  let t =
    {
      cfg = config;
      eng;
      site_fn;
      at_site =
        Array.init n_sites (fun s ->
            Some (fun e -> Site_id.equal (checked_site site_fn n_sites e) s));
      sites = [||];
      metas = Array.make (Array.length eng.txns) None;
      faults;
      down = Array.make config.n_sites false;
      up_at = Array.make config.n_sites 0;
      inflight_releases = 0;
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
    }
  in
  (match config.detection with
  | Local_then_global period ->
      if period < 1 then invalid_arg "Dist_scheduler: period < 1";
      push t ~at:period Detector
  | Wound_wait -> ());
  (match faults with
  | Some f ->
      List.iter
        (fun (c : Fault.site_crash) ->
          if c.Fault.site >= 0 && c.Fault.site < config.n_sites then
            push t ~at:(max 1 c.Fault.at)
              (Crash (c.Fault.site, max 1 c.Fault.downtime)))
        (Fault.plan f).Fault.site_crashes
  | None -> ());
  t

let config t = t.cfg
let site_of t e = checked_site t.site_fn t.cfg.n_sites e

(* The site of entity id [x], mapped once. *)
let site_at t x =
  let n = Array.length t.sites in
  if x >= n then t.sites <- Engine.grown t.sites (max (x + 1) (2 * n)) (-1);
  let s = t.sites.(x) in
  if s >= 0 then s
  else begin
    let s = site_of t (Store.name t.eng.store x) in
    t.sites.(x) <- s;
    s
  end

let waits_for t = t.eng.wfg
let lock_table t = t.eng.locks
let now t = t.eng.tick
let n_committed t = t.eng.commits
let all_committed t = t.eng.commits = t.eng.next_id

(* The run ends once every transaction committed, no release is in flight
   and no site is down: a release swallowed by a down site leaves its row
   behind until the site's recovery rebuild purges it. *)
let quiescent t =
  all_committed t
  && t.inflight_releases = 0
  && not (Array.exists Fun.id t.down)

let history t = t.eng.hist
let txn_state t id = Engine.txn_state t.eng id

let meta t id =
  match t.metas.(id) with Some m -> m | None -> raise Not_found

let push_release t ~at ev =
  t.inflight_releases <- t.inflight_releases + 1;
  push t ~at ev

let submit t ~home program =
  if home < 0 || home >= t.cfg.n_sites then
    invalid_arg "Dist_scheduler.submit: bad home site";
  let id = Engine.admit t.eng program in
  let cap = Array.length t.eng.txns in
  if cap > Array.length t.metas then t.metas <- Engine.grown t.metas cap None;
  t.metas.(id) <- Some { home; last_site = home; pending = None; attempt = 0 };
  Engine.schedule_at t.eng id ~at:(t.eng.tick + 1);
  id

let schedule t id = Engine.schedule_at t.eng id ~at:(t.eng.tick + 1)

(* --- Messaging ------------------------------------------------------- *)

(* The requester learns its lock was granted (synchronously, via a grant
   reply, or via a probe that rediscovers a grant whose reply was lost). *)
let notify_grant t w x =
  let ts = Engine.live_state t.eng w in
  let m = meta t w in
  m.pending <- None;
  m.attempt <- 0;
  Txn_state.lock_granted ts;
  (* The lock stream of [w] has now touched [e]'s site: partial
     strategies ship their bookkeeping along (Section 3.3). *)
  let s = site_at t x in
  if s <> m.last_site then begin
    if not (Strategy.equal t.cfg.strategy Strategy.Total) then begin
      t.messages <- t.messages + 1;
      t.shipped_copies <- t.shipped_copies + Txn_state.current_copies ts
    end;
    m.last_site <- s
  end;
  schedule t w

(* One message through the fault model: delivered after its delay,
   duplicated, or lost (returns [false]). Release messages are tracked
   in flight. *)
let deliver t f ~release ev =
  let now = t.eng.tick in
  let push = if release then push_release t else push t in
  match Fault.roll f ~tick:now with
  | Fault.Deliver d ->
      push ~at:(now + 1 + d) ev;
      true
  | Fault.Duplicate (d1, d2) ->
      t.msgs_duplicated <- t.msgs_duplicated + 1;
      push ~at:(now + 1 + d1) ev;
      push ~at:(now + 1 + d2) ev;
      true
  | Fault.Lose ->
      t.msgs_lost <- t.msgs_lost + 1;
      false

(* A lost grant reply needs no retry: the waiter's probe keeps running
   while its request is pending and rediscovers the grant in the lock
   table. *)
let send_grant t f w x =
  t.messages <- t.messages + 1;
  ignore (deliver t f ~release:false (Grant_arrive (w, x)))

(* How a grant reaches its waiter: at once, by a reply message from a
   remote site, or not at all from a down one. *)
let granted t w x =
  match t.faults with
  | Some _ when t.down.(site_at t x) ->
      (* decided in memory that died with the site; the rebuild will
         purge the row and the waiter's probe re-requests *)
      t.msgs_lost <- t.msgs_lost + 1
  | Some f when site_at t x <> (meta t w).home -> send_grant t f w x
  | _ -> notify_grant t w x

(* The requester accepts a grant its site already made, whose reply was
   lost or is still in flight. *)
let accept_grant t id x =
  Engine.end_wait t.eng id;
  notify_grant t id x

let release_lock t id x =
  if site_at t x <> (meta t id).home then t.messages <- t.messages + 1;
  Engine.release t.eng t ~granted id x

let transmit_release t f id x ~attempt =
  t.messages <- t.messages + 1;
  if t.down.(site_at t x) then
    (* swallowed by the dead site; the row dies in the rebuild *)
    t.msgs_lost <- t.msgs_lost + 1
  else if not (deliver t f ~release:true (Release_arrive (id, x))) then
    push_release t
      ~at:(t.eng.tick + Fault.request_timeout + Fault.backoff ~attempt)
      (Release_retry (id, x, attempt + 1))

(* Unlock/commit releases travel as (retried, idempotent) messages under
   a fault plan. Rollback releases never do: a transaction that rolled
   back re-executes and may re-request the same entity, and an in-flight
   release racing that re-request could destroy the fresh lock — so
   rollback is modelled as a reliable coordination round (which is what
   the per-site message accounting below already charges for). *)
let async_release t id x =
  match t.faults with
  | Some f when site_at t x <> (meta t id).home ->
      transmit_release t f id x ~attempt:0
  | _ -> release_lock t id x

let transmit_request t f id mode x =
  t.messages <- t.messages + 1;
  if t.down.(site_at t x) then t.msgs_lost <- t.msgs_lost + 1
  else ignore (deliver t f ~release:false (Req_arrive (id, mode, x)))

let send_request t f id mode x =
  let m = meta t id in
  m.pending <- Some (mode, x);
  m.attempt <- 0;
  transmit_request t f id mode x;
  push t
    ~at:(t.eng.tick + Fault.request_timeout)
    (Req_timeout (id, x))

(* --- Rollback: this engine's steps for the shared core --------------- *)

(* Rollback releases skip a down site: its table fragment is gone, and
   recovery purges the row. *)
let release_rolled_back t v released =
  List.iter
    (fun x ->
      History.discard t.eng.hist v x;
      if not t.down.(site_at t x) then release_lock t v x)
    released

(* The wait ends before a lock granted table-side is handed back: a
   granted request has no wait left to end. *)
let forget_wait t v =
  Engine.withdraw t.eng t ~granted v;
  let m = meta t v in
  (match m.pending with
  | Some (_, x)
    when Lock_table.holds t.eng.locks v x <> None
         && Txn_state.holds (txn_state t v) (Store.name t.eng.store x) = None
    ->
      (* Granted table-side but the reply never reached us (lost or still
         in flight) and now we are rolling back: the lock would leak —
         hand it straight back. *)
      release_rolled_back t v [ x ]
  | Some _ | None -> ());
  m.pending <- None;
  m.attempt <- 0

(* A victim's rollback is a coordination round: one message per remote
   site whose entities it released. *)
let release_victim t v released =
  let home = (meta t v).home in
  let sites =
    List.sort_uniq Site_id.compare (List.map (site_at t) released)
    |> List.filter (fun s -> not (Site_id.equal s home))
  in
  t.messages <- t.messages + List.length sites;
  release_rolled_back t v released

(* Full restart: site-crash of the home site, a degraded-mode timeout
   abort while the global detector is out, or a deferred round's
   escalation. The transaction's lock stream starts over at home. *)
let restart t id ~resume_at =
  Engine.restart t.eng t ~drop_wait:forget_wait ~release:release_rolled_back
    ~resume_at id;
  let m = meta t id in
  m.last_site <- m.home

let roll_back_victim t ~deferred ~stagger v entities =
  Engine.apply_rollback t.eng t ~drop_wait:forget_wait ~release:release_victim
    ~restart ~deferred ~stagger v entities

(* --- Cycle detection ------------------------------------------------- *)

(* Whether the site of every entity on cycle [k]'s arcs satisfies [ok]. *)
let all_sites t (c : Waits_for.cycles) k ok =
  let rec go p =
    p >= c.first.(k + 1) || (ok (site_of t c.release.(p)) && go (p + 1))
  in
  go c.first.(k)

(* Under a deferred detection policy every resolution round is a deferred
   one, the site-local block-time rounds included. A local round's victims
   then get the same stagger, backoff and escalation as a global round's;
   without them, a local round re-picks the same victim indefinitely
   (DESIGN.md Section 11). *)
let deferred t = not (Detection_policy.is_eager t.cfg.detection_policy)

(* Local detection at block time: site [s], where the requester waits,
   resolves instantly any cycle through the requester whose contested
   entities all live on it; cycles elsewhere wait for the global round. *)
let rec resolve_local t requester s round =
  if round > 1000 then raise (Stuck "local resolution did not converge");
  if Waits_for.is_blocked t.eng.wfg requester then begin
    let cycles =
      Engine.resolver_cycles t.eng ~deferred:(deferred t) requester
    in
    let at_s = Site_id.equal s in
    Waits_for.keep_cycles cycles (fun k -> all_sites t cycles k at_s);
    if cycles.n_cycles > 0 then begin
      t.local_deadlocks <- t.local_deadlocks + 1;
      Engine.resolve_round t.eng t ~deferred:(deferred t)
        ~apply:roll_back_victim requester cycles;
      resolve_local t requester s (round + 1)
    end
  end

(* The block-time check, counted as one: would the requester close a
   cycle whose arcs all wait on entities at site [s]? The probe searches
   only through waiters whose label lives there, so a cross-site cycle
   costs no enumeration here; the global round finds it. *)
let[@hot] local_probe t id s ~holders =
  Engine.would_deadlock t.eng ?label_ok:t.at_site.(s) ~waiter:id ~holders

(* The filtered probe says yes exactly when some cycle through the
   requester lies on its site, so it skips only the enumerations whose
   site filter would keep nothing — with or without the cycle limit
   binding — and every decision is the unfiltered probe's. *)
let local_check t id x ~holders =
  let s = site_at t x in
  if local_probe t id s ~holders then resolve_local t id s 0

let blocked_txns t =
  let wfg = t.eng.wfg in
  List.filter (fun id -> Waits_for.is_blocked wfg id) (Waits_for.txns wfg)

(* Global detector: every site ships its waits-for edges to a coordinator
   which resolves everything it sees, local or not, through the engine's
   fixpoint. Under a fault plan a site's shipment can be lost (and down
   sites ship nothing), so the coordinator only acts on cycles all of
   whose arcs it can see; missed cycles survive to the next round. Each
   resolution round counts one deadlock, so the global ones are the
   difference. *)
let run_global_detection t =
  t.eng.detection_passes <- t.eng.detection_passes + 1;
  let keep =
    match t.faults with
    | None ->
        t.messages <- t.messages + t.cfg.n_sites;
        None
    | Some f ->
        let visible =
          Array.init t.cfg.n_sites (fun s ->
              if t.down.(s) then false
              else begin
                t.messages <- t.messages + 1;
                Fault.shipment_arrives f ~tick:t.eng.tick
              end)
        in
        Some (fun cycles k -> all_sites t cycles k (Array.get visible))
  in
  let before = t.eng.deadlocks in
  Engine.resolve t.eng t ~deferred:(deferred t) ?keep ~apply:roll_back_victim
    None;
  t.global_deadlocks <- t.global_deadlocks + t.eng.deadlocks - before

(* Detector outage: no global rounds run; long-blocked transactions are
   timeout-aborted instead (graceful degradation — cross-site cycles
   cannot be seen, so break them blindly but fairly). *)
let degrade t =
  List.iter
    (fun b ->
      let now = t.eng.tick in
      let since = t.eng.blocked_since.(b) in
      if since >= 0 && now - since >= Fault.degraded_timeout then begin
        t.eng.timeouts <- t.eng.timeouts + 1;
        restart t b ~resume_at:(now + 1)
      end)
    (List.sort Txn_id.compare (blocked_txns t))

(* One firing of the global-detector service: run a round — or, while
   the detector is out, degrade gracefully (timeout-abort long-blocked
   transactions) and keep the cadence — and return the delay until the
   next firing. The firing chain itself is policy-independent and
   self-perpetuating, so deferral can never leave deadlocked
   configurations without a pending wake source. *)
let detector_round t ~period =
  let outage =
    match t.faults with
    | Some f -> Fault.in_outage (Fault.plan f) t.eng.tick
    | None -> false
  in
  if outage then degrade t;
  Engine.scheduled_pass t.eng ~outage ~period (fun () ->
      run_global_detection t)

(* Wound-wait: a wounded holder rolls back to release the entity, a
   wounded queued request requeues behind; a wound to a remote holder
   costs a message. *)
let wound t _requester x b =
  if site_at t x <> (meta t b).home then t.messages <- t.messages + 1;
  roll_back_victim t ~deferred:false ~stagger:0 b [ Store.name t.eng.store x ]

(* --- Site crash and recovery ----------------------------------------- *)

(* A remote transaction loses whatever it holds at a crashed site: a
   partial rollback (per strategy) to its last state not touching it. *)
let partial_crash_rollback t id ~site =
  let on_site =
    List.filter_map
      (fun (e, _, _) -> if site_of t e = site then Some e else None)
      (Txn_state.locks_held (txn_state t id))
  in
  if on_site <> [] then
    Engine.apply_partial_rollback t.eng t ~drop_wait:forget_wait
      ~release:release_rolled_back ~deferred:false ~stagger:0 id on_site

let crash_site t s downtime =
  if not t.down.(s) then begin
    let now = t.eng.tick in
    t.site_crashes <- t.site_crashes + 1;
    t.down.(s) <- true;
    t.up_at.(s) <- now + downtime;
    push t ~at:(now + downtime) (Recover s);
    let ids = Engine.live_ids t.eng in
    (* Coordinators at the site die with it: every growing transaction
       homed there restarts from scratch once the site is back. Shrinking
       transactions are past their commit point and immune — their state
       survives in the recovery log. *)
    List.iter
      (fun id ->
        let ts = txn_state t id in
        if Txn_state.phase ts = Txn_state.Growing && (meta t id).home = s then
          restart t id ~resume_at:(t.up_at.(s) + 1))
      ids;
    List.iter
      (fun id ->
        let ts = txn_state t id in
        if Txn_state.phase ts = Txn_state.Growing && (meta t id).home <> s then
          partial_crash_rollback t id ~site:s)
      ids
  end

(* Recovery rebuilds the site's lock-table fragment from surviving
   transaction state: queued requests died with the site (their owners
   retransmit on probe timeout), and holder rows not backed by a live
   transaction that still holds the entity are purged. Skipping this —
   plan.rebuild_locks = false — leaves phantom holders that block every
   later requester forever; the chaos harness exists to catch exactly
   that kind of recovery bug. Entities are visited in name order, each
   resolved through the store's numbering. *)
let rebuild_site_locks t s =
  let locks = t.eng.locks in
  List.iter
    (fun e ->
      let x = Store.id t.eng.store e in
      if site_at t x = s then begin
        (* tail-first, so removing one waiter never grants another *)
        List.iter
          (fun (w, _) -> Engine.withdraw t.eng t ~granted w)
          (List.rev (Lock_table.waiters locks x));
        List.iter
          (fun (h, _) ->
            let stale =
              match txn_state t h with
              | ts ->
                  Txn_state.phase ts = Txn_state.Committed
                  || Txn_state.holds ts e = None
              | exception Not_found -> true
            in
            if stale then begin
              t.purged_locks <- t.purged_locks + 1;
              History.discard t.eng.hist h x;
              Engine.release t.eng t ~granted h x
            end)
          (Lock_table.holders locks x)
      end)
    (Store.entities t.eng.store)

let recover_site t s =
  t.down.(s) <- false;
  t.site_recoveries <- t.site_recoveries + 1;
  match t.faults with
  | Some f when not (Fault.plan f).Fault.rebuild_locks -> ()
  | _ -> rebuild_site_locks t s

(* --- Message handlers ------------------------------------------------- *)

(* What a block triggers: a wound, or the site-local check. *)
let blocked t id x holders =
  match t.cfg.detection with
  | Wound_wait -> Engine.wound_younger t.eng t ~wound id x holders
  | Local_then_global _ -> local_check t id x ~holders

let req_arrive t id mode x =
  if t.down.(site_at t x) then ()
  else
    let m = meta t id in
    let locks = t.eng.locks in
    match m.pending with
    | Some (mode', x') when Int.equal x' x && Lock_mode.equal mode' mode -> (
        match Lock_table.holds locks id x with
        | Some held when Lock_mode.covers held mode ->
            (* a retransmission of a request already granted: the grant
               reply was lost — resend it (idempotent on arrival) *)
            granted t id x
        | _ ->
            if Lock_table.waiting_for locks id <> None then
              () (* already queued: duplicate arrival *)
            else Engine.request t.eng t ~granted ~blocked id mode x)
    | Some _ | None -> () (* the transaction moved on; stale request *)

let req_timeout t id x =
  match t.faults with
  | None -> ()
  | Some f -> (
      let m = meta t id in
      let now = t.eng.tick in
      let locks = t.eng.locks in
      match m.pending with
      | Some (mode, x') when Int.equal x' x ->
          if t.down.(site_at t x) then
            (* the site cannot answer a probe; any table row we might see
               is dead memory — stay parked until after its rebuild *)
            push t ~at:(now + Fault.request_timeout) (Req_timeout (id, x))
          else
          let satisfied =
            match Lock_table.holds locks id x with
            | Some held -> Lock_mode.covers held mode
            | None -> false
          in
          if satisfied then
            (* grant reply lost: the probe rediscovers the lock *)
            accept_grant t id x
          else if Lock_table.waiting_for locks id <> None then
            (* queued at the site: stay parked, keep probing *)
            push t ~at:(now + Fault.request_timeout) (Req_timeout (id, x))
          else begin
            (* the request (or our queue entry, if the site crashed)
               vanished: retransmit with bounded exponential backoff *)
            m.attempt <- m.attempt + 1;
            t.retransmissions <- t.retransmissions + 1;
            transmit_request t f id mode x;
            push t
              ~at:
                (now + Fault.request_timeout + Fault.backoff ~attempt:m.attempt)
              (Req_timeout (id, x))
          end
      | Some _ | None -> () (* stale probe *))

let grant_arrive t id x =
  match Lock_table.holds t.eng.locks id x with
  | None -> () (* released or purged before the reply landed *)
  | Some held -> (
      let m = meta t id in
      let ts = txn_state t id in
      match m.pending with
      | Some (mode, x') when Int.equal x' x ->
          if Lock_mode.covers held mode then accept_grant t id x
      | Some _ | None ->
          if Txn_state.holds ts (Store.name t.eng.store x) <> None then
            () (* duplicate of an accepted grant *)
          else begin
            (* granted to a transaction that rolled back meanwhile: hand
               the lock straight back so it cannot leak *)
            History.discard t.eng.hist id x;
            release_lock t id x
          end)

let release_arrive t id x =
  if t.down.(site_at t x) then ()
    (* the site died again before the release landed; rebuild reconciles *)
  else
    match Lock_table.holds t.eng.locks id x with
    | None -> () (* duplicate delivery, or the row was purged *)
    | Some _ -> Engine.release t.eng t ~granted id x

let release_retry t id x attempt =
  match t.faults with
  | None -> ()
  | Some f ->
      if Lock_table.holds t.eng.locks id x = None then ()
      else begin
        t.retransmissions <- t.retransmissions + 1;
        transmit_release t f id x ~attempt
      end

(* --- Transaction stepping -------------------------------------------- *)

let handle_lock_request t id mode x =
  let home = (meta t id).home in
  match t.faults with
  | Some f when site_at t x <> home -> send_request t f id mode x
  | _ ->
      if site_at t x <> home then t.messages <- t.messages + 2;
      Engine.request t.eng t ~granted ~blocked id mode x

let handle_unlock t id =
  async_release t id (Engine.unlock t.eng id);
  schedule t id

let handle_commit t id = Engine.commit t.eng t ~release:async_release id

(* A committed transaction is retired: its slot reads [None]. *)
let exec_one t id =
  match t.eng.txns.(id) with
  | None -> ()
  | Some ts -> (
      let m = meta t id in
      if Waits_for.is_blocked t.eng.wfg id then ()
      else if m.pending <> None then () (* awaiting a remote reply *)
      else if t.down.(m.home) then
        (* our own site is down: nothing runs until it recovers *)
        Engine.schedule_at t.eng id ~at:(t.up_at.(m.home) + 1)
      else
        match Txn_state.next_action ts with
        | Txn_state.Need_lock mode ->
            handle_lock_request t id mode (Txn_state.next_lock_id ts)
        | Txn_state.Need_unlock -> handle_unlock t id
        | Txn_state.Data_step ->
            Txn_state.exec_data_op ts;
            schedule t id
        | Txn_state.At_end -> handle_commit t id)

let step t =
  let q = t.eng.events in
  if quiescent t then false
  else if not (Pqueue.pop q) then
    raise (Stuck "event queue drained with live transactions")
  else
    let tick = Pqueue.cur_prio q in
    if tick > t.cfg.max_ticks then false
    else begin
      t.eng.tick <- max t.eng.tick tick;
      (match decode (Pqueue.cur_tag q) (Pqueue.cur_a q) (Pqueue.cur_b q) with
      | Exec id -> exec_one t id
      | Detector -> (
          match t.cfg.detection with
          | Local_then_global period ->
              let delay = detector_round t ~period in
              push t ~at:(t.eng.tick + delay) Detector
          | Wound_wait -> ())
      | Req_arrive (id, mode, e) -> req_arrive t id mode e
      | Req_timeout (id, e) -> req_timeout t id e
      | Grant_arrive (id, e) -> grant_arrive t id e
      | Release_arrive (id, e) ->
          t.inflight_releases <- t.inflight_releases - 1;
          release_arrive t id e
      | Release_retry (id, e, attempt) ->
          t.inflight_releases <- t.inflight_releases - 1;
          release_retry t id e attempt
      | Crash (s, downtime) -> crash_site t s downtime
      | Recover s -> recover_site t s);
      true
    end

let run t =
  while step t do
    ()
  done

include Run_stats

let stats t =
  {
    (Engine.stats t.eng) with
    local_deadlocks = t.local_deadlocks;
    global_deadlocks = t.global_deadlocks;
    messages = t.messages;
    shipped_copies = t.shipped_copies;
    site_crashes = t.site_crashes;
    site_recoveries = t.site_recoveries;
    purged_locks = t.purged_locks;
    msgs_lost = t.msgs_lost;
    msgs_duplicated = t.msgs_duplicated;
    retransmissions = t.retransmissions;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>ticks: %d@,commits: %d@,deadlocks: %d (local %d, global %d)@,\
     wounds: %d@,rollbacks: %d@,ops lost: %d@,messages: %d@,\
     shipped copies: %d@,detection rounds: %d@,\
     crashes: %d (recovered %d, purged locks %d)@,\
     msgs lost: %d, duplicated: %d, retransmissions: %d@,\
     timeout aborts: %d, missed detector rounds: %d"
    s.ticks s.commits s.deadlocks s.local_deadlocks s.global_deadlocks
    s.preventions s.rollbacks s.ops_lost s.messages s.shipped_copies
    s.detection_passes s.site_crashes s.site_recoveries s.purged_locks
    s.msgs_lost s.msgs_duplicated s.retransmissions s.timeouts
    s.missed_passes;
  if s.deferred_detection then
    Fmt.pf ppf
      "@,starvation fallbacks: %d@,\
       max blocked: %d ticks (total %d), max txn rollbacks: %d"
      s.starvation_fallbacks s.max_blocked_ticks s.total_blocked_ticks
      s.max_txn_rollbacks;
  Fmt.pf ppf "@]"
