module Rng = Prb_util.Rng

type site_crash = { site : int; at : int; downtime : int }
type outage = { out_from : int; out_until : int }
type txn_crash = { crash_at : int; victim : int }

type msg_faults = {
  loss : float;
  dup : float;
  delay : float;
  max_delay : int;
}

type plan = {
  fault_seed : int;
  horizon : int;
  msg : msg_faults;
  site_crashes : site_crash list;
  detector_outages : outage list;
  txn_crashes : txn_crash list;
  rebuild_locks : bool;
}

let request_timeout = 40
let backoff_base = 10
let backoff_cap = 5
let degraded_timeout = 120
let readmit_delay = 20

let no_msg_faults = { loss = 0.0; dup = 0.0; delay = 0.0; max_delay = 0 }

let none =
  {
    fault_seed = 0;
    horizon = 0;
    msg = no_msg_faults;
    site_crashes = [];
    detector_outages = [];
    txn_crashes = [];
    rebuild_locks = true;
  }

let is_none p =
  p.site_crashes = [] && p.detector_outages = [] && p.txn_crashes = []
  && p.msg.loss = 0.0 && p.msg.dup = 0.0 && p.msg.delay = 0.0

let random ?(n_sites = 0) ~seed ~horizon () =
  let rng = Rng.make (0x6661756c74 lxor seed) in
  let msg =
    {
      loss = Rng.float rng 0.2;
      dup = Rng.float rng 0.2;
      delay = Rng.float rng 0.3;
      max_delay = 1 + Rng.int rng 6;
    }
  in
  let site_crashes =
    if n_sites <= 0 then []
    else
      List.init (Rng.int rng 3) (fun _ ->
          {
            site = Rng.int rng n_sites;
            at = 10 + Rng.int rng (max 1 (horizon - 10));
            downtime = 20 + Rng.int rng 120;
          })
  in
  let detector_outages =
    List.init (Rng.int rng 2) (fun _ ->
        let from_ = Rng.int rng (max 1 horizon) in
        { out_from = from_; out_until = from_ + 50 + Rng.int rng 250 })
  in
  let txn_crashes =
    (* early in the horizon, while the workload is still in flight *)
    List.init (Rng.int rng 3) (fun _ ->
        { crash_at = 2 + Rng.int rng (max 1 (horizon / 8));
          victim = Rng.int rng 64 })
  in
  {
    fault_seed = seed;
    horizon;
    msg;
    site_crashes;
    detector_outages;
    txn_crashes;
    rebuild_locks = true;
  }

(* Top-level scan: [in_outage] sits on the scheduler's per-tick
   detection checks, so it must not build a closure per call. *)
let rec outage_covers (tick : int) = function
  | [] -> false
  | o :: rest ->
      (o.out_from <= tick && tick < o.out_until) || outage_covers tick rest

let in_outage p tick = outage_covers tick p.detector_outages

let backoff ~attempt = backoff_base * (1 lsl min (max 0 attempt) backoff_cap)

let pp_plan ppf p =
  Fmt.pf ppf
    "@[<v>fault plan (seed %d, horizon %d)@,\
     msg: loss %.2f dup %.2f delay %.2f (max %d)@,\
     site crashes: %a@,detector outages: %a@,txn crashes: %a@,\
     rebuild locks on recovery: %b@]"
    p.fault_seed p.horizon p.msg.loss p.msg.dup p.msg.delay p.msg.max_delay
    Fmt.(list ~sep:comma (fun ppf c ->
        pf ppf "site %d @@%d for %d" c.site c.at c.downtime))
    p.site_crashes
    Fmt.(list ~sep:comma (fun ppf o ->
        pf ppf "[%d,%d)" o.out_from o.out_until))
    p.detector_outages
    Fmt.(list ~sep:comma (fun ppf c ->
        pf ppf "victim %d @@%d" c.victim c.crash_at))
    p.txn_crashes p.rebuild_locks

type t = { p : plan; rng : Rng.t }

let make p = { p; rng = Rng.make (0x6368616f73 lxor p.fault_seed) }
let plan t = t.p

type delivery = Deliver of int | Duplicate of int * int | Lose

let roll_delay t =
  if t.p.msg.max_delay <= 0 then 0
  else if Rng.chance t.rng t.p.msg.delay then 1 + Rng.int t.rng t.p.msg.max_delay
  else 0

let roll t ~tick =
  if tick >= t.p.horizon || is_none t.p then Deliver 0
  else if Rng.chance t.rng t.p.msg.loss then Lose
  else if Rng.chance t.rng t.p.msg.dup then
    Duplicate (roll_delay t, roll_delay t)
  else Deliver (roll_delay t)

let shipment_arrives t ~tick =
  tick >= t.p.horizon || not (Rng.chance t.rng t.p.msg.loss)
