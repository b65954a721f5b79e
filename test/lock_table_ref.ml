(* Reference implementation of [Lock_table], retained verbatim from the
   hashtable-of-entries version so the qcheck differential properties in
   test_lock can assert the dense slot-indexed rewrite is observationally
   identical. Not used by any engine. *)

module Lock_mode = Prb_txn.Lock_mode
module Txn_id = Prb_txn.Txn_id
module Entity = Prb_storage.Store.Entity
module Util = Prb_util.Util

type txn = Txn_id.t
type entity = Prb_storage.Store.entity
type mode = Lock_mode.t

type entry = {
  mutable holding : (txn * mode) list; (* unordered *)
  mutable queue : (txn * mode) list; (* FIFO: head = oldest waiter *)
}

type t = {
  fair : bool;
  entries : (entity, entry) Hashtbl.t;
  wait_of : (txn, entity * mode) Hashtbl.t;
  held_of : (txn, (entity, mode) Hashtbl.t) Hashtbl.t;
      (* txn -> its held locks; the per-transaction index that makes
         [held_by] O(locks held) instead of a scan over every entry in
         the table *)
  mutable requests : int;
  mutable blocks : int;
}

let create ?(fair = true) () =
  {
    fair;
    entries = Hashtbl.create 128;
    wait_of = Hashtbl.create 32;
    held_of = Hashtbl.create 32;
    requests = 0;
    blocks = 0;
  }

let is_fair t = t.fair

let entry t e =
  match Hashtbl.find_opt t.entries e with
  | Some entry -> entry
  | None ->
      let entry = { holding = []; queue = [] } in
      Hashtbl.replace t.entries e entry;
      entry

(* Entries whose holder set and queue both drained are dropped, so the
   entry table tracks only contended-or-held entities instead of every
   entity ever touched. *)
let gc_entry t e entry =
  if entry.holding = [] && entry.queue = [] then Hashtbl.remove t.entries e

let index_grant t who e mode =
  let held =
    match Hashtbl.find_opt t.held_of who with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.replace t.held_of who h;
        h
  in
  Hashtbl.replace held e mode

let index_release t who e =
  match Hashtbl.find_opt t.held_of who with
  | None -> ()
  | Some held ->
      Hashtbl.remove held e;
      if Hashtbl.length held = 0 then Hashtbl.remove t.held_of who

type outcome = Granted | Blocked of txn list

let conflicting_holders entry who mode =
  List.filter_map
    (fun (h, m) ->
      if h <> who && not (Lock_mode.compatible m mode) then Some h else None)
    entry.holding

(* Queued requests ahead of [who] (the whole queue when [who] is absent)
   that conflict with a request in [mode]. *)
let conflicting_queued_ahead entry who mode =
  let rec scan = function
    | [] -> []
    | (w, _) :: _ when w = who -> []
    | (w, m) :: rest ->
        if not (Lock_mode.compatible m mode) then w :: scan rest
        else scan rest
  in
  scan entry.queue

(* Whom would a request by [who] in [mode] wait for right now? *)
let current_blockers t entry who mode =
  let holders = conflicting_holders entry who mode in
  let queued =
    if t.fair then conflicting_queued_ahead entry who mode else []
  in
  List.sort_uniq Txn_id.compare (holders @ queued)

let grant t entry e who mode =
  entry.holding <- (who, mode) :: entry.holding;
  index_grant t who e mode

let request t txn mode e =
  if Hashtbl.mem t.wait_of txn then
    invalid_arg "Lock_table.request: transaction is already waiting";
  t.requests <- t.requests + 1;
  let entry = entry t e in
  if List.mem_assoc txn entry.holding then
    invalid_arg "Lock_table.request: lock already held";
  match current_blockers t entry txn mode with
  | [] -> begin
      grant t entry e txn mode;
      Granted
    end
  | blockers ->
      t.blocks <- t.blocks + 1;
      entry.queue <- entry.queue @ [ (txn, mode) ];
      Hashtbl.replace t.wait_of txn (e, mode);
      Blocked blockers

(* Drain the queue after holders or the queue itself changed.

   Under the fair discipline, grants proceed strictly from the head and
   stop at the first waiter that still conflicts with the holders; under
   the availability discipline, every waiter compatible with the holders
   is granted regardless of position. *)
let try_grants t e entry =
  let granted = ref [] in
  let grant_waiter (w, m) =
    grant t entry e w m;
    Hashtbl.remove t.wait_of w;
    granted := (w, m) :: !granted
  in
  if t.fair then begin
    let rec fifo () =
      match entry.queue with
      | (w, m) :: rest ->
          if conflicting_holders entry w m = [] then begin
            entry.queue <- rest;
            grant_waiter (w, m);
            fifo ()
          end
      | [] -> ()
    in
    fifo ()
  end
  else begin
    let still = ref [] in
    List.iter
      (fun (w, m) ->
        if conflicting_holders entry w m = [] then grant_waiter (w, m)
        else still := (w, m) :: !still)
      entry.queue;
    entry.queue <- List.rev !still
  end;
  gc_entry t e entry;
  List.rev !granted

let release t txn e =
  match Hashtbl.find_opt t.entries e with
  | None -> invalid_arg "Lock_table.release: lock not held"
  | Some entry ->
      if not (List.mem_assoc txn entry.holding) then
        invalid_arg "Lock_table.release: lock not held";
      entry.holding <- List.filter (fun (h, _) -> h <> txn) entry.holding;
      index_release t txn e;
      try_grants t e entry

let cancel_wait t txn =
  match Hashtbl.find_opt t.wait_of txn with
  | None -> None
  | Some (e, _) ->
      Hashtbl.remove t.wait_of txn;
      (match Hashtbl.find_opt t.entries e with
      | Some entry ->
          entry.queue <- List.filter (fun (w, _) -> w <> txn) entry.queue;
          (* Removing a queued conflict may unblock those behind it. *)
          Some (e, try_grants t e entry)
      | None -> Some (e, []))

let held_by t txn =
  match Hashtbl.find_opt t.held_of txn with
  | None -> []
  | Some held -> Util.sorted_bindings Entity.compare held

let n_held t txn =
  match Hashtbl.find_opt t.held_of txn with
  | None -> 0
  | Some held -> Hashtbl.length held

let holders t e =
  match Hashtbl.find_opt t.entries e with
  | None -> []
  | Some entry ->
      (* holders are pairwise distinct, so keying the sort on the id alone
         is a total order *)
      List.sort (fun (a, _) (b, _) -> Txn_id.compare a b) entry.holding

let waiters t e =
  match Hashtbl.find_opt t.entries e with None -> [] | Some entry -> entry.queue

let has_waiters t e =
  match Hashtbl.find_opt t.entries e with
  | None -> false
  | Some entry -> entry.queue <> []

let holds t txn e =
  match Hashtbl.find_opt t.held_of txn with
  | None -> None
  | Some held -> Hashtbl.find_opt held e

let waiting_for t txn = Hashtbl.find_opt t.wait_of txn

let blockers t txn =
  match waiting_for t txn with
  | None -> []
  | Some (e, mode) -> (
      match Hashtbl.find_opt t.entries e with
      | None -> []
      | Some entry -> current_blockers t entry txn mode)

type conflict_kind = No_conflict | Type1 | Type2

let classify t txn mode e =
  match Hashtbl.find_opt t.entries e with
  | None -> No_conflict
  | Some entry -> (
      match (conflicting_holders entry txn mode, mode) with
      | [], _ -> No_conflict
      | _ :: _, Lock_mode.Shared -> Type1
      | _ :: _, Lock_mode.Exclusive -> Type2)

let n_requests t = t.requests
let n_blocks t = t.blocks
let n_entries t = Hashtbl.length t.entries
