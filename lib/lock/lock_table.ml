module Lock_mode = Prb_txn.Lock_mode
module Txn_id = Prb_txn.Txn_id
module Store = Prb_storage.Store
module Entity = Store.Entity

type txn = Txn_id.t
type entity = int
type mode = Lock_mode.t

(* Dense representation: entities arrive as the store's ids (DESIGN.md
   §12) and every per-entity / per-transaction map is a flat array indexed
   by them. Holder sets and FIFO queues live in per-slot packed int
   buffers (txn * 2 lor mode bit), so the request/grant/release hot path
   touches no hashtable and allocates nothing when a request is granted
   or an uncontended lock released. The store is read only for names, to
   keep [held_by] in name order.
   Holder-set order is not observable through the API (every reader sorts
   or tests membership), so holders use swap-remove; queues preserve FIFO
   order with a sliding window. The previous hashtable-of-entries
   implementation is retained verbatim as the test suite's
   [Lock_table_ref], the oracle of the differential tests. *)

let bit_of_mode = function Lock_mode.Shared -> 0 | Lock_mode.Exclusive -> 1
let mode_of_bit b = if b = 1 then Lock_mode.Exclusive else Lock_mode.Shared

(* Shared/Shared is the only compatible pair, so two mode bits conflict
   iff either is set. *)
let bits_conflict a b = a lor b <> 0

type t = {
  fair : bool;
  store : Store.t;
  (* entity-slot-indexed *)
  mutable live : bool array; (* mirrors presence in the old entry table *)
  mutable hold_buf : int array array; (* packed (txn, mode); unordered *)
  mutable hold_len : int array;
  mutable q_buf : int array array; (* packed (txn, mode); FIFO window *)
  mutable q_start : int array;
  mutable q_len : int array;
  (* txn-indexed *)
  mutable wait_eid : int array; (* -1 = not waiting *)
  mutable wait_mode : int array;
  mutable held_buf : int array array; (* packed (eid, mode) *)
  mutable held_len : int array;
  mutable txn_cap : int;
  mutable scratch : int array; (* blocker collection *)
  mutable entries : int;
  mutable requests : int;
  mutable blocks : int;
}

let create ?(fair = true) store =
  {
    fair;
    store;
    live = [||];
    hold_buf = [||];
    hold_len = [||];
    q_buf = [||];
    q_start = [||];
    q_len = [||];
    wait_eid = [||];
    wait_mode = [||];
    held_buf = [||];
    held_len = [||];
    txn_cap = 0;
    scratch = [||];
    entries = 0;
    requests = 0;
    blocks = 0;
  }

let is_fair t = t.fair

let[@lint.allow "A1: amortized geometric growth, never on the steady-state path"] grow_int cap fill arr =
  let narr = Array.make cap fill in
  Array.blit arr 0 narr 0 (Array.length arr);
  narr

let[@lint.allow "A1: amortized geometric growth, never on the steady-state path"] grow_bufs cap arr =
  let narr = Array.make cap [||] in
  Array.blit arr 0 narr 0 (Array.length arr);
  narr

let[@lint.allow "A1: amortized geometric growth, never on the steady-state path"] ensure_eid t eid =
  if eid >= Array.length t.live then begin
    let cap = max 64 (max (eid + 1) (2 * Array.length t.live)) in
    let nl = Array.make cap false in
    Array.blit t.live 0 nl 0 (Array.length t.live);
    t.live <- nl;
    t.hold_buf <- grow_bufs cap t.hold_buf;
    t.hold_len <- grow_int cap 0 t.hold_len;
    t.q_buf <- grow_bufs cap t.q_buf;
    t.q_start <- grow_int cap 0 t.q_start;
    t.q_len <- grow_int cap 0 t.q_len
  end

let ensure_txn t who =
  if who < 0 then invalid_arg "Lock_table: negative transaction id";
  if who >= t.txn_cap then begin
    let cap = max 64 (max (who + 1) (2 * t.txn_cap)) in
    t.wait_eid <- grow_int cap (-1) t.wait_eid;
    t.wait_mode <- grow_int cap 0 t.wait_mode;
    t.held_buf <- grow_bufs cap t.held_buf;
    t.held_len <- grow_int cap 0 t.held_len;
    t.txn_cap <- cap
  end

(* Append a packed value to a per-slot buffer owned by [bufs.(i)]. *)
let[@lint.allow "A1: amortized buffer doubling; the append itself writes in place"] buf_push bufs lens i v =
  let buf = bufs.(i) in
  let n = lens.(i) in
  let buf =
    if n >= Array.length buf then begin
      let nbuf = Array.make (max 4 (2 * Array.length buf)) 0 in
      Array.blit buf 0 nbuf 0 n;
      bufs.(i) <- nbuf;
      nbuf
    end
    else buf
  in
  buf.(n) <- v;
  lens.(i) <- n + 1

(* The scan loops below take their state as explicit parameters instead
   of capturing it in a local closure: these sit on the [@hot] grant and
   release paths, and a capturing [let rec] allocates its closure on every
   call. *)

let rec holder_index buf n who i =
  if i >= n then -1 else if buf.(i) lsr 1 = who then i else holder_index buf n who (i + 1)

(* Index of [who] in the holder set of [eid], or -1. *)
let find_holding t eid who =
  holder_index t.hold_buf.(eid) t.hold_len.(eid) who 0

(* [eid] when the table's per-entity arrays cover it, or -1. *)
let slot t eid = if eid >= 0 && eid < Array.length t.live then eid else -1

let rec conflicting_from buf n who mode_bit i =
  if i >= n then false
  else
    let p = buf.(i) in
    (p lsr 1 <> who && bits_conflict (p land 1) mode_bit)
    || conflicting_from buf n who mode_bit (i + 1)

let has_conflicting_holder t eid who mode_bit =
  conflicting_from t.hold_buf.(eid) t.hold_len.(eid) who mode_bit 0

let scratch_push t n v =
  if n >= Array.length t.scratch then
    t.scratch <- grow_int (max 16 (2 * Array.length t.scratch)) 0 t.scratch;
  t.scratch.(n) <- v;
  n + 1

(* Whom would a request by [who] in [mode] wait for right now? Conflicting
   holders, plus (fair discipline) conflicting requests queued ahead of
   [who], sorted. No transaction is counted twice: holders are distinct,
   a transaction waits on one entity at a time, and none waits on an
   entity it holds, since [request] rejects a re-request of a held
   entity. *)
let rec scratch_holders t mode_bit hbuf i stop n =
  if i >= stop then n
  else
    let p = hbuf.(i) in
    let n =
      if bits_conflict (p land 1) mode_bit then scratch_push t n (p lsr 1)
      else n
    in
    scratch_holders t mode_bit hbuf (i + 1) stop n

(* Queued conflicts ahead of [who]; the scan stops at [who] itself. *)
let rec scratch_queued t who mode_bit qbuf i stop n =
  if i >= stop then n
  else
    let p = qbuf.(i) in
    if p lsr 1 = who then n
    else
      let n =
        if bits_conflict (p land 1) mode_bit then scratch_push t n (p lsr 1)
        else n
      in
      scratch_queued t who mode_bit qbuf (i + 1) stop n

let rec insert_shift (a : int array) j v =
  if j >= 0 && a.(j) > v then begin
    a.(j + 1) <- a.(j);
    insert_shift a (j - 1) v
  end
  else a.(j + 1) <- v

let[@lint.allow
     "A1: builds the blocker list on the blocked path only; the granted \
      fast path returns the static empty list"] rec build_blockers
    (a : int array) i acc =
  if i < 0 then acc else build_blockers a (i - 1) (a.(i) :: acc)

let current_blockers t eid who mode_bit =
  let n = scratch_holders t mode_bit t.hold_buf.(eid) 0 t.hold_len.(eid) 0 in
  let n =
    if t.fair then
      let s = t.q_start.(eid) in
      scratch_queued t who mode_bit t.q_buf.(eid) s (s + t.q_len.(eid)) n
    else n
  in
  (* insertion sort on the scratch prefix; blocker sets are tiny *)
  let a = t.scratch in
  for i = 1 to n - 1 do
    insert_shift a (i - 1) a.(i)
  done;
  build_blockers a (n - 1) []

let rec index_release_from t buf n who eid i =
  if i >= n then ()
  else if buf.(i) lsr 1 = eid then begin
    buf.(i) <- buf.(n - 1);
    t.held_len.(who) <- n - 1
  end
  else index_release_from t buf n who eid (i + 1)

let index_release t who eid =
  index_release_from t t.held_buf.(who) t.held_len.(who) who eid 0

let[@hot] grant t eid who mode_bit =
  buf_push t.hold_buf t.hold_len eid ((who lsl 1) lor mode_bit);
  buf_push t.held_buf t.held_len who ((eid lsl 1) lor mode_bit)

(* Entries whose holder set and queue both drained are dropped from the
   live set, so [n_entries] tracks only contended-or-held entities. *)
let gc_entry t eid =
  if t.live.(eid) && t.hold_len.(eid) = 0 && t.q_len.(eid) = 0 then begin
    t.live.(eid) <- false;
    t.q_start.(eid) <- 0;
    t.entries <- t.entries - 1
  end

let[@lint.allow "A1: amortized FIFO-window doubling; the enqueue itself writes in place"] queue_push t eid who mode_bit =
  let buf = t.q_buf.(eid) in
  let s = t.q_start.(eid) in
  let n = t.q_len.(eid) in
  if s + n >= Array.length buf && s > 0 then begin
    (* slide the FIFO window back to the base before growing *)
    Array.blit buf s buf 0 n;
    t.q_start.(eid) <- 0
  end;
  let s = t.q_start.(eid) in
  if s + n >= Array.length buf then begin
    let nbuf = Array.make (max 4 (2 * Array.length buf)) 0 in
    Array.blit buf s nbuf 0 n;
    t.q_buf.(eid) <- nbuf;
    t.q_start.(eid) <- 0
  end;
  let s = t.q_start.(eid) in
  t.q_buf.(eid).(s + n) <- (who lsl 1) lor mode_bit;
  t.q_len.(eid) <- n + 1

(* Remove the queued request at absolute position [p], preserving FIFO
   order of the rest. *)
let queue_remove_at t eid p =
  let s = t.q_start.(eid) in
  let n = t.q_len.(eid) in
  if p = s then t.q_start.(eid) <- s + 1
  else Array.blit t.q_buf.(eid) (p + 1) t.q_buf.(eid) p (s + n - p - 1);
  t.q_len.(eid) <- n - 1

type outcome = Granted | Blocked of txn list

let[@hot] request t who mode eid =
  ensure_txn t who;
  if t.wait_eid.(who) >= 0 then
    invalid_arg "Lock_table.request: transaction is already waiting";
  if eid < 0 then invalid_arg "Lock_table.request: negative entity id";
  t.requests <- t.requests + 1;
  ensure_eid t eid;
  if not t.live.(eid) then begin
    t.live.(eid) <- true;
    t.entries <- t.entries + 1
  end;
  if find_holding t eid who >= 0 then
    invalid_arg "Lock_table.request: lock already held";
  let mode_bit = bit_of_mode mode in
  match current_blockers t eid who mode_bit with
  | [] ->
      grant t eid who mode_bit;
      Granted
  | blockers ->
      t.blocks <- t.blocks + 1;
      queue_push t eid who mode_bit;
      t.wait_eid.(who) <- eid;
      t.wait_mode.(who) <- mode_bit;
      (Blocked blockers
      [@lint.allow
        "A1: the blocked-path outcome carries its blocker list by design"])

(* Drain the queue after holders or the queue itself changed.

   Under the fair discipline, grants proceed strictly from the head and
   stop at the first waiter that still conflicts with the holders; under
   the availability discipline, every waiter compatible with the holders
   is granted regardless of position. *)
let[@lint.allow "A1: runs only after a release or cancellation on a contended entity and returns the grant report the scheduler re-dispatches; the uncontended release path exits at the empty-queue check"] try_grants t eid =
  if t.q_len.(eid) = 0 then begin
    gc_entry t eid;
    []
  end
  else begin
    let granted = ref [] in
    let grant_waiter who mode_bit =
      grant t eid who mode_bit;
      t.wait_eid.(who) <- -1;
      granted := (who, mode_of_bit mode_bit) :: !granted
    in
    if t.fair then begin
      let continue = ref true in
      while !continue && t.q_len.(eid) > 0 do
        let packed = t.q_buf.(eid).(t.q_start.(eid)) in
        let w = packed lsr 1 in
        if not (has_conflicting_holder t eid w (packed land 1)) then begin
          queue_remove_at t eid t.q_start.(eid);
          grant_waiter w (packed land 1)
        end
        else continue := false
      done
    end
    else begin
      (* Grants mutate the holder set as the scan proceeds, exactly like
         the list version; survivors compact to the buffer base. *)
      let buf = t.q_buf.(eid) in
      let s = t.q_start.(eid) in
      let n = t.q_len.(eid) in
      let kept = ref 0 in
      for p = s to s + n - 1 do
        let packed = buf.(p) in
        let w = packed lsr 1 in
        if not (has_conflicting_holder t eid w (packed land 1)) then
          grant_waiter w (packed land 1)
        else begin
          buf.(!kept) <- packed;
          incr kept
        end
      done;
      t.q_start.(eid) <- 0;
      t.q_len.(eid) <- !kept
    end;
    gc_entry t eid;
    List.rev !granted
  end

let[@hot] release t who e =
  let fail () = invalid_arg "Lock_table.release: lock not held" in
  let eid = slot t e in
  if eid < 0 || not t.live.(eid) then fail ();
  ensure_txn t who;
  let i = find_holding t eid who in
  if i < 0 then fail ();
  let n = t.hold_len.(eid) in
  t.hold_buf.(eid).(i) <- t.hold_buf.(eid).(n - 1);
  t.hold_len.(eid) <- n - 1;
  index_release t who eid;
  try_grants t eid

let[@lint.allow "A1: cancellation happens only on rollback/timeout, off the steady-state grant path; returns the regrant report"] cancel_wait t who =
  ensure_txn t who;
  let eid = t.wait_eid.(who) in
  if eid < 0 then None
  else begin
    t.wait_eid.(who) <- -1;
    if not t.live.(eid) then Some (eid, [])
    else begin
      let s = t.q_start.(eid) in
      let rec find p =
        if p >= s + t.q_len.(eid) then -1
        else if t.q_buf.(eid).(p) lsr 1 = who then p
        else find (p + 1)
      in
      let p = find s in
      if p >= 0 then queue_remove_at t eid p;
      (* Removing a queued conflict may unblock those behind it. *)
      Some (eid, try_grants t eid)
    end
  end

(* Sorted by name, never by id: ids follow the store's definition order. *)
let held_by t txn =
  if txn < 0 || txn >= t.txn_cap then []
  else begin
    let buf = t.held_buf.(txn) in
    let rec collect i acc =
      if i < 0 then acc
      else
        let p = buf.(i) in
        collect (i - 1) ((p lsr 1, mode_of_bit (p land 1)) :: acc)
    in
    List.sort
      (fun (a, _) (b, _) ->
        Entity.compare (Store.name t.store a) (Store.name t.store b))
      (collect (t.held_len.(txn) - 1) [])
  end

let n_held t txn = if txn < 0 || txn >= t.txn_cap then 0 else t.held_len.(txn)

let holders t e =
  let eid = slot t e in
  if eid < 0 then []
  else begin
    let buf = t.hold_buf.(eid) in
    let rec collect i acc =
      if i < 0 then acc
      else
        let p = buf.(i) in
        collect (i - 1) ((p lsr 1, mode_of_bit (p land 1)) :: acc)
    in
    (* holders are pairwise distinct, so keying the sort on the id alone
       is a total order *)
    List.sort
      (fun (a, _) (b, _) -> Txn_id.compare a b)
      (collect (t.hold_len.(eid) - 1) [])
  end

let waiters t e =
  let eid = slot t e in
  if eid < 0 then []
  else begin
    let buf = t.q_buf.(eid) in
    let s = t.q_start.(eid) in
    let rec collect i acc =
      if i < s then acc
      else
        let p = buf.(i) in
        collect (i - 1) ((p lsr 1, mode_of_bit (p land 1)) :: acc)
    in
    collect (s + t.q_len.(eid) - 1) []
  end

let has_waiters t e =
  let eid = slot t e in
  eid >= 0 && t.q_len.(eid) > 0

let holds t txn eid =
  if txn < 0 || txn >= t.txn_cap || eid < 0 then None
  else
    let buf = t.held_buf.(txn) in
    let n = t.held_len.(txn) in
    let rec go i =
      if i >= n then None
      else if buf.(i) lsr 1 = eid then Some (mode_of_bit (buf.(i) land 1))
      else go (i + 1)
    in
    go 0

let waiting_for t txn =
  if txn < 0 || txn >= t.txn_cap || t.wait_eid.(txn) < 0 then None
  else
    Some (t.wait_eid.(txn), mode_of_bit t.wait_mode.(txn))

let blockers t txn =
  if txn < 0 || txn >= t.txn_cap || t.wait_eid.(txn) < 0 then []
  else current_blockers t t.wait_eid.(txn) txn t.wait_mode.(txn)

type conflict_kind = No_conflict | Type1 | Type2

let classify t txn mode e =
  let eid = slot t e in
  if eid < 0 || not (has_conflicting_holder t eid txn (bit_of_mode mode)) then
    No_conflict
  else
    match mode with Lock_mode.Shared -> Type1 | Lock_mode.Exclusive -> Type2

let n_requests t = t.requests
let n_blocks t = t.blocks
(* Always 0: a re-request of a held entity is rejected, so no lock is
   ever converted. Kept only because the repository benchmark reports it. *)
let n_upgrades _ = 0
let n_entries t = t.entries
