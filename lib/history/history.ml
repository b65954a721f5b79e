module Lock_mode = Prb_txn.Lock_mode
module Store = Prb_storage.Store
module Pqueue = Prb_util.Dense.Pqueue

type txn = int
type entity = Prb_storage.Store.entity
type mode = Lock_mode.t

type interval = {
  txn : txn;
  entity : entity;
  mode : mode;
  granted_at : int;
  released_at : int;
}

(* Flat int state (DESIGN.md §10). Every index below is an int into a
   recycled pool; -1 ends a chain.

   Interval cells carry an owner slot, an entity (the store's id, DESIGN.md
   §12; the store is read only for names in reports), a mode and the
   grant and release ticks. [iv_next] chains a live transaction's open
   intervals, and its closed ones newest first; commit reverses the
   closed chain in place into release order, and it stays the retained
   transaction's interval chain. Each retained interval is also on its
   entity's doubly-linked chain, newest first ([iv_enext] towards older,
   [iv_eprev] towards newer), so a fold unlinks it in O(1). Free cells
   chain through [iv_next].

   A transaction holds a slot from its first grant until it is folded,
   dropped or commits with nothing to retain. [slot_of] maps a live id to
   its slot; it is the one array indexed by transaction id. A committed
   transaction is reached only through its slot: interval owners and
   successor cells name slots. Free slots chain through [sl_open].

   A live slot's [sl_first] is the earliest grant tick it has produced:
   its contribution to the truncation watermark. Discards may remove the
   interval that set it; keeping the stale, lower value is conservative —
   it only delays folding, never unsoundly permits it. A retained slot
   counts its retained predecessors and chains its successor cells, one
   per conflicting interval pair (so a slot may repeat).

   Retained slots wait in [waiting], keyed by their last release, until
   the watermark passes it; they are then quiescent, and enter [ready],
   keyed by id, once no predecessor is left. *)
let free = 0
let live = 1
let retained = 2
let quiescent = 3

type t = {
  store : Store.t;
  mutable ent_head : int array;  (* entity -> newest retained interval *)
  mutable iv_owner : int array;
  mutable iv_ent : int array;
  mutable iv_mode : mode array;
  mutable iv_granted : int array;
  mutable iv_released : int array;
  mutable iv_next : int array;
  mutable iv_enext : int array;
  mutable iv_eprev : int array;
  mutable iv_free : int;
  mutable n_ivs : int;  (* cells ever handed out *)
  mutable slot_of : int array;  (* id -> live slot, or -1 *)
  mutable sl_txn : int array;
  mutable sl_state : int array;
  mutable sl_open : int array;
  mutable sl_ivs : int array;
  mutable sl_first : int array;  (* live: earliest grant tick *)
  mutable sl_last : int array;  (* retained: latest release tick *)
  mutable sl_preds : int array;
  mutable sl_succs : int array;
  mutable slot_free : int;
  mutable n_slots : int;  (* slots ever handed out *)
  mutable sc_slot : int array;
  mutable sc_next : int array;
  mutable sc_free : int;
  mutable n_scs : int;  (* successor cells ever handed out *)
  waiting : Pqueue.t;
  ready : Pqueue.t;
  mutable folded : int array;  (* serial-order prefix, oldest first *)
  mutable n_folded : int;
  mutable n_retained_txns : int;
  mutable n_retained : int;  (* retained committed intervals *)
  mutable violations : (interval * interval) list;  (* newest first *)
  mutable now : int;  (* highest tick observed *)
}

let create store =
  {
    store;
    ent_head = [||];
    iv_owner = [||];
    iv_ent = [||];
    iv_mode = [||];
    iv_granted = [||];
    iv_released = [||];
    iv_next = [||];
    iv_enext = [||];
    iv_eprev = [||];
    iv_free = -1;
    n_ivs = 0;
    slot_of = [||];
    sl_txn = [||];
    sl_state = [||];
    sl_open = [||];
    sl_ivs = [||];
    sl_first = [||];
    sl_last = [||];
    sl_preds = [||];
    sl_succs = [||];
    slot_free = -1;
    n_slots = 0;
    sc_slot = [||];
    sc_next = [||];
    sc_free = -1;
    n_scs = 0;
    waiting = Pqueue.create ();
    ready = Pqueue.create ();
    folded = [||];
    n_folded = 0;
    n_retained_txns = 0;
    n_retained = 0;
    violations = [];
    now = 0;
  }

(* --- Pools -------------------------------------------------------------- *)

let[@lint.allow
     "A1: amortized geometric growth — a pool or index allocates only when \
      it doubles, never once warm"] grown a n fill =
  let b = Array.make (max (max n 16) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_interval t =
  let c = t.iv_free in
  if c >= 0 then begin
    t.iv_free <- t.iv_next.(c);
    c
  end
  else begin
    let c = t.n_ivs in
    if c = Array.length t.iv_owner then begin
      t.iv_owner <- grown t.iv_owner (c + 1) 0;
      t.iv_ent <- grown t.iv_ent (c + 1) 0;
      t.iv_mode <- grown t.iv_mode (c + 1) Lock_mode.Shared;
      t.iv_granted <- grown t.iv_granted (c + 1) 0;
      t.iv_released <- grown t.iv_released (c + 1) 0;
      t.iv_next <- grown t.iv_next (c + 1) 0;
      t.iv_enext <- grown t.iv_enext (c + 1) 0;
      t.iv_eprev <- grown t.iv_eprev (c + 1) 0
    end;
    t.n_ivs <- c + 1;
    c
  end

let free_interval t c =
  t.iv_next.(c) <- t.iv_free;
  t.iv_free <- c

let rec free_chain t c =
  if c >= 0 then begin
    let next = t.iv_next.(c) in
    free_interval t c;
    free_chain t next
  end

let new_slot t txn ~tick =
  let s = t.slot_free in
  let s =
    if s >= 0 then begin
      t.slot_free <- t.sl_open.(s);
      s
    end
    else begin
      let s = t.n_slots in
      if s = Array.length t.sl_txn then begin
        t.sl_txn <- grown t.sl_txn (s + 1) 0;
        t.sl_state <- grown t.sl_state (s + 1) free;
        t.sl_open <- grown t.sl_open (s + 1) 0;
        t.sl_ivs <- grown t.sl_ivs (s + 1) 0;
        t.sl_first <- grown t.sl_first (s + 1) 0;
        t.sl_last <- grown t.sl_last (s + 1) 0;
        t.sl_preds <- grown t.sl_preds (s + 1) 0;
        t.sl_succs <- grown t.sl_succs (s + 1) 0
      end;
      t.n_slots <- s + 1;
      s
    end
  in
  t.sl_txn.(s) <- txn;
  t.sl_state.(s) <- live;
  t.sl_open.(s) <- -1;
  t.sl_ivs.(s) <- -1;
  t.sl_first.(s) <- tick;
  t.sl_preds.(s) <- 0;
  t.sl_succs.(s) <- -1;
  s

let free_slot t s =
  t.sl_state.(s) <- free;
  t.sl_open.(s) <- t.slot_free;
  t.slot_free <- s

let new_succ t =
  let c = t.sc_free in
  if c >= 0 then begin
    t.sc_free <- t.sc_next.(c);
    c
  end
  else begin
    let c = t.n_scs in
    if c = Array.length t.sc_slot then begin
      t.sc_slot <- grown t.sc_slot (c + 1) 0;
      t.sc_next <- grown t.sc_next (c + 1) 0
    end;
    t.n_scs <- c + 1;
    c
  end

(* --- Live bookkeeping --------------------------------------------------- *)

let live_slot_of t txn =
  if txn >= 0 && txn < Array.length t.slot_of then t.slot_of.(txn) else -1

let live_slot t txn ~tick =
  if txn < 0 then invalid_arg "History: negative transaction id";
  if txn >= Array.length t.slot_of then
    t.slot_of <- grown t.slot_of (txn + 1) (-1);
  let s = t.slot_of.(txn) in
  if s >= 0 then s
  else begin
    let s = new_slot t txn ~tick in
    t.slot_of.(txn) <- s;
    s
  end

let ensure_entity t e =
  if e < 0 then invalid_arg "History: negative entity id";
  if e >= Array.length t.ent_head then
    t.ent_head <- grown t.ent_head (e + 1) (-1)

let rec find_open t e c =
  if c < 0 || t.iv_ent.(c) = e then c else find_open t e t.iv_next.(c)

(* Unlink [s]'s open interval on [e], if any, and return it (or -1). *)
let rec unlink_open t s e prev c =
  if c < 0 then -1
  else if t.iv_ent.(c) = e then begin
    if prev < 0 then t.sl_open.(s) <- t.iv_next.(c)
    else t.iv_next.(prev) <- t.iv_next.(c);
    c
  end
  else unlink_open t s e c t.iv_next.(c)

let take_open t s e = unlink_open t s e (-1) t.sl_open.(s)

let[@hot] note_grant t ~tick txn e mode =
  if tick > t.now then t.now <- tick;
  ensure_entity t e;
  let s = live_slot t txn ~tick in
  if tick < t.sl_first.(s) then t.sl_first.(s) <- tick;
  let c = find_open t e t.sl_open.(s) in
  let c =
    if c >= 0 then c
    else begin
      let c = new_interval t in
      t.iv_owner.(c) <- s;
      t.iv_ent.(c) <- e;
      t.iv_next.(c) <- t.sl_open.(s);
      t.sl_open.(s) <- c;
      c
    end
  in
  t.iv_mode.(c) <- mode;
  t.iv_granted.(c) <- tick

let[@hot] note_release t ~tick txn entity =
  if tick > t.now then t.now <- tick;
  let s = live_slot_of t txn in
  if s >= 0 then begin
    let c = take_open t s entity in
    if c >= 0 then begin
      t.iv_released.(c) <- tick;
      t.iv_next.(c) <- t.sl_ivs.(s);
      t.sl_ivs.(s) <- c
    end
  end

(* Dropping an emptied live slot lets the watermark advance past its
   stale [sl_first]; a later re-grant takes a new slot at the
   (necessarily later) new tick. *)
let drop_live t txn s =
  free_chain t t.sl_open.(s);
  free_chain t t.sl_ivs.(s);
  t.slot_of.(txn) <- -1;
  free_slot t s

let discard t txn entity =
  let s = live_slot_of t txn in
  if s >= 0 then begin
    let c = take_open t s entity in
    if c >= 0 then free_interval t c;
    if t.sl_open.(s) < 0 && t.sl_ivs.(s) < 0 then drop_live t txn s
  end

let discard_txn t txn =
  let s = live_slot_of t txn in
  if s >= 0 then drop_live t txn s

(* --- Streaming conflict-graph maintenance ------------------------------- *)

let interval_of t c =
  {
    txn = t.sl_txn.(t.iv_owner.(c));
    entity = Store.name t.store t.iv_ent.(c);
    mode = t.iv_mode.(c);
    granted_at = t.iv_granted.(c);
    released_at = t.iv_released.(c);
  }

let record_violation t a b =
  let a = interval_of t a and b = interval_of t b in
  t.violations <-
    (if a.txn < b.txn then (a, b) else (b, a)) :: t.violations

(* Slot [p] precedes slot [s]. *)
let precede t p s =
  let c = new_succ t in
  t.sc_slot.(c) <- s;
  t.sc_next.(c) <- t.sl_succs.(p);
  t.sl_succs.(p) <- c;
  t.sl_preds.(s) <- t.sl_preds.(s) + 1

(* Interval [a] of the committing slot [s] against the retained
   intervals [b ..] on its entity, newest first. *)
let rec check_peers t txn s a b =
  if b >= 0 then begin
    let bs = t.iv_owner.(b) in
    if t.sl_txn.(bs) <> txn
       && not (Lock_mode.compatible t.iv_mode.(a) t.iv_mode.(b))
    then begin
      if
        t.iv_granted.(a) < t.iv_released.(b)
        && t.iv_granted.(b) < t.iv_released.(a)
      then record_violation t a b;
      if t.iv_released.(a) <= t.iv_granted.(b) then precede t s bs;
      if t.iv_released.(b) <= t.iv_granted.(a) then precede t bs s
    end;
    check_peers t txn s a t.iv_enext.(b)
  end

let link_entity t a =
  let e = t.iv_ent.(a) in
  let head = t.ent_head.(e) in
  t.iv_enext.(a) <- head;
  t.iv_eprev.(a) <- -1;
  if head >= 0 then t.iv_eprev.(head) <- a;
  t.ent_head.(e) <- a

let unlink_entity t a =
  let prev = t.iv_eprev.(a) and next = t.iv_enext.(a) in
  if prev >= 0 then t.iv_enext.(prev) <- next
  else t.ent_head.(t.iv_ent.(a)) <- next;
  if next >= 0 then t.iv_eprev.(next) <- prev

(* Each committed interval, in release order, is checked against the
   retained intervals on its entity and then joins them. *)
let rec retain_intervals t txn s a =
  if a >= 0 then begin
    let released = t.iv_released.(a) in
    if released > t.sl_last.(s) then t.sl_last.(s) <- released;
    check_peers t txn s a t.ent_head.(t.iv_ent.(a));
    link_entity t a;
    t.n_retained <- t.n_retained + 1;
    retain_intervals t txn s t.iv_next.(a)
  end

let rec reverse_chain t prev c =
  if c < 0 then prev
  else begin
    let next = t.iv_next.(c) in
    t.iv_next.(c) <- prev;
    reverse_chain t c next
  end

(* The truncation watermark W: every interval committed from this point
   on is granted at tick >= W. Minimum over [now] (future grants happen
   at or after the present) and every live slot's earliest grant (its
   closed intervals are already bounded by it). *)
let rec watermark_from t s w =
  if s < 0 then w
  else
    watermark_from t (s - 1)
      (if t.sl_state.(s) = live && t.sl_first.(s) < w then t.sl_first.(s)
       else w)

let push_ready t s = Pqueue.push t.ready ~priority:t.sl_txn.(s) ~tag:0 ~a:s ~b:0

(* Every retained slot whose last release lies before [w] becomes
   quiescent, and foldable once it has no predecessor. The minimum that
   is not yet quiescent goes back. *)
let rec wake t w =
  if Pqueue.pop t.waiting then begin
    let s = Pqueue.cur_a t.waiting in
    let last = Pqueue.cur_prio t.waiting in
    if last < w then begin
      t.sl_state.(s) <- quiescent;
      if t.sl_preds.(s) = 0 then push_ready t s;
      wake t w
    end
    else Pqueue.push t.waiting ~priority:last ~tag:0 ~a:s ~b:0
  end

let rec unlink_intervals t c =
  if c >= 0 then begin
    let next = t.iv_next.(c) in
    unlink_entity t c;
    free_interval t c;
    t.n_retained <- t.n_retained - 1;
    unlink_intervals t next
  end

let rec release_succs t c =
  if c >= 0 then begin
    let s = t.sc_slot.(c) and next = t.sc_next.(c) in
    t.sl_preds.(s) <- t.sl_preds.(s) - 1;
    if t.sl_preds.(s) = 0 && t.sl_state.(s) = quiescent then push_ready t s;
    t.sc_next.(c) <- t.sc_free;
    t.sc_free <- c;
    release_succs t next
  end

(* Fold a quiescent slot without predecessors into the serial-order
   prefix: its position there is final, and no future interval can
   overlap it or precede it. Its intervals leave the entity chains — the
   edges it would contribute to future commits all point prefix ->
   future, which the prefix order already witnesses. *)
let fold_one t s =
  unlink_intervals t t.sl_ivs.(s);
  release_succs t t.sl_succs.(s);
  let n = t.n_folded in
  if n = Array.length t.folded then t.folded <- grown t.folded (n + 1) 0;
  t.folded.(n) <- t.sl_txn.(s);
  t.n_folded <- n + 1;
  t.n_retained_txns <- t.n_retained_txns - 1;
  free_slot t s

(* Folds the smallest foldable id, then the smallest again: [ready]
   holds exactly the foldable set, because the watermark never decreases
   and a quiescent slot gains no predecessor (DESIGN.md §10). *)
let rec fold_ready t =
  if Pqueue.pop t.ready then begin
    fold_one t (Pqueue.cur_a t.ready);
    fold_ready t
  end

let commit_txn t txn =
  let s = live_slot_of t txn in
  if s >= 0 then begin
    if t.sl_open.(s) >= 0 then
      invalid_arg "History.commit_txn: transaction still holds a lock";
    t.slot_of.(txn) <- -1;
    if t.sl_ivs.(s) < 0 then
      free_slot t s (* no committed interval: no vertex, like the naive graph *)
    else begin
      let ivs = reverse_chain t (-1) t.sl_ivs.(s) in
      t.sl_ivs.(s) <- ivs;
      t.sl_state.(s) <- retained;
      t.sl_last.(s) <- min_int;
      t.n_retained_txns <- t.n_retained_txns + 1;
      retain_intervals t txn s ivs;
      Pqueue.push t.waiting ~priority:t.sl_last.(s) ~tag:0 ~a:s ~b:0;
      wake t (watermark_from t (t.n_slots - 1) t.now);
      fold_ready t
    end
  end

(* --- Queries ------------------------------------------------------------ *)

let is_retained t s =
  let st = t.sl_state.(s) in
  st = retained || st = quiescent

(* Retained slots in ascending id order. *)
let retained_slots t =
  let by_id a b = Int.compare t.sl_txn.(a) t.sl_txn.(b) in
  List.sort by_id
    (List.filter (is_retained t) (List.init t.n_slots Fun.id))

let rec chain_intervals t c =
  if c < 0 then [] else interval_of t c :: chain_intervals t t.iv_next.(c)

let committed t =
  let all =
    List.fold_left
      (fun acc s -> chain_intervals t t.sl_ivs.(s) @ acc)
      [] (retained_slots t)
  in
  List.sort
    (fun a b ->
      compare (a.granted_at, a.txn, a.entity) (b.granted_at, b.txn, b.entity))
    all

let overlapping_conflicts t =
  List.sort
    (fun (a1, b1) (a2, b2) ->
      compare
        (a1.granted_at, a1.txn, a1.entity, b1.txn, b1.entity)
        (a2.granted_at, a2.txn, a2.entity, b2.txn, b2.entity))
    t.violations

exception Cyclic

let rec succ_slots t c acc =
  if c < 0 then acc else succ_slots t t.sc_next.(c) (t.sc_slot.(c) :: acc)

(* The retained residue in precedence order, or [None] on a cycle: one
   depth-first walk from each id in ascending order, successors ascending
   without repeats, post-order reversed. *)
let residue_order t =
  let by_id a b = Int.compare t.sl_txn.(a) t.sl_txn.(b) in
  let mark = Array.make t.n_slots 0 (* 1 while on the walk's path, 2 done *) in
  let order = ref [] in
  let rec visit s =
    match mark.(s) with
    | 2 -> ()
    | 1 -> raise_notrace Cyclic
    | _ ->
        mark.(s) <- 1;
        List.iter visit (List.sort_uniq by_id (succ_slots t t.sl_succs.(s) []));
        mark.(s) <- 2;
        order := t.sl_txn.(s) :: !order
  in
  try
    List.iter visit (retained_slots t);
    Some !order
  with Cyclic -> None

let serializable t = t.violations = [] && residue_order t <> None

let rec prefix_onto t i acc =
  if i < 0 then acc else prefix_onto t (i - 1) (t.folded.(i) :: acc)

let equivalent_serial_order t =
  if t.violations <> [] then None
  else Option.map (prefix_onto t (t.n_folded - 1)) (residue_order t)

let n_retained_intervals t = t.n_retained
let n_retained_txns t = t.n_retained_txns
let n_folded t = t.n_folded
let pool_sizes t = (t.n_slots, t.n_ivs, t.n_scs)
