module Lock_mode = Prb_txn.Lock_mode
module Imap = Map.Make (Int)

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

(* Live (uncommitted) bookkeeping for one transaction: its open intervals
   keyed by entity, its closed-but-uncommitted intervals, and the
   earliest grant tick it has ever produced. The latter is the
   transaction's contribution to the truncation watermark: every interval
   it will ever commit was (or will be) granted at or after it. Discards
   may remove the interval that set the minimum; keeping the stale, lower
   value is conservative — it only delays folding, never unsoundly
   permits it. *)
type live = {
  open_ivs : (entity, mode * int) Hashtbl.t;
  mutable pending : interval list; (* newest first *)
  mutable first_granted : int;
}

(* A committed transaction still retained for conflict checking, with its
   retained predecessors counted and its successors listed, one entry per
   conflicting interval pair (so an id may repeat). *)
type committed_info = {
  ci_intervals : interval list; (* chronological *)
  ci_max_released : int;
  mutable n_preds : int;
  mutable succs : txn list;
}

type t = {
  live : (txn, live) Hashtbl.t;
  mutable retained : committed_info Imap.t; (* in id order *)
  by_entity : (entity, interval list ref) Hashtbl.t;
      (* retained committed intervals touching each entity *)
  mutable folded_rev : txn list; (* serial-order prefix, newest first *)
  mutable n_folded : int;
  mutable violations : (interval * interval) list; (* newest first *)
  mutable now : int; (* highest tick observed *)
  mutable n_retained : int; (* retained committed intervals *)
}

let create () =
  {
    live = Hashtbl.create 64;
    retained = Imap.empty;
    by_entity = Hashtbl.create 64;
    folded_rev = [];
    n_folded = 0;
    violations = [];
    now = 0;
    n_retained = 0;
  }

let[@lint.allow
     "A1: lazily creates the per-transaction certifier record on its \
      first grant only"] live_of t txn ~tick =
  match Hashtbl.find_opt t.live txn with
  | Some l -> l
  | None ->
      let l =
        { open_ivs = Hashtbl.create 4; pending = []; first_granted = tick }
      in
      Hashtbl.replace t.live txn l;
      l

let[@lint.allow
     "A1: per-grant provenance bookkeeping — the streaming \
      serializability certifier's input is built here by \
      design"] note_grant t ~tick txn entity mode =
  if tick > t.now then t.now <- tick;
  let l = live_of t txn ~tick in
  if tick < l.first_granted then l.first_granted <- tick;
  Hashtbl.replace l.open_ivs entity (mode, tick)

let[@lint.allow
     "A1: per-release certifier bookkeeping — closing the grant interval \
      records it for the streaming serializability check, by \
      design"] note_release t ~tick txn entity =
  if tick > t.now then t.now <- tick;
  match Hashtbl.find_opt t.live txn with
  | None -> ()
  | Some l -> (
      match Hashtbl.find_opt l.open_ivs entity with
      | None -> ()
      | Some (mode, granted_at) ->
          Hashtbl.remove l.open_ivs entity;
          l.pending <-
            { txn; entity; mode; granted_at; released_at = tick } :: l.pending)

(* Dropping a live record once it is empty lets the watermark advance past
   the transaction's stale [first_granted]; any later re-grant re-creates
   the record at the (necessarily later) new tick. *)
let drop_live_if_empty t txn l =
  if Hashtbl.length l.open_ivs = 0 && l.pending = [] then
    Hashtbl.remove t.live txn

let discard t txn entity =
  match Hashtbl.find_opt t.live txn with
  | None -> ()
  | Some l ->
      Hashtbl.remove l.open_ivs entity;
      drop_live_if_empty t txn l

let discard_txn t txn = Hashtbl.remove t.live txn

(* --- Streaming conflict-graph maintenance ---------------------------- *)

let conflicting a b =
  a.txn <> b.txn
  && String.equal a.entity b.entity
  && not (Lock_mode.compatible a.mode b.mode)

let overlaps a b =
  a.granted_at < b.released_at && b.granted_at < a.released_at

(* The truncation watermark W: every interval committed from this point
   on is granted at tick >= W. Minimum over [now] (future grants happen
   at or after the present) and every live transaction's earliest grant
   (its pending intervals are already bounded by it). Order-independent
   minimum, so direct table iteration is safe. *)
let watermark t =
  Hashtbl.fold (fun _ l acc -> min acc l.first_granted) t.live t.now

(* Fold every retained committed transaction that can no longer interact
   with the future into the serial-order prefix: no predecessors among
   retained transactions (so its prefix position is final) and strictly
   quiescent (all intervals released before the watermark, so no future
   interval can overlap it or precede it). Folding removes its intervals
   from the per-entity indexes — the edges it would have contributed to
   future commits all point prefix -> future, which the prefix order
   already witnesses. *)
let fold_one t txn ci =
  List.iter
    (fun iv ->
      match Hashtbl.find_opt t.by_entity iv.entity with
      | None -> ()
      | Some l -> (
          l := List.filter (fun b -> b.txn <> txn) !l;
          match !l with
          | [] -> Hashtbl.remove t.by_entity iv.entity
          | _ -> ()))
    ci.ci_intervals;
  List.iter
    (fun s ->
      let si = Imap.find s t.retained in
      si.n_preds <- si.n_preds - 1)
    ci.succs;
  t.retained <- Imap.remove txn t.retained;
  t.n_retained <- t.n_retained - List.length ci.ci_intervals;
  t.folded_rev <- txn :: t.folded_rev;
  t.n_folded <- t.n_folded + 1

exception Ready of txn * committed_info

(* Folds the smallest foldable id, then looks again from the smallest,
   because a fold can free a smaller retained id of its last
   predecessor. The retained map is in id order, so nothing is sorted. *)
let rec fold_ready t w =
  try
    Imap.iter
      (fun txn ci ->
        if ci.ci_max_released < w && ci.n_preds = 0 then
          raise_notrace (Ready (txn, ci)))
      t.retained
  with Ready (txn, ci) ->
    fold_one t txn ci;
    fold_ready t w

(* [p] precedes the retained or committing transaction [s] *)
let precede p s si =
  p.succs <- s :: p.succs;
  si.n_preds <- si.n_preds + 1

let commit_txn t txn =
  match Hashtbl.find_opt t.live txn with
  | None -> ()
  | Some l ->
      if Hashtbl.length l.open_ivs > 0 then
        invalid_arg "History.commit_txn: transaction still holds a lock";
      Hashtbl.remove t.live txn;
      match List.rev l.pending with
      | [] -> () (* no committed interval: no vertex, like the naive graph *)
      | intervals ->
          let ci =
            {
              ci_intervals = intervals;
              ci_max_released =
                List.fold_left (fun m a -> Int.max m a.released_at) min_int
                  intervals;
              n_preds = 0;
              succs = [];
            }
          in
          List.iter
            (fun a ->
              let peers =
                match Hashtbl.find_opt t.by_entity a.entity with
                | Some peers -> peers
                | None -> ref []
              in
              List.iter
                (fun b ->
                  if conflicting a b then begin
                    if overlaps a b then
                      t.violations <-
                        (if a.txn < b.txn then (a, b) else (b, a))
                        :: t.violations;
                    let bi = Imap.find b.txn t.retained in
                    if a.released_at <= b.granted_at then precede ci b.txn bi;
                    if b.released_at <= a.granted_at then precede bi txn ci
                  end)
                !peers;
              peers := a :: !peers;
              Hashtbl.replace t.by_entity a.entity peers)
            intervals;
          t.retained <- Imap.add txn ci t.retained;
          t.n_retained <- t.n_retained + List.length intervals;
          fold_ready t (watermark t)

(* --- Queries ---------------------------------------------------------- *)

let committed t =
  let all = Imap.fold (fun _ ci acc -> ci.ci_intervals @ acc) t.retained [] in
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

(* The retained residue in precedence order, or [None] on a cycle: one
   depth-first walk from each id in ascending order, successors ascending
   without repeats, post-order reversed. *)
let residue_order t =
  let finished = Hashtbl.create 64 (* false while on the walk's path *) in
  let order = ref [] in
  let rec visit txn =
    match Hashtbl.find_opt finished txn with
    | Some true -> ()
    | Some false -> raise_notrace Cyclic
    | None ->
        Hashtbl.replace finished txn false;
        List.iter visit
          (List.sort_uniq Int.compare (Imap.find txn t.retained).succs);
        Hashtbl.replace finished txn true;
        order := txn :: !order
  in
  try
    Imap.iter (fun txn _ -> visit txn) t.retained;
    Some !order
  with Cyclic -> None

let serializable t = t.violations = [] && residue_order t <> None

let equivalent_serial_order t =
  if t.violations <> [] then None
  else Option.map (List.rev_append t.folded_rev) (residue_order t)

let n_retained_intervals t = t.n_retained
let n_retained_txns t = Imap.cardinal t.retained
let n_folded t = t.n_folded
