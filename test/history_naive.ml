module Lock_mode = Prb_txn.Lock_mode
module History = Prb_history.History

type txn = History.txn
type entity = History.entity
type mode = History.mode

type interval = History.interval = {
  txn : txn;
  entity : entity;
  mode : mode;
  granted_at : int;
  released_at : int;
}

type t = {
  open_intervals : (txn * entity, mode * int) Hashtbl.t;
  pending : (txn, interval list ref) Hashtbl.t;
  mutable committed : interval list;
}

let create () =
  {
    open_intervals = Hashtbl.create 64;
    pending = Hashtbl.create 32;
    committed = [];
  }

let note_grant t ~tick txn entity mode =
  Hashtbl.replace t.open_intervals (txn, entity) (mode, tick)

let pending_of t txn =
  match Hashtbl.find_opt t.pending txn with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.pending txn l;
      l

let note_release t ~tick txn entity =
  match Hashtbl.find_opt t.open_intervals (txn, entity) with
  | None -> ()
  | Some (mode, granted_at) ->
      Hashtbl.remove t.open_intervals (txn, entity);
      let l = pending_of t txn in
      l := { txn; entity; mode; granted_at; released_at = tick } :: !l

let discard t txn entity = Hashtbl.remove t.open_intervals (txn, entity)

let discard_txn t txn =
  Hashtbl.iter
    (fun (tx, e) _ -> if tx = txn then Hashtbl.remove t.open_intervals (tx, e))
    (Hashtbl.copy t.open_intervals);
  Hashtbl.remove t.pending txn

let commit_txn t txn =
  Hashtbl.iter
    (fun (tx, _) _ ->
      if tx = txn then
        invalid_arg "History_naive.commit_txn: transaction still holds a lock")
    t.open_intervals;
  (match Hashtbl.find_opt t.pending txn with
  | Some l -> t.committed <- !l @ t.committed
  | None -> ());
  Hashtbl.remove t.pending txn

let committed t =
  List.sort
    (fun a b ->
      compare (a.granted_at, a.txn, a.entity) (b.granted_at, b.txn, b.entity))
    t.committed

let conflicting a b =
  a.txn <> b.txn
  && String.equal a.entity b.entity
  && not (Lock_mode.compatible a.mode b.mode)

let precedence_graph t =
  let g = Digraph.create () in
  let intervals = committed t in
  let txns = List.sort_uniq compare (List.map (fun i -> i.txn) intervals) in
  List.iter (fun tx -> Digraph.add_vertex g tx) txns;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if conflicting a b && a.released_at <= b.granted_at then
            Digraph.add_edge g a.txn b.txn)
        intervals)
    intervals;
  g

let overlapping_conflicts t =
  let intervals = committed t in
  let overlaps a b = a.granted_at < b.released_at && b.granted_at < a.released_at in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if conflicting a b && a.txn < b.txn && overlaps a b then Some (a, b)
          else None)
        intervals)
    intervals

let serializable t =
  overlapping_conflicts t = [] && not (Digraph.has_cycle (precedence_graph t))

let equivalent_serial_order t =
  if overlapping_conflicts t <> [] then None
  else Digraph.topological_sort (precedence_graph t)
