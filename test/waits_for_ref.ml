(* Reference implementation of [Waits_for], retained verbatim from the
   Digraph-backed version so the qcheck differential properties in
   test_wfg can assert the dense adjacency-array rewrite is
   observationally identical. Not used by any engine. *)

module Txn_id = Prb_txn.Txn_id

type txn = Txn_id.t
type entity = Prb_storage.Store.entity

type t = {
  graph : Digraph.t;
  labels : (txn * txn, entity) Hashtbl.t; (* (waiter, holder) -> entity *)
}

let create () = { graph = Digraph.create (); labels = Hashtbl.create 64 }

let add_txn t txn = Digraph.add_vertex t.graph txn

let remove_txn t txn =
  List.iter
    (fun h -> Hashtbl.remove t.labels (txn, h))
    (Digraph.succ t.graph txn);
  List.iter
    (fun w -> Hashtbl.remove t.labels (w, txn))
    (Digraph.pred t.graph txn);
  Digraph.remove_vertex t.graph txn

let clear_wait t txn =
  List.iter
    (fun h ->
      Hashtbl.remove t.labels (txn, h);
      Digraph.remove_edge t.graph txn h)
    (Digraph.succ t.graph txn)

let set_wait t ~waiter ~holders entity =
  if List.exists (Txn_id.equal waiter) holders then
    invalid_arg "Waits_for.set_wait: waiter among holders";
  clear_wait t waiter;
  List.iter
    (fun h ->
      Digraph.add_edge t.graph waiter h;
      Hashtbl.replace t.labels (waiter, h) entity)
    holders

let waits t txn =
  List.map
    (fun h -> (h, Hashtbl.find t.labels (txn, h)))
    (Digraph.succ t.graph txn)

let waiting_on t txn =
  List.map
    (fun w -> (w, Hashtbl.find t.labels (w, txn)))
    (Digraph.pred t.graph txn)

let is_blocked t txn = Digraph.out_degree t.graph txn > 0

let txns t = Digraph.vertices t.graph

let edges t =
  List.map
    (fun (w, h) -> (w, h, Hashtbl.find t.labels (w, h)))
    (Digraph.edges t.graph)

let would_deadlock t ~waiter ~holders =
  List.exists (Txn_id.equal waiter) holders
  || Digraph.path_exists_from_any t.graph holders waiter

let cycles_through ?limit t txn = Digraph.cycles_through ?limit t.graph txn

let on_cycle_from t seeds = Digraph.cyclic_vertices_from t.graph seeds

let is_exclusive_forest t = Digraph.is_forest_inverted t.graph

let pp ppf t =
  let es = edges t in
  if es = [] then Fmt.string ppf "(no waits)"
  else
    Fmt.pf ppf "@[<v>%a@]"
      Fmt.(
        list ~sep:cut (fun ppf (w, h, e) -> pf ppf "T%d -%s-> T%d" w e h))
      es
