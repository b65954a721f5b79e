(** Reference implementation of {!Prb_core.Resolver.choose} (the original
    list-based resolver), retained for differential testing only.

    One pass over the cycle lists builds the per-member released-entity
    table; the cut policies restrict every cycle to its eligible, then
    non-immune, members and hand the lists to {!Cutset_ref}, the solver
    the library had before its member-bitmask form; the
    iterative policies refilter the surviving cycles after every pick. *)

type txn = int
type entity = Prb_storage.Store.entity
type cycle = (txn * entity) list

type decision = Prb_core.Resolver.decision = {
  victims : (txn * entity list) list;
  optimal : bool;
  starved_fallback : bool;
}

val choose :
  ?immune:(txn -> bool) ->
  policy:Prb_core.Policy.t ->
  requester:txn ->
  entry_order:(txn -> int) ->
  release_cost:(txn -> entity list -> int) ->
  rng:Prb_util.Rng.t ->
  cycle list ->
  decision
(** Same contract as {!Prb_core.Resolver.choose}. *)
