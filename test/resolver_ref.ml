(* Reference implementation of [Resolver.choose], retained verbatim from
   the list-based resolver so the qcheck differential property in
   test_resolver can assert that victim choice over flat cycle records
   (DESIGN.md Section 16) decides identically. Not used by any engine. *)

module Cutset = Cutset_ref
module Rng = Prb_util.Rng
module Txn_id = Prb_txn.Txn_id
module Entity = Prb_storage.Store.Entity
module Policy = Prb_core.Policy

type txn = Txn_id.t
type entity = Prb_storage.Store.entity
type cycle = (txn * entity) list
type decision = Prb_core.Resolver.decision = {
  victims : (txn * entity list) list;
  optimal : bool;
  starved_fallback : bool;
}

(* One pass over the cycles builds the per-member released-entity table
   that both the cost function and the final decision read; entities are
   sorted and deduped once per member, not once per query. The cost
   function is consulted once per candidate per resolution (the cut
   solver memoises it), so with up to [cycle_limit] cycles of up to MPL
   members this table is what keeps victim selection linear in the cycle
   input instead of quadratic. The per-member entity set is exactly what
   [concat_map] + [sort_uniq] over the cycle list produced, so decisions
   are unchanged. *)
let rec member_slot_ (a : int array) v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) < v then member_slot_ a v (mid + 1) hi
    else member_slot_ a v lo mid

let needed_table cycles =
  (* The distinct members of a resolution's cycles are the blocked
     transactions of one strongly connected component — bounded by the
     multiprogramming level even when the cycle list runs to the
     enumeration limit — so a sorted array with binary search beats
     hashing the member id once per (member, entity) pair of a long
     cycle stream. *)
  let members = ref (Array.make 16 0) in
  let raw : entity list array ref = ref (Array.make 16 []) in
  let n = ref 0 in
  List.iter
    (fun cycle ->
      List.iter
        (fun ((m : int), e) ->
          let p = member_slot_ !members m 0 !n in
          if p < !n && !members.(p) = m then !raw.(p) <- e :: !raw.(p)
          else begin
            if !n = Array.length !members then begin
              let nm = Array.make (2 * !n) 0 and nr = Array.make (2 * !n) [] in
              Array.blit !members 0 nm 0 !n;
              Array.blit !raw 0 nr 0 !n;
              members := nm;
              raw := nr
            end;
            Array.blit !members p !members (p + 1) (!n - p);
            Array.blit !raw p !raw (p + 1) (!n - p);
            !members.(p) <- m;
            !raw.(p) <- [ e ];
            incr n
          end)
        cycle)
    cycles;
  let members = !members and raw = !raw and n = !n in
  let memo : entity list option array = Array.make (max 1 n) None in
  fun v ->
    let p = member_slot_ members v 0 n in
    if p < n && members.(p) = v then
      match memo.(p) with
      | Some es -> es
      | None ->
          let es = List.sort_uniq Entity.compare raw.(p) in
          memo.(p) <- Some es;
          es
    else []

let decision_of ~needed ~optimal ~immune chosen =
  {
    victims =
      (* victims are pairwise-distinct transactions *)
      List.map (fun v -> (v, needed v)) chosen
      |> List.sort (fun (a, _) (b, _) -> Txn_id.compare a b);
    optimal;
    (* the starvation guard had to be overridden: some cycle offered no
       non-immune victim, so an immune transaction is rolled back anyway
       (deadlocks must break; immunity bends before liveness does) *)
    starved_fallback = List.exists immune chosen;
  }

(* Iteratively break surviving cycles, picking a member of the first
   surviving cycle by [pick]. *)
let iterative_pick cycles pick =
  let rec loop chosen =
    let surviving =
      List.filter
        (fun cycle ->
          not
            (List.exists
               (fun (m, _) -> List.exists (Txn_id.equal m) chosen)
               cycle))
        cycles
    in
    match surviving with
    | [] -> List.rev chosen
    | cycle :: _ -> loop (pick cycle :: chosen)
  in
  loop []

let min_cost_cut ~requester cycles ~needed ~release_cost ~eligible ~immune =
  (* Hitting set over cycles restricted to eligible members. Starvation-
     immune members are dropped first; a cycle with only immune eligible
     members keeps them (immunity bends before liveness — the caller reads
     [starved_fallback] off the decision). A cycle with no eligible member
     at all falls back to the requester (which is on every cycle), so a
     cut always exists. *)
  let restricted =
    List.map
      (fun cycle ->
        match
          List.filter_map
            (fun (m, _) ->
              if eligible m && not (immune m) then Some m else None)
            cycle
        with
        | _ :: _ as kept -> kept
        | [] -> (
            match
              List.filter_map
                (fun (m, _) -> if eligible m then Some m else None)
                cycle
            with
            | [] ->
                List.filter_map
                  (fun (m, _) ->
                    if Txn_id.equal m requester then Some m else None)
                  cycle
            | kept -> kept))
      cycles
  in
  let instance =
    {
      Cutset.cycles = restricted;
      cost = (fun v -> float_of_int (release_cost v (needed v)));
    }
  in
  match Cutset.exact instance with
  | Some chosen -> (chosen, true)
  | None -> (Cutset.greedy instance, false)

let choose ?(immune = fun _ -> false) ~policy ~requester ~entry_order
    ~release_cost ~rng cycles =
  if cycles = [] then invalid_arg "Resolver.choose: no cycles";
  List.iter
    (fun cycle ->
      if not (List.exists (fun (m, _) -> Txn_id.equal m requester) cycle) then
        invalid_arg "Resolver.choose: requester missing from a cycle")
    cycles;
  let needed = needed_table cycles in
  (* The iterative policies pick among a cycle's non-immune members when
     any exist, else the whole cycle (same override rule as the cut). *)
  let pickable cycle =
    match List.filter (fun (m, _) -> not (immune m)) cycle with
    | [] -> cycle
    | kept -> kept
  in
  match policy with
  | Policy.Requester ->
      decision_of ~needed ~optimal:false ~immune [ requester ]
  | Policy.Min_cost ->
      let chosen, optimal =
        min_cost_cut ~requester cycles ~needed ~release_cost
          ~eligible:(fun _ -> true)
          ~immune
      in
      decision_of ~needed ~optimal ~immune chosen
  | Policy.Ordered_min_cost ->
      (* Theorem 2 with entry time as the partial order: a conflict may
         only preempt transactions that entered strictly later than the
         requester (so the oldest live transaction is never preempted and
         must eventually commit); a cycle whose members are all older
         falls back to rolling the requester itself. *)
      let requester_order = entry_order requester in
      let eligible v = entry_order v > requester_order in
      let chosen, optimal =
        min_cost_cut ~requester cycles ~needed ~release_cost ~eligible ~immune
      in
      decision_of ~needed ~optimal ~immune chosen
  | Policy.Youngest ->
      let pick cycle =
        let candidates = pickable cycle in
        let seed =
          if List.exists (fun (m, _) -> Txn_id.equal m requester) candidates
          then (requester, entry_order requester)
          else
            match candidates with
            | (m, _) :: _ -> (m, entry_order m)
            | [] -> (requester, entry_order requester)
        in
        fst
          (List.fold_left
             (fun ((_, best) as acc) (m, e) ->
               if entry_order m > best then (m, entry_order m)
               else (ignore e; acc))
             seed candidates)
      in
      decision_of ~needed ~optimal:false ~immune (iterative_pick cycles pick)
  | Policy.Random_victim ->
      let pick cycle = fst (Rng.pick rng (Array.of_list (pickable cycle))) in
      decision_of ~needed ~optimal:false ~immune (iterative_pick cycles pick)
