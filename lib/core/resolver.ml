module Cutset = Prb_graph.Cutset
module Rng = Prb_util.Rng
module Txn_id = Prb_txn.Txn_id
module Entity = Prb_storage.Store.Entity
module Waits_for = Prb_wfg.Waits_for

type txn = Txn_id.t
type entity = Prb_storage.Store.entity
type cycle = (txn * entity) list

type decision = {
  victims : (txn * entity list) list;
  optimal : bool;
  starved_fallback : bool;
}

(* Victim choice runs over the record's member indices (DESIGN §16):
   whatever a policy asks of a member — the entities it releases, its
   eligibility, its immunity, its cost — is worked out once per member,
   never once per arc, and no cycle is rebuilt as a list. Members are
   ascending by transaction id, so member-index order is id order: the
   cut solver's candidates are member indices, and a cycle's candidate
   mask read bit by bit is ascending by id, which fixes branch-and-bound's
   branch order and greedy's lowest-vertex tie-break exactly as the list
   resolver had them. *)

let rec mem_entity (x : entity) = function
  | [] -> false
  | y :: rest -> String.equal x y || mem_entity x rest

(* Each member's released entities: the sorted union of the labels of
   its inbound arcs over every cycle of the record. An arc's label is its
   predecessor's one stored string, so a repeat is usually the very same
   string and the physical test settles it. *)
let released (c : Waits_for.cycles) =
  let raw = Array.make c.n_members [] in
  for p = 0 to c.first.(c.n_cycles) - 1 do
    let m = c.member.(p) and x = c.release.(p) in
    if not (List.memq x raw.(m) || mem_entity x raw.(m)) then
      raw.(m) <- x :: raw.(m)
  done;
  Array.map (List.sort Entity.compare) raw

let decision_of (c : Waits_for.cycles) ~released ~immune ~optimal chosen =
  {
    (* member indices ascending: victims sorted by txn id *)
    victims = List.map (fun m -> (c.members.(m), released.(m))) chosen;
    optimal;
    (* the starvation guard had to be overridden: some cycle offered no
       non-immune victim, so an immune transaction is rolled back anyway
       (deadlocks must break; immunity bends before liveness does) *)
    starved_fallback = List.exists (fun m -> immune.(m)) chosen;
  }

(* Is member [m] among arcs [first .. p]? Scanned from the back: an
   enumerated cycle ends at its requester. *)
let rec on_cycle (c : Waits_for.cycles) m first p =
  p >= first && (c.member.(p) = m || on_cycle c m first (p - 1))

let ascending chosen =
  let acc = ref [] in
  for m = Array.length chosen - 1 downto 0 do
    if chosen.(m) then acc := m :: !acc
  done;
  !acc

let cheapest_cut (c : Waits_for.cycles) ~req ~released ~release_cost
    ~eligible ~immune =
  (* Hitting set over cycles restricted to eligible members. Starvation-
     immune members are dropped first; a cycle with only immune eligible
     members keeps them (immunity bends before liveness — the caller reads
     [starved_fallback] off the decision). A cycle with no eligible member
     at all falls back to the requester (which is on every cycle), so a
     cut always exists. *)
  let tier =
    Array.init c.n_members (fun m ->
        if not (eligible m) then 2 else if immune.(m) then 1 else 0)
  in
  let x =
    Cutset.of_cycles ~n_cycles:c.n_cycles ~first:c.first ~member:c.member
      ~tier ~fallback:req
      ~cost:(fun m -> float_of_int (release_cost c.members.(m) released.(m)))
  in
  match Cutset.exact_indexed x with
  | Some chosen -> (chosen, true)
  | None -> (Cutset.greedy_indexed x, false)

(* Break the cycles in order: the first cycle no pick so far hits gets a
   member by [pick]. A hit cycle stays hit, so one forward pass visits
   the surviving cycles exactly as the list resolver's refiltering did. *)
let pick_in_order (c : Waits_for.cycles) pick =
  let chosen = Array.make c.n_members false in
  for k = 0 to c.n_cycles - 1 do
    let hit = ref false in
    for p = c.first.(k) to c.first.(k + 1) - 1 do
      if chosen.(c.member.(p)) then hit := true
    done;
    if not !hit then chosen.(pick k) <- true
  done;
  ascending chosen

let choose_cycles ?(immune = fun _ -> false) ~policy ~requester ~entry_order
    ~release_cost ~rng (c : Waits_for.cycles) =
  if c.n_cycles = 0 then invalid_arg "Resolver.choose: no cycles";
  let req = Waits_for.member_index c requester in
  for k = 0 to c.n_cycles - 1 do
    if not (on_cycle c req c.first.(k) (c.first.(k + 1) - 1)) then
      invalid_arg "Resolver.choose: requester missing from a cycle"
  done;
  let released = released c in
  let immune = Array.init c.n_members (fun m -> immune c.members.(m)) in
  (* The iterative policies pick among a cycle's non-immune members when
     any exist, else the whole cycle (same override rule as the cut). *)
  let pickable k =
    let any = ref false in
    for p = c.first.(k) to c.first.(k + 1) - 1 do
      if not immune.(c.member.(p)) then any := true
    done;
    fun m -> (not !any) || not immune.(m)
  in
  let decide ~optimal chosen =
    decision_of c ~released ~immune ~optimal chosen
  in
  match policy with
  | Policy.Requester -> decide ~optimal:false [ req ]
  | Policy.Min_cost ->
      let chosen, optimal =
        cheapest_cut c ~req ~released ~release_cost
          ~eligible:(fun _ -> true)
          ~immune
      in
      decide ~optimal chosen
  | Policy.Ordered_min_cost ->
      (* Theorem 2 with entry time as the partial order: a conflict may
         only preempt transactions that entered strictly later than the
         requester (so the oldest live transaction is never preempted and
         must eventually commit); a cycle whose members are all older
         falls back to rolling the requester itself. *)
      let requester_order = entry_order requester in
      let chosen, optimal =
        cheapest_cut c ~req ~released ~release_cost ~immune
          ~eligible:(fun m -> entry_order c.members.(m) > requester_order)
      in
      decide ~optimal chosen
  | Policy.Youngest ->
      let order = Array.init c.n_members (fun m -> entry_order c.members.(m)) in
      let pick k =
        let ok = pickable k in
        let first = c.first.(k) and stop = c.first.(k + 1) in
        (* seeded with the requester (on every cycle) when pickable, else
           the first pickable member; later members replace it only when
           strictly younger *)
        let best = ref req in
        if not (ok req) then
          for p = stop - 1 downto first do
            if ok c.member.(p) then best := c.member.(p)
          done;
        for p = first to stop - 1 do
          let m = c.member.(p) in
          if ok m && order.(m) > order.(!best) then best := m
        done;
        !best
      in
      decide ~optimal:false (pick_in_order c pick)
  | Policy.Random_victim ->
      let pick k =
        let ok = pickable k in
        let first = c.first.(k) and stop = c.first.(k + 1) in
        let n = ref 0 in
        for p = first to stop - 1 do
          if ok c.member.(p) then incr n
        done;
        (* [Rng.pick] over the pickable arcs in cycle order *)
        let target = Rng.int rng !n in
        let found = ref (-1) and i = ref 0 in
        for p = first to stop - 1 do
          let m = c.member.(p) in
          if ok m then begin
            if !i = target then found := m;
            incr i
          end
        done;
        !found
      in
      decide ~optimal:false (pick_in_order c pick)

(* Branch-and-bound over [k] candidates visits at most the ordered
   selections of distinct candidates, floor(e * k!) nodes: 986,410 for
   nine, inside its 1,000,000-node budget, so on up to nine candidates it
   is exact and never falls back to greedy. *)
let exact_candidates = 9

let choose_flow ?(immune = fun _ -> false) ~policy ~entry_order ~release_cost
    flow (c : Waits_for.component) =
  let cut, ordered =
    match policy with
    | Policy.Min_cost -> (true, false)
    | Policy.Ordered_min_cost -> (true, true)
    | Policy.Requester | Policy.Youngest | Policy.Random_victim -> (false, false)
  in
  if not (cut && c.complete && c.n_cycles > 0) then None
  else begin
    let n = c.n_members in
    (* the tiers of [cheapest_cut] *)
    let requester_order = if ordered then entry_order c.members.(c.root) else 0 in
    let tier =
      Array.init n (fun m ->
          let v = c.members.(m) in
          if ordered && entry_order v <= requester_order then 2
          else if immune v then 1
          else 0)
    in
    (* A member's released entities are the labels of its in-edges in the
       component, which are its in-arcs on the cycles through the root:
       with the component acyclic without the root, every edge of it lies
       on one. *)
    let released = Array.make n [] in
    let cost m =
      let raw = ref [] in
      for u = 0 to n - 1 do
        for p = c.first.(u) to c.first.(u + 1) - 1 do
          let x = c.labels.(u) in
          if c.heads.(p) = m && not (List.memq x !raw || mem_entity x !raw)
          then raw := x :: !raw
        done
      done;
      released.(m) <- List.sort Entity.compare !raw;
      release_cost c.members.(m) released.(m)
    in
    match
      Prb_graph.Flow_cut.solve flow ~max_candidates:exact_candidates ~n
        ~first:c.first ~heads:c.heads ~root:c.root ~tier ~cost ()
    with
    | Prb_graph.Flow_cut.Unique chosen ->
        Some
          {
            victims = List.map (fun m -> (c.members.(m), released.(m))) chosen;
            optimal = true;
            starved_fallback = List.exists (fun m -> immune c.members.(m)) chosen;
          }
    | Prb_graph.Flow_cut.Tied _ | Prb_graph.Flow_cut.Over _ -> None
  end

let choose ?immune ~policy ~requester ~entry_order ~release_cost ~rng cycles =
  choose_cycles ?immune ~policy ~requester ~entry_order ~release_cost ~rng
    (Waits_for.cycles_of_arcs cycles)
