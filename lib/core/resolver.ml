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

(* [x] into the ascending list [l], which does not hold it. *)
let rec insert (x : entity) = function
  | y :: rest when Entity.compare y x < 0 -> y :: insert x rest
  | l -> x :: l

(* Each member's released entities: the ascending union of the labels of
   its inbound arcs. An arc's label is its predecessor's one stored
   string, so a repeat is usually the very same string and the physical
   test settles it. [note raw m x] adds label [x] to member [m]'s. *)
let note raw m x =
  if not (List.memq x raw.(m) || mem_entity x raw.(m)) then
    raw.(m) <- insert x raw.(m)

(* Over every cycle of a record. *)
let released (c : Waits_for.cycles) =
  let raw = Array.make c.n_members [] in
  for p = 0 to c.first.(c.n_cycles) - 1 do
    note raw c.member.(p) c.release.(p)
  done;
  raw

(* Over a component's edges, which carry their tail's wait label: with the
   component acyclic without its root, every edge lies on a cycle through
   the root, so these are the lists the enumerated record would give. *)
let component_released (c : Waits_for.component) =
  let raw = Array.make c.n_members [] in
  for u = 0 to c.n_members - 1 do
    for p = c.first.(u) to c.first.(u + 1) - 1 do
      note raw c.heads.(p) c.labels.(u)
    done
  done;
  raw

(* [immune m] for member index [m]. *)
let decision_of members ~released ~immune ~optimal chosen =
  {
    (* member indices ascending: victims sorted by txn id *)
    victims = List.map (fun m -> (members.(m), released.(m))) chosen;
    optimal;
    (* the starvation guard had to be overridden: some cycle offered no
       non-immune victim, so an immune transaction is rolled back anyway
       (deadlocks must break; immunity bends before liveness does) *)
    starved_fallback = List.exists immune chosen;
  }

(* Each of the [n] members' tier in the cut ({!Cutset.of_cycles}): 2 when
   the policy may not preempt it, 1 when the starvation guard shields it
   ([immune m] for member index [m]), else 0. [Ordered_min_cost] is
   Theorem 2 with entry time as the partial order: a conflict may only
   preempt transactions that entered strictly later than the requester
   (so the oldest live transaction is never preempted and must eventually
   commit). *)
let tiers ~policy ~entry_order ~requester members n ~immune =
  let eligible =
    match policy with
    | Policy.Ordered_min_cost ->
        let requester_order = entry_order requester in
        fun v -> entry_order v > requester_order
    | Policy.Min_cost | Policy.Requester | Policy.Youngest
    | Policy.Random_victim ->
        fun _ -> true
  in
  Array.init n (fun m ->
      if not (eligible members.(m)) then 2 else if immune m then 1 else 0)

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

(* Hitting set over the cycles by tier. Tier-2 members are never
   candidates; tier-1 (immune) ones only on a cycle with no tier-0 member
   (immunity bends before liveness — the caller reads [starved_fallback]
   off the decision). A cycle with no member below tier 2 falls back to
   the requester (which is on every cycle), so a cut always exists. *)
let cheapest_cut (c : Waits_for.cycles) ~req ~released ~release_cost ~tier =
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
    decision_of c.members ~released ~immune:(Array.get immune) ~optimal
      chosen
  in
  match policy with
  | Policy.Requester -> decide ~optimal:false [ req ]
  | Policy.Min_cost | Policy.Ordered_min_cost ->
      let tier =
        tiers ~policy ~entry_order ~requester c.members c.n_members
          ~immune:(Array.get immune)
      in
      let chosen, optimal =
        cheapest_cut c ~req ~released ~release_cost ~tier
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
  match policy with
  | Policy.Requester | Policy.Youngest | Policy.Random_victim -> None
  | Policy.Min_cost | Policy.Ordered_min_cost -> (
      if not (c.complete && c.n_cycles > 0) then None
      else
        let n = c.n_members in
        let immune m = immune c.members.(m) in
        let tier =
          tiers ~policy ~entry_order ~requester:c.members.(c.root) c.members n
            ~immune
        in
        (* built on the first cost query, so an [Over] verdict builds none *)
        let released = lazy (component_released c) in
        let cost m = release_cost c.members.(m) (Lazy.force released).(m) in
        match
          Prb_graph.Flow_cut.solve flow ~max_candidates:exact_candidates ~n
            ~first:c.first ~heads:c.heads ~root:c.root ~tier ~cost ()
        with
        | Prb_graph.Flow_cut.Unique chosen ->
            Some
              (decision_of c.members ~released:(Lazy.force released) ~immune
                 ~optimal:true chosen)
        | Prb_graph.Flow_cut.Tied _ | Prb_graph.Flow_cut.Over _ -> None)

let choose ?immune ~policy ~requester ~entry_order ~release_cost ~rng cycles =
  choose_cycles ?immune ~policy ~requester ~entry_order ~release_cost ~rng
    (Waits_for.cycles_of_arcs cycles)
