(* Reference implementation of [Prb_graph.Cutset]: the solver on per-cycle
   candidate lists, prepared into per-candidate cycle bitmasks, retained
   verbatim so the qcheck property "mask solver = reference" in
   test_graph can assert that the member-bitmask solver (DESIGN.md
   Section 16) decides identically, and so that [Resolver_ref] judges
   victim choice against a solver other than the one it tests. Not used
   by any engine. *)

module Iset = Set.Make (Int)

type instance = { cycles : int list list; cost : int -> float }

let total_cost t set = List.fold_left (fun acc v -> acc +. t.cost v) 0.0 set

let is_cut t set =
  let s = Iset.of_list set in
  List.for_all (fun cycle -> List.exists (fun v -> Iset.mem v s) cycle) t.cycles

type indexed = { costs : float array; first : int array; cands : int array }

(* Both solvers run on a prepared form of an indexed instance: candidates
   are indices [0 .. n-1], each with its cost evaluated once by the
   caller (the resolver's cost walks rollback targets per call), and
   per-candidate bitmasks over the cycle list make "which cycles does
   this set hit" word-parallel instead of a list scan per (vertex,
   cycle) pair. Search order, tie breaks and the float pruning epsilons
   are exactly the original list/Iset solver's, so every decision —
   including which of several optima is found first, and the node at
   which the budget trips — is unchanged. *)
type prep = {
  costs : float array;  (* costs.(i): candidate i's cost *)
  ncyc : int;
  nwords : int;  (* words of 63 bits covering the cycle list *)
  vmask : int array array;  (* vmask.(i): cycles containing candidate i *)
  vert_cycs : int array array;  (* per candidate: cycle indices, ascending *)
  first : int array;  (* cycle c's candidates: cands.(first.(c) ..) *)
  cands : int array;  (* per cycle: candidate indices, ascending *)
  full : int array;  (* mask with one bit per cycle *)
}

let rec popcount_ x acc =
  if x = 0 then acc else popcount_ (x land (x - 1)) (acc + 1)

let popcount x = popcount_ x 0

let rec vert_index_ (verts : int array) v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if verts.(mid) < v then vert_index_ verts v (mid + 1) hi
    else vert_index_ verts v lo mid

(* Shift-insert [v] into the sorted run [a.(lo .. hi-1)]; returns the
   run's new end. The candidate sets here are tiny (bounded by the
   multiprogramming level) while the cycle stream is long, so binary
   search plus an occasional shift beats a comparison sort of the whole
   stream. *)
let sorted_insert_distinct (a : int array) lo hi v =
  let p = vert_index_ a v lo hi in
  if p < hi && a.(p) = v then hi
  else begin
    Array.blit a p a (p + 1) (hi - p);
    a.(p) <- v;
    hi + 1
  end

let prepare ({ costs; first; cands } : indexed) =
  let ncand = Array.length costs and ncyc = Array.length first - 1 in
  let nwords = max 1 ((ncyc + 62) / 63) in
  let vmask = Array.init ncand (fun _ -> Array.make nwords 0) in
  let hits = Array.make ncand 0 in
  for c = 0 to ncyc - 1 do
    for j = first.(c) to first.(c + 1) - 1 do
      let i = cands.(j) in
      vmask.(i).(c / 63) <- vmask.(i).(c / 63) lor (1 lsl (c mod 63));
      hits.(i) <- hits.(i) + 1
    done
  done;
  let vert_cycs = Array.map (fun n -> Array.make n 0) hits in
  Array.fill hits 0 ncand 0;
  for c = 0 to ncyc - 1 do
    for j = first.(c) to first.(c + 1) - 1 do
      let i = cands.(j) in
      vert_cycs.(i).(hits.(i)) <- c;
      hits.(i) <- hits.(i) + 1
    done
  done;
  let full = Array.make nwords 0 in
  for c = 0 to ncyc - 1 do
    full.(c / 63) <- full.(c / 63) lor (1 lsl (c mod 63))
  done;
  { costs; ncyc; nwords; vmask; vert_cycs; first; cands; full }

(* A vertex-list instance in indexed form: candidate vertices deduped
   ascending, each cost evaluated once, each cycle as its sorted
   distinct candidate indices. Returns the candidates' vertex ids too. *)
let index t =
  let total = List.fold_left (fun acc c -> acc + List.length c) 0 t.cycles in
  let verts = Array.make (max 1 total) 0 in
  let ncand =
    List.fold_left
      (List.fold_left (fun n v -> sorted_insert_distinct verts 0 n v))
      0 t.cycles
  in
  let verts = Array.sub verts 0 ncand in
  let first = Array.make (List.length t.cycles + 1) 0 in
  let cands = Array.make (max 1 total) 0 in
  List.iteri
    (fun c cycle ->
      first.(c + 1) <-
        List.fold_left
          (fun hi v ->
            sorted_insert_distinct cands first.(c) hi
              (vert_index_ verts v 0 ncand))
          first.(c) cycle)
    t.cycles;
  (verts, ({ costs = Array.map t.cost verts; first; cands } : indexed))

(* Cycles hit by candidate [i] among the still-alive cycles. *)
let hits_alive p covered i =
  let n = ref 0 in
  for w = 0 to p.nwords - 1 do
    n := !n + popcount (p.vmask.(i).(w) land lnot covered.(w))
  done;
  !n

let all_covered p covered =
  let ok = ref true in
  for w = 0 to p.nwords - 1 do
    if covered.(w) land p.full.(w) <> p.full.(w) then ok := false
  done;
  !ok

(* Index of the first cycle not hit by the chosen set, or [-1]. The cycle
   list order is the branching order of the original solver, so it must
   be the lowest cycle index, not just any uncovered one. *)
let first_surviving p covered =
  let r = ref (-1) in
  let w = ref 0 in
  while !r < 0 && !w < p.nwords do
    let miss = p.full.(!w) land lnot covered.(!w) in
    if miss <> 0 then begin
      let bit = ref 0 in
      while miss land (1 lsl !bit) = 0 do
        incr bit
      done;
      r := (!w * 63) + !bit
    end;
    incr w
  done;
  !r

let chosen_elements chosen =
  let acc = ref [] in
  for i = Array.length chosen - 1 downto 0 do
    if chosen.(i) then acc := i :: !acc
  done;
  !acc

(* Greedy hitting set over the prepared instance; identical pick sequence
   to the classic fold: candidates of the alive cycles ascending, a
   strictly-better-by-1e-12 score replaces, so the lowest vertex wins
   ties. *)
let greedy_prepared p =
  let ncand = Array.length p.costs in
  let chosen = Array.make ncand false in
  let covered = Array.make p.nwords 0 in
  let rec loop () =
    if not (all_covered p covered) then begin
      let best = ref (-1) in
      let best_score = ref 0.0 in
      for i = 0 to ncand - 1 do
        let hits = hits_alive p covered i in
        if hits > 0 then begin
          let score = float_of_int hits /. Float.max p.costs.(i) 1e-9 in
          if !best < 0 || score > !best_score +. 1e-12 then begin
            best := i;
            best_score := score
          end
        end
      done;
      (* [best < 0] would mean an alive cycle with no members: impossible
         (cycles are non-empty vertex lists). *)
      if !best >= 0 then begin
        chosen.(!best) <- true;
        for w = 0 to p.nwords - 1 do
          covered.(w) <- covered.(w) lor p.vmask.(!best).(w)
        done;
        loop ()
      end
    end
  in
  loop ();
  chosen_elements chosen

let greedy_indexed x = greedy_prepared (prepare x)

exception Budget_exhausted

let exact_indexed ?(node_budget = 1_000_000) x =
  (* Branch and bound on the first surviving cycle: one branch per vertex of
     that cycle. Upper bound initialised by the greedy solution. *)
  let p = prepare x in
  let ncand = Array.length p.costs in
  let greedy_set = greedy_prepared p in
  let best_set = ref greedy_set in
  let best_cost =
    ref (List.fold_left (fun acc i -> acc +. p.costs.(i)) 0.0 greedy_set)
  in
  let nodes = ref 0 in
  let chosen = Array.make ncand false in
  let covered = Array.make p.nwords 0 in
  (* Per-cycle hit counts back the covered bitmap out on backtrack: a
     cycle's bit clears only when its last chosen member leaves. *)
  let hit_count = Array.make (max 1 p.ncyc) 0 in
  let add i =
    chosen.(i) <- true;
    Array.iter
      (fun c ->
        hit_count.(c) <- hit_count.(c) + 1;
        if hit_count.(c) = 1 then
          covered.(c / 63) <- covered.(c / 63) lor (1 lsl (c mod 63)))
      p.vert_cycs.(i)
  in
  let remove i =
    chosen.(i) <- false;
    Array.iter
      (fun c ->
        hit_count.(c) <- hit_count.(c) - 1;
        if hit_count.(c) = 0 then
          covered.(c / 63) <- covered.(c / 63) land lnot (1 lsl (c mod 63)))
      p.vert_cycs.(i)
  in
  let rec search chosen_cost =
    incr nodes;
    if !nodes > node_budget then raise Budget_exhausted;
    if chosen_cost < !best_cost -. 1e-12 then begin
      match first_surviving p covered with
      | -1 ->
          best_set := chosen_elements chosen;
          best_cost := chosen_cost
      | cyc ->
          for j = p.first.(cyc) to p.first.(cyc + 1) - 1 do
            let i = p.cands.(j) in
            if not chosen.(i) then begin
              add i;
              search (chosen_cost +. p.costs.(i));
              remove i
            end
          done
    end
  in
  match search 0.0 with
  | () -> Some !best_set
  | exception Budget_exhausted -> None

let to_verts verts = List.map (fun i -> verts.(i))

let exact ?node_budget t =
  let verts, x = index t in
  Option.map (to_verts verts) (exact_indexed ?node_budget x)

let greedy t =
  let verts, x = index t in
  to_verts verts (greedy_indexed x)
