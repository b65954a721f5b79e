module Iset = Set.Make (Int)

type instance = { cycles : int list list; cost : int -> float }

let total_cost t set = List.fold_left (fun acc v -> acc +. t.cost v) 0.0 set

let is_cut t set =
  let s = Iset.of_list set in
  List.for_all (fun cycle -> List.exists (fun v -> Iset.mem v s) cycle) t.cycles

(* Both solvers run on two transposed mask forms of an instance (DESIGN
   §16): each cycle's candidates, and each candidate's cycles.
   Branch-and-bound asks which cycle the chosen set misses first, one AND
   per cycle; greedy asks how many live cycles each candidate hits, one
   popcount per candidate. Candidate indices are the caller's order, so
   the branch order, the lowest-index tie-break, the float pruning
   epsilons and the node at which the budget trips are exactly those of
   the solver on per-cycle candidate lists. A mask over [n] bits is
   [words n] ints at a base index, 62 bits to a word, which keeps every
   word non-negative for [popcount]. *)
type indexed = {
  n_cycles : int;
  costs : float array;  (* costs.(i): candidate i's cost *)
  cands : int array;  (* cycle c's candidates at c * words (vertices) *)
  cycs : int array;  (* candidate i's cycles at i * words n_cycles *)
}

let bits = 62
let words n = max 1 ((n + bits - 1) / bits)

let set a base i =
  let w = base + (i / bits) in
  a.(w) <- a.(w) lor (1 lsl (i mod bits))

(* Does the mask at [a.(base)] meet the mask [t] of [nw] words? *)
let meets a base t nw =
  let any = ref false in
  for w = 0 to nw - 1 do
    if a.(base + w) land t.(w) <> 0 then any := true
  done;
  !any

let of_cycles ~n_cycles ~first ~member ~tier ~fallback ~cost =
  let n = Array.length tier in
  let nw = words n and cw = words n_cycles in
  (* One pass over the arcs: each cycle's vertices, each vertex's
     cycles. *)
  let cands = Array.make (n_cycles * nw) 0 and cycs = Array.make (n * cw) 0 in
  for k = 0 to n_cycles - 1 do
    for p = first.(k) to first.(k + 1) - 1 do
      let v = member.(p) in
      set cands (k * nw) v;
      set cycs (v * cw) k
    done
  done;
  (* Tiers 0 and 1 and the fallback as vertex masks, and the cycles each
     of the two tiers reaches. *)
  let t0 = Array.make nw 0 and t1 = Array.make nw 0 and fb = Array.make nw 0 in
  let on0 = Array.make cw 0 and on1 = Array.make cw 0 in
  set fb 0 fallback;
  for v = 0 to n - 1 do
    if tier.(v) < 2 then begin
      set (if tier.(v) = 0 then t0 else t1) 0 v;
      let on = if tier.(v) = 0 then on0 else on1 in
      for w = 0 to cw - 1 do
        on.(w) <- on.(w) lor cycs.((v * cw) + w)
      done
    end
  done;
  (* A cycle keeps the lowest tier present on it, else the fallback: one
     AND. *)
  for k = 0 to n_cycles - 1 do
    let t =
      if meets cands (k * nw) t0 nw then t0
      else if meets cands (k * nw) t1 nw then t1
      else fb
    in
    for w = 0 to nw - 1 do
      cands.((k * nw) + w) <- cands.((k * nw) + w) land t.(w)
    done
  done;
  (* A vertex keeps the cycles it is a candidate on, so the two forms
     stay transposes of each other; a candidate's cost is asked once. *)
  let costs = Array.make n 0.0 in
  for v = 0 to n - 1 do
    let candidate = ref false in
    for w = 0 to cw - 1 do
      let keep =
        match tier.(v) with
        | 0 -> -1
        | 1 -> lnot on0.(w)
        | _ -> if v = fallback then lnot (on0.(w) lor on1.(w)) else 0
      in
      let j = (v * cw) + w in
      cycs.(j) <- cycs.(j) land keep;
      if cycs.(j) <> 0 then candidate := true
    done;
    if !candidate then costs.(v) <- cost v
  done;
  { n_cycles; costs; cands; cycs }

(* Bits set in a non-negative word. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x =
    (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
  in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* The set bits of a mask of [nw] words, ascending. *)
let elements a nw =
  let acc = ref [] in
  for i = (nw * bits) - 1 downto 0 do
    if a.(i / bits) land (1 lsl (i mod bits)) <> 0 then acc := i :: !acc
  done;
  !acc

(* Greedy hitting set: take the candidate hitting the most live cycles
   per unit cost until none hits one; a score must be better by 1e-12 to
   replace, so the lowest index wins ties. Greedy stays on the candidates'
   cycle masks: on the cycles' candidate masks a 256-cycle instance costs
   it a pass over every cycle per candidate per pick. *)
let greedy_indexed x =
  let n = Array.length x.costs and cw = words x.n_cycles in
  let alive = Array.make cw 0 and chosen = Array.make (words n) 0 in
  for k = 0 to x.n_cycles - 1 do
    set alive 0 k
  done;
  let rec loop () =
    let best = ref (-1) and best_score = ref 0.0 in
    for i = 0 to n - 1 do
      let hits = ref 0 in
      for w = 0 to cw - 1 do
        hits := !hits + popcount (x.cycs.((i * cw) + w) land alive.(w))
      done;
      if !hits > 0 then begin
        let score = float_of_int !hits /. Float.max x.costs.(i) 1e-9 in
        if !best < 0 || score > !best_score +. 1e-12 then begin
          best := i;
          best_score := score
        end
      end
    done;
    (* [best < 0]: every cycle is hit, or a live one has no candidate *)
    if !best >= 0 then begin
      set chosen 0 !best;
      for w = 0 to cw - 1 do
        alive.(w) <- alive.(w) land lnot x.cycs.((!best * cw) + w)
      done;
      loop ()
    end
  in
  loop ();
  elements chosen (words n)

exception Budget_exhausted

let exact_indexed ?(node_budget = 1_000_000) x =
  (* Branch and bound on the first cycle the chosen set misses: one branch
     per candidate of that cycle, ascending. Upper bound initialised by the
     greedy solution. *)
  let nw = words (Array.length x.costs) in
  let greedy_set = greedy_indexed x in
  let best_set = ref greedy_set in
  let best_cost =
    ref (List.fold_left (fun acc i -> acc +. x.costs.(i)) 0.0 greedy_set)
  in
  let nodes = ref 0 in
  let chosen = Array.make nw 0 in
  let rec first_missed k =
    if k < x.n_cycles && meets x.cands (k * nw) chosen nw then
      first_missed (k + 1)
    else k
  in
  (* The cycles below [from] are hit: the chosen set only grows on the way
     down. *)
  let rec search from chosen_cost =
    incr nodes;
    if !nodes > node_budget then raise Budget_exhausted;
    if chosen_cost < !best_cost -. 1e-12 then begin
      let k = first_missed from in
      if k = x.n_cycles then begin
        best_set := elements chosen nw;
        best_cost := chosen_cost
      end
      else
        for w = 0 to nw - 1 do
          let rest = ref x.cands.((k * nw) + w) in
          while !rest <> 0 do
            let b = !rest land - !rest in
            let i = (w * bits) + popcount (b - 1) in
            chosen.(w) <- chosen.(w) lor b;
            search (k + 1) (chosen_cost +. x.costs.(i));
            chosen.(w) <- chosen.(w) lxor b;
            rest := !rest lxor b
          done
        done
    end
  in
  match search 0 0.0 with
  | () -> Some !best_set
  | exception Budget_exhausted -> None

let rec vert_index (verts : int array) v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if verts.(mid) < v then vert_index verts v (mid + 1) hi
    else vert_index verts v lo mid

(* A vertex-list instance in indexed form: candidates are the distinct
   vertices ascending, all of tier 0. Returns their vertex ids too. *)
let index t =
  let all = List.concat t.cycles in
  let verts = Array.of_list (List.sort_uniq Int.compare all) in
  let n = Array.length verts in
  let first = Array.make (List.length t.cycles + 1) 0 in
  List.iteri (fun k c -> first.(k + 1) <- first.(k) + List.length c) t.cycles;
  let member = Array.of_list (List.map (fun v -> vert_index verts v 0 n) all) in
  ( verts,
    of_cycles ~n_cycles:(List.length t.cycles) ~first ~member
      ~tier:(Array.make n 0) ~fallback:0
      ~cost:(fun i -> t.cost verts.(i)) )

let to_verts verts = List.map (fun i -> verts.(i))

let exact ?node_budget t =
  let verts, x = index t in
  Option.map (to_verts verts) (exact_indexed ?node_budget x)

let greedy t =
  let verts, x = index t in
  to_verts verts (greedy_indexed x)
