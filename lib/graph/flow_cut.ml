(* Class [k] holds the cycles whose lowest tier is [k] (for [k = 2], every
   tier of 2 and above), so it keeps the vertices of tier [k] and above:
   the graph [G_k]. Its candidates are the non-root vertices of tier
   [k < 2] on a cycle of [G_k], and the root when [k] is its own tier and
   [G_k] has a cycle. [G_0] is the whole graph, every vertex of which is
   on a cycle; above it they are plain reachability from the root in
   [G_k], forward and backward, since with the graph acyclic without the
   root a path to a vertex and a path back from it make a simple cycle.

   Class 2 has no candidate but the root, which its cycles force. Class
   [k < 2] is a cut on a network: each kept vertex [v] has a copy per
   layer — layer 0 until the path has entered a vertex of tier [k],
   layer 1 after — and a non-root vertex of tier [k] exists only in
   layer 1, split into an in-node and an out-node joined by an arc of its
   cost; any other copy is one node that passes flow freely. The source
   is the root's layer-0 out-node (layer 1 when the root's own tier is
   [k], since its cycles are then all of the class), the sink its layer-1
   in-node, so an s–t path is a cycle of the class and an s–t cut a set
   of candidates meeting all of them. When the root is a candidate of the
   class too, the cut is either the root alone or the best cut without
   it. When no cycle of [G_k] lacks a vertex of tier [k], one layer
   does. *)

type verdict = Unique of int list | Tied of int | Over of int

type t = {
  mutable n : int;
  (* per vertex *)
  mutable rfirst : int array; (* the arcs into [v], as tails: reversed CSR *)
  mutable rtail : int array;
  mutable vseen : int array; (* stamps of the candidate searches *)
  mutable vback : int array;
  mutable cut_arc : int array; (* its in -> out arc, if split *)
  mutable cls : int array; (* the class it is a candidate in, or -1 *)
  mutable cost : int array;
  mutable pick : bool array;
  cyclic : bool array; (* per class [k]: has [G_k] a cycle? *)
  count : int array; (* per class: its candidates *)
  (* per node of the current class's network, four per vertex: node
     (v, layer, out) *)
  mutable adj : int array; (* first arc out of the node, -1 if none *)
  mutable seen : int array; (* the forward search's stamp *)
  mutable back : int array; (* the backward search's stamp *)
  mutable via : int array; (* the arc the forward search entered by *)
  mutable queue : int array;
  mutable stamp : int;
  (* arcs in twin pairs [a], [a lxor 1]; [cap] is the residual capacity *)
  mutable dst : int array;
  mutable cap : int array;
  mutable next : int array;
  mutable n_arcs : int;
}

let create () =
  {
    n = 0;
    rfirst = [||];
    rtail = [||];
    vseen = [||];
    vback = [||];
    cut_arc = [||];
    cls = [||];
    cost = [||];
    pick = [||];
    cyclic = Array.make 3 false;
    count = Array.make 3 0;
    adj = [||];
    seen = [||];
    back = [||];
    via = [||];
    queue = [||];
    stamp = 0;
    dst = [||];
    cap = [||];
    next = [||];
    n_arcs = 0;
  }

let inf = max_int / 4

let grow a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let tier_of (tier : int array) v =
  let t = tier.(v) in
  if t < 2 then t else 2

(* Room for [n] vertices. *)
let reset x n =
  x.n <- n;
  if n + 1 > Array.length x.rfirst then begin
    let cap = max (n + 1) (2 * Array.length x.rfirst) in
    x.rfirst <- grow x.rfirst cap 0;
    x.vseen <- grow x.vseen cap 0;
    x.vback <- grow x.vback cap 0;
    x.cut_arc <- grow x.cut_arc cap 0;
    x.cls <- grow x.cls cap 0;
    x.cost <- grow x.cost cap 0;
    x.pick <- grow x.pick cap false;
    let nodes = 4 * cap in
    x.adj <- grow x.adj nodes 0;
    x.seen <- grow x.seen nodes 0;
    x.back <- grow x.back nodes 0;
    x.via <- grow x.via nodes 0;
    x.queue <- grow x.queue nodes 0
  end;
  for v = 0 to n - 1 do
    x.cut_arc.(v) <- -1;
    x.cls.(v) <- -1;
    x.pick.(v) <- false
  done

(* The reversed arcs of [first]/[heads]: each vertex's tails in place,
   its start pointer moving up to the next vertex's start, then every
   start shifted back by one. *)
let reverse x ~(first : int array) ~(heads : int array) =
  let n = x.n and m = first.(x.n) in
  if m > Array.length x.rtail then
    x.rtail <- grow x.rtail (max m (2 * Array.length x.rtail)) 0;
  Array.fill x.rfirst 0 (n + 1) 0;
  for p = 0 to m - 1 do
    let w = heads.(p) in
    x.rfirst.(w + 1) <- x.rfirst.(w + 1) + 1
  done;
  for v = 1 to n do
    x.rfirst.(v) <- x.rfirst.(v) + x.rfirst.(v - 1)
  done;
  for u = 0 to n - 1 do
    for p = first.(u) to first.(u + 1) - 1 do
      let w = heads.(p) in
      x.rtail.(x.rfirst.(w)) <- u;
      x.rfirst.(w) <- x.rfirst.(w) + 1
    done
  done;
  for v = n downto 1 do
    x.rfirst.(v) <- x.rfirst.(v - 1)
  done;
  x.rfirst.(0) <- 0

(* --- Candidates ---------------------------------------------------- *)

(* Does a non-root vertex of tier [k] exist? Otherwise class [k < 2] has
   no cycle. *)
let rec has_tier (tier : int array) root k v =
  v >= 0 && ((v <> root && tier_of tier v = k) || has_tier tier root k (v - 1))

(* Search [G_k] from the root along [first]/[heads] (forward) or
   [rfirst]/[rtail] (backward), marking [mark] with [st]. The root is
   marked only when reached again, that is when [G_k] has a cycle. *)
let search x (mark : int array) st (first : int array) (heads : int array)
    ~root ~tier k =
  x.queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = x.queue.(!head) in
    incr head;
    for p = first.(u) to first.(u + 1) - 1 do
      let w = heads.(p) in
      if mark.(w) <> st && tier_of tier w >= k then begin
        mark.(w) <- st;
        if w <> root then begin
          x.queue.(!tail) <- w;
          incr tail
        end
      end
    done
  done

(* Mark class [k]'s candidates in [cls] and record whether [G_k] has a
   cycle; returns how many candidates. *)
let candidates x ~first ~heads ~root ~tier k =
  let count = ref 0 in
  if k = 0 then begin
    x.cyclic.(0) <- x.n > 1;
    for v = 0 to x.n - 1 do
      if tier_of tier v = 0 && x.n > 1 then begin
        x.cls.(v) <- 0;
        incr count
      end
    done
  end
  else begin
    x.stamp <- x.stamp + 1;
    let st = x.stamp in
    search x x.vseen st first heads ~root ~tier k;
    x.cyclic.(k) <- x.vseen.(root) = st;
    if k = 1 && has_tier tier root 1 (x.n - 1) then begin
      reverse x ~first ~heads;
      search x x.vback st x.rfirst x.rtail ~root ~tier k;
      for v = 0 to x.n - 1 do
        if
          v <> root && tier_of tier v = 1 && x.vseen.(v) = st
          && x.vback.(v) = st
        then begin
          x.cls.(v) <- 1;
          incr count
        end
      done
    end;
    if x.cyclic.(k) && k = tier_of tier root then begin
      x.cls.(root) <- k;
      incr count
    end
  end;
  !count

(* --- One class's cut ----------------------------------------------- *)

let node v layer side = (((v * 2) + layer) * 2) + side

let add_arc x u v c =
  if x.n_arcs + 2 > Array.length x.dst then begin
    let cap = max 64 (2 * Array.length x.dst) in
    x.dst <- grow x.dst cap 0;
    x.cap <- grow x.cap cap 0;
    x.next <- grow x.next cap 0
  end;
  let a = x.n_arcs in
  x.dst.(a) <- v;
  x.cap.(a) <- c;
  x.next.(a) <- x.adj.(u);
  x.adj.(u) <- a;
  x.dst.(a + 1) <- u;
  x.cap.(a + 1) <- 0;
  x.next.(a + 1) <- x.adj.(v);
  x.adj.(v) <- a + 1;
  x.n_arcs <- a + 2;
  a

(* Class [k]'s network, the source in layer [ls]. *)
let build x ~(first : int array) ~(heads : int array) ~root ~tier k ls =
  Array.fill x.adj 0 (4 * x.n) (-1);
  x.n_arcs <- 0;
  for v = 0 to x.n - 1 do
    if v <> root && tier_of tier v = k then
      x.cut_arc.(v) <- add_arc x (node v 1 0) (node v 1 1) x.cost.(v)
  done;
  for u = 0 to x.n - 1 do
    let tu = tier_of tier u in
    if u = root || tu >= k then begin
      let split = u <> root && tu = k in
      let out = if split || u = root then 1 else 0 in
      for p = first.(u) to first.(u + 1) - 1 do
        let w = heads.(p) in
        if w = root then begin
          if u <> root then
            ignore (add_arc x (node u 1 out) (node root 1 0) inf : int)
        end
        else begin
          let tw = tier_of tier w in
          if tw >= k then
            (* a split vertex lives in layer 1; the root, in the source's *)
            for l = (if split then 1 else ls) to if u = root then ls else 1 do
              let lw = if tw = k then 1 else l in
              ignore (add_arc x (node u l out) (node w lw 0) inf : int)
            done
        end
      done
    end
  done

(* Breadth-first search from [s] over arcs with residual capacity,
   stopping once [t] is reached: marks [seen] with a fresh stamp and
   records the arc each node was entered by. *)
let forward x s t =
  x.stamp <- x.stamp + 1;
  let st = x.stamp in
  let seen = x.seen and queue = x.queue and via = x.via in
  let adj = x.adj and dst = x.dst and cap = x.cap and next = x.next in
  seen.(s) <- st;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && seen.(t) <> st do
    let u = queue.(!head) in
    incr head;
    let a = ref adj.(u) in
    while !a >= 0 do
      let v = dst.(!a) in
      if cap.(!a) > 0 && seen.(v) <> st then begin
        seen.(v) <- st;
        via.(v) <- !a;
        queue.(!tail) <- v;
        incr tail
      end;
      a := next.(!a)
    done
  done;
  seen.(t) = st

(* The nodes that reach [t] over arcs with residual capacity, marked in
   [back]: the arcs into a node are the twins of the arcs out of it. *)
let backward x t =
  x.stamp <- x.stamp + 1;
  let st = x.stamp in
  let back = x.back and queue = x.queue in
  let adj = x.adj and dst = x.dst and cap = x.cap and next = x.next in
  back.(t) <- st;
  queue.(0) <- t;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let w = queue.(!head) in
    incr head;
    let a = ref adj.(w) in
    while !a >= 0 do
      let u = dst.(!a) in
      if cap.(!a lxor 1) > 0 && back.(u) <> st then begin
        back.(u) <- st;
        queue.(!tail) <- u;
        incr tail
      end;
      a := next.(!a)
    done
  done;
  st

(* Shortest augmenting paths until none is left or the flow exceeds
   [bound]. When none is left, [seen] holds the last search's stamp: the
   source side of the minimum cut nearest the source. *)
let max_flow x s t bound =
  let flow = ref 0 in
  while !flow <= bound && forward x s t do
    let f = ref inf and v = ref t in
    while !v <> s do
      let a = x.via.(!v) in
      if x.cap.(a) < !f then f := x.cap.(a);
      v := x.dst.(a lxor 1)
    done;
    let v = ref t in
    while !v <> s do
      let a = x.via.(!v) in
      x.cap.(a) <- x.cap.(a) - !f;
      x.cap.(a lxor 1) <- x.cap.(a lxor 1) + !f;
      v := x.dst.(a lxor 1)
    done;
    flow := !flow + !f
  done;
  !flow

(* A zero-cost candidate of class [k] left out of its optimum joins it
   at no cost: a tie. *)
let no_free_extra x k =
  let ok = ref true in
  for v = 0 to x.n - 1 do
    if x.cls.(v) = k && (not x.pick.(v)) && x.cost.(v) = 0 then ok := false
  done;
  !ok

(* Class [k]'s optimum, picked into [pick]: its cost and whether no other
   set of the class's candidates costs as little. [others]: it has a
   candidate besides the root. *)
let solve_class x ~first ~heads ~root ~tier k ~others =
  let root_class = x.cls.(root) = k in
  if not others then begin
    (* no cycle, or every cycle's one candidate is the root *)
    if root_class then x.pick.(root) <- true;
    ((if root_class then x.cost.(root) else 0), true)
  end
  else begin
    (* One layer will do when every cycle of [G_k] is of the class: when
       [G_(k+1)], the cycles without a vertex of tier [k], has none. *)
    let ls = if k = tier_of tier root || not x.cyclic.(k + 1) then 1 else 0 in
    build x ~first ~heads ~root ~tier k ls;
    let s = node root ls 1 and t = node root 1 0 in
    let bound = if root_class then x.cost.(root) else inf in
    let flow = max_flow x s t bound in
    if root_class && flow > bound then begin
      x.pick.(root) <- true;
      (bound, no_free_extra x k)
    end
    else if root_class && flow = bound then (bound, false)
    else begin
      (* The last search failed, so its marks are the source side of the
         cut nearest the source, and the nodes that reach the sink are the
         complement of the one nearest the sink: the minimum cut is unique
         when both cut the same candidates. *)
      let st = x.stamp in
      let bk = backward x t in
      let same = ref true in
      for v = 0 to x.n - 1 do
        if x.cls.(v) = k && v <> root then begin
          let a = x.cut_arc.(v) in
          let i = x.dst.(a lxor 1) and o = x.dst.(a) in
          let near_s = x.seen.(i) = st && x.seen.(o) <> st
          and near_t = x.back.(i) <> bk && x.back.(o) = bk in
          if near_s then x.pick.(v) <- true;
          if near_s <> near_t then same := false
        end
      done;
      (flow, !same && no_free_extra x k)
    end
  end

let picked x =
  let acc = ref [] in
  for v = x.n - 1 downto 0 do
    if x.pick.(v) then acc := v :: !acc
  done;
  !acc

let solve x ?(max_candidates = max_int) ~n ~first ~heads ~root ~tier ~cost ()
    =
  reset x n;
  (* Classes above the root's own tier have no cycle: the root is on
     every one. *)
  let top = tier_of tier root in
  let total = ref 0 in
  for k = top downto 0 do
    x.count.(k) <- 0;
    if k = top || has_tier tier root k (n - 1) then begin
      x.count.(k) <- candidates x ~first ~heads ~root ~tier k;
      total := !total + x.count.(k)
    end
    else x.cyclic.(k) <- x.cyclic.(k + 1)
  done;
  if !total > max_candidates then Over !total
  else begin
    for v = 0 to n - 1 do
      if x.cls.(v) >= 0 then x.cost.(v) <- cost v
    done;
    let sum = ref 0 and unique = ref true in
    for k = 0 to top do
      let c, u =
        solve_class x ~first ~heads ~root ~tier k
          ~others:(x.count.(k) > if x.cls.(root) = k then 1 else 0)
      in
      sum := !sum + c;
      if not u then unique := false
    done;
    if !unique then Unique (picked x) else Tied !sum
  end
