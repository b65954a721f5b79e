module Txn_id = Prb_txn.Txn_id

type txn = Txn_id.t
type entity = Prb_storage.Store.entity

(* Dense representation: transaction ids index flat arrays directly.
   Adjacency is kept in per-vertex sorted int buffers (ascending — the
   same order [Iset] iteration gave the Digraph-backed version, so every
   traversal visits neighbours identically and replay stays
   byte-identical). The scheduler invariant that all out-edges of a
   waiter carry one entity lets the (waiter, holder) -> entity label
   table collapse to a single string per waiter. Detection queries
   ([would_deadlock], the Tarjan census, cycle enumeration) run on
   stamp-versioned scratch arrays owned by [t]: no per-call hashtables,
   no allocation unless a cycle is actually reported. The Digraph-backed
   implementation is retained verbatim as the test suite's
   [Waits_for_ref], the oracle of the differential tests. *)

(* A cycle enumeration's output, flat (DESIGN §16): cycle [c] owns arc
   positions [first.(c) .. first.(c+1) - 1], in the resolver's order
   [v1; ...; vk; root]; each arc names the member it enters (an index
   into the ascending [members]) and the entity labelling it. *)
type cycles = {
  mutable epoch : int; (* [removals] when recorded; -1 if not from a graph *)
  mutable n_cycles : int;
  mutable first : int array;
  mutable member : int array;
  mutable release : entity array;
  mutable members : int array;
  mutable n_members : int;
}

type t = {
  mutable present : bool array;
  mutable out_buf : int array array; (* holders of v, ascending *)
  mutable out_len : int array;
  mutable in_buf : int array array; (* waiters on v, ascending *)
  mutable in_len : int array;
  mutable label : string array; (* entity of v's out-edges; out_len > 0 *)
  mutable cap : int;
  (* stamp-versioned scratch: mark.(v) = current stamp <=> v in the set *)
  mutable stamp : int;
  mutable fwd_mark : int array;
  mutable bwd_mark : int array;
  mutable seen_mark : int array;
  mutable on_path : bool array;
  mutable stack : int array;
  (* Tarjan scratch *)
  mutable idx : int array; (* valid when seen_mark.(v) = stamp *)
  mutable low : int array;
  mutable on_stack : bool array;
  (* The changed waiters: every waiter [set_wait] has (re)installed edges
     for since the last [settle], each once, in [chg_ids.(0 .. n_chg-1)].
     [chg_mark.(v) = settles] <=> v is recorded. *)
  mutable chg_mark : int array;
  mutable chg_ids : int array;
  mutable n_chg : int;
  mutable settles : int;
  cyc : cycles; (* the last enumeration's record, overwritten by the next *)
  mutable removals : int; (* calls that deleted edges, ever *)
}

let empty_cycles () =
  {
    epoch = -1;
    n_cycles = 0;
    first = [| 0 |];
    member = [||];
    release = [||];
    members = [||];
    n_members = 0;
  }

let create () =
  {
    present = [||];
    out_buf = [||];
    out_len = [||];
    in_buf = [||];
    in_len = [||];
    label = [||];
    cap = 0;
    stamp = 0;
    fwd_mark = [||];
    bwd_mark = [||];
    seen_mark = [||];
    on_path = [||];
    stack = [||];
    idx = [||];
    low = [||];
    on_stack = [||];
    chg_mark = [||];
    chg_ids = [||];
    n_chg = 0;
    settles = 1;
    cyc = empty_cycles ();
    removals = 0;
  }

let[@lint.allow
     "A1: amortized geometric growth — allocates only when a dense array \
      doubles, never in steady state"] grow_int cap fill arr =
  let narr = Array.make cap fill in
  Array.blit arr 0 narr 0 (Array.length arr);
  narr

let[@lint.allow
     "A1: amortized geometric growth of the per-transaction arrays; a \
      steady-state call on an in-range id allocates nothing"] ensure t v =
  if v < 0 then invalid_arg "Waits_for: negative transaction id";
  if v >= t.cap then begin
    let cap = max 64 (max (v + 1) (2 * t.cap)) in
    let nb = Array.make cap false in
    Array.blit t.present 0 nb 0 t.cap;
    t.present <- nb;
    let bufs = Array.make cap [||] in
    Array.blit t.out_buf 0 bufs 0 t.cap;
    t.out_buf <- bufs;
    let bufs = Array.make cap [||] in
    Array.blit t.in_buf 0 bufs 0 t.cap;
    t.in_buf <- bufs;
    t.out_len <- grow_int cap 0 t.out_len;
    t.in_len <- grow_int cap 0 t.in_len;
    let nl = Array.make cap "" in
    Array.blit t.label 0 nl 0 t.cap;
    t.label <- nl;
    t.fwd_mark <- grow_int cap 0 t.fwd_mark;
    t.bwd_mark <- grow_int cap 0 t.bwd_mark;
    t.seen_mark <- grow_int cap 0 t.seen_mark;
    let nb = Array.make cap false in
    Array.blit t.on_path 0 nb 0 t.cap;
    t.on_path <- nb;
    t.idx <- grow_int cap 0 t.idx;
    t.low <- grow_int cap 0 t.low;
    let nb = Array.make cap false in
    Array.blit t.on_stack 0 nb 0 t.cap;
    t.on_stack <- nb;
    t.chg_mark <- grow_int cap 0 t.chg_mark;
    t.cap <- cap
  end

(* Lowest position in [buf.(0..n-1)] (ascending) not below [v]. Top-level
   and int-annotated so the hot insert/remove paths neither build a
   closure nor fall back to the polymorphic comparison. *)
let rec scan_pos (buf : int array) n v p =
  if p < n && buf.(p) < v then scan_pos buf n v (p + 1) else p

(* Insert [v] into the ascending buffer at [i]; no-op when present.
   Returns whether the buffer changed, so a holder listed twice links one
   edge. *)
let[@lint.allow
     "A1: amortized per-vertex adjacency doubling; the steady-state \
      insert shifts in place"] sorted_insert (bufs : int array array) lens
    i v =
  let buf = bufs.(i) in
  let n = lens.(i) in
  let p = scan_pos buf n v 0 in
  if p < n && buf.(p) = v then false
  else begin
    let buf =
      if n >= Array.length buf then begin
        let nbuf = Array.make (max 4 (2 * Array.length buf)) 0 in
        Array.blit buf 0 nbuf 0 n;
        bufs.(i) <- nbuf;
        nbuf
      end
      else buf
    in
    Array.blit buf p buf (p + 1) (n - p);
    buf.(p) <- v;
    lens.(i) <- n + 1;
    true
  end

let sorted_remove (bufs : int array array) lens i v =
  let buf = bufs.(i) in
  let n = lens.(i) in
  let p = scan_pos buf n v 0 in
  if p < n && buf.(p) = v then begin
    Array.blit buf (p + 1) buf p (n - p - 1);
    lens.(i) <- n - 1
  end

let add_txn t v =
  ensure t v;
  t.present.(v) <- true

let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

let[@hot] clear_wait t v =
  if v >= 0 && v < t.cap then begin
    if t.out_len.(v) > 0 then t.removals <- t.removals + 1;
    for i = 0 to t.out_len.(v) - 1 do
      let h = t.out_buf.(v).(i) in
      sorted_remove t.in_buf t.in_len h v
    done;
    t.out_len.(v) <- 0
  end

let remove_txn t v =
  if v >= 0 && v < t.cap then begin
    clear_wait t v;
    if t.in_len.(v) > 0 then t.removals <- t.removals + 1;
    for i = 0 to t.in_len.(v) - 1 do
      let u = t.in_buf.(v).(i) in
      sorted_remove t.out_buf t.out_len u v
    done;
    t.in_len.(v) <- 0;
    t.present.(v) <- false
  end

(* Closure-free [List.mem] over transaction ids for the hot queries. *)
let rec mem_txn (v : int) = function
  | [] -> false
  | h :: rest -> h = v || mem_txn v rest

let rec link_holders t waiter = function
  | [] -> ()
  | h :: rest ->
      ensure t h;
      t.present.(h) <- true;
      if sorted_insert t.out_buf t.out_len waiter h then
        ignore (sorted_insert t.in_buf t.in_len h waiter : bool);
      link_holders t waiter rest

(* Any cycle formed since the last [settle] contains an edge installed
   since, so it passes through a recorded waiter. *)
let record_changed t v =
  if t.chg_mark.(v) <> t.settles then begin
    t.chg_mark.(v) <- t.settles;
    if t.n_chg >= Array.length t.chg_ids then
      t.chg_ids <- grow_int (max 16 (2 * t.n_chg)) 0 t.chg_ids;
    t.chg_ids.(t.n_chg) <- v;
    t.n_chg <- t.n_chg + 1
  end

let[@hot] set_wait t ~waiter ~holders entity =
  if mem_txn waiter holders then
    invalid_arg "Waits_for.set_wait: waiter among holders";
  ensure t waiter;
  clear_wait t waiter;
  t.present.(waiter) <- true;
  link_holders t waiter holders;
  t.label.(waiter) <- entity;
  record_changed t waiter

(* A recorded waiter with no out-edge is on no cycle. It stays recorded,
   so it seeds the census again once it waits again. *)
let rec collect_changed t i acc =
  if i < 0 then acc
  else
    let v = t.chg_ids.(i) in
    collect_changed t (i - 1)
      (if t.out_len.(v) > 0 then
         (v :: acc)
         [@lint.allow
           "A1: the seed list holds only still-blocked changed waiters; \
            with none it stays empty"]
       else acc)

let changed t = collect_changed t (t.n_chg - 1) []

let settle t =
  t.settles <- t.settles + 1;
  t.n_chg <- 0

let waits t v =
  if v < 0 || v >= t.cap then []
  else begin
    let buf = t.out_buf.(v) in
    let rec collect i acc =
      if i < 0 then acc else collect (i - 1) ((buf.(i), t.label.(v)) :: acc)
    in
    collect (t.out_len.(v) - 1) []
  end

let waiting_on t v =
  if v < 0 || v >= t.cap then []
  else begin
    let buf = t.in_buf.(v) in
    let rec collect i acc =
      if i < 0 then acc
      else collect (i - 1) ((buf.(i), t.label.(buf.(i))) :: acc)
    in
    collect (t.in_len.(v) - 1) []
  end

let is_blocked t v = v >= 0 && v < t.cap && t.out_len.(v) > 0

let txns t =
  let rec collect v acc =
    if v < 0 then acc
    else collect (v - 1) (if t.present.(v) then v :: acc else acc)
  in
  collect (t.cap - 1) []

let edges t =
  (* waiters ascending, holders ascending within each: lexicographic *)
  List.concat_map
    (fun w ->
      List.map (fun (h, e) -> (w, h, e)) (waits t w))
    (txns t)

let stack_push t n v =
  if n >= Array.length t.stack then
    t.stack <- grow_int (max 64 (2 * Array.length t.stack)) 0 t.stack;
  t.stack.(n) <- v;
  n + 1

exception Found

(* multi-source early-exit DFS from the holders along waits-for edges;
   only set membership matters, so the stamped scratch serves as the
   visited set and nothing is allocated. The stack top is threaded
   through top-level helpers instead of a [ref]/closure pair so the
   whole query stays allocation-free. *)
let rec dd_succ t stamp waiter v i top =
  if i >= t.out_len.(v) then top
  else begin
    let w = t.out_buf.(v).(i) in
    if w = waiter then raise Found
    else if t.seen_mark.(w) <> stamp then begin
      t.seen_mark.(w) <- stamp;
      dd_succ t stamp waiter v (i + 1) (stack_push t top w)
    end
    else dd_succ t stamp waiter v (i + 1) top
  end

(* The search goes on through [v] only if [v] waits and, under a label
   filter, its wait label passes. A label outlives [clear_wait], so the
   out-degree is tested before the filter sees it. *)
let dd_expand t stamp waiter label_ok v top =
  if
    v >= 0 && v < t.cap
    && t.out_len.(v) > 0
    && match label_ok with None -> true | Some ok -> ok t.label.(v)
  then dd_succ t stamp waiter v 0 top
  else top

let rec dd_seed t stamp waiter label_ok top = function
  | [] -> top
  | h :: rest ->
      dd_seed t stamp waiter label_ok
        (dd_expand t stamp waiter label_ok h top)
        rest

let rec dd_drain t stamp waiter label_ok top =
  top > 0
  && dd_drain t stamp waiter label_ok
       (dd_expand t stamp waiter label_ok t.stack.(top - 1) (top - 1))

let[@hot] would_deadlock ?label_ok t ~waiter ~holders =
  mem_txn waiter holders
  || (waiter >= 0 && waiter < t.cap
      && t.in_len.(waiter) > 0
      &&
      (* Any path from a holder back to the waiter ends in one of the
         waiter's in-edges, so a waiter nobody waits on is unreachable
         and the search is skipped outright — the answer to every probe
         by a transaction that is not itself waited on. *)
      let stamp = next_stamp t in
      match
        dd_drain t stamp waiter label_ok
          (dd_seed t stamp waiter label_ok 0 holders)
      with
      | _ -> false
      | exception Found -> true)

(* Mark every vertex reachable from [v] along [buf]/[len] edges with
   [stamp] in [mark]. [v] itself is marked only if re-reached — exactly
   the Digraph [reach_set] convention ([root] marked forward <=> root on
   a cycle). *)
let rec reach_scan t (mark : int array) (b : int array) n stamp i top =
  if i >= n then top
  else
    let w = b.(i) in
    if mark.(w) <> stamp then begin
      mark.(w) <- stamp;
      reach_scan t mark b n stamp (i + 1) (stack_push t top w)
    end
    else reach_scan t mark b n stamp (i + 1) top

let reach_expand t mark (buf : int array array) (len : int array) stamp v top =
  reach_scan t mark buf.(v) len.(v) stamp 0 top

let rec reach_drain t mark buf len stamp top =
  if top > 0 then
    reach_drain t mark buf len stamp
      (reach_expand t mark buf len stamp t.stack.(top - 1) (top - 1))

let reach t mark buf len stamp v =
  reach_drain t mark buf len stamp (reach_expand t mark buf len stamp v 0)

(* --- Cycle enumeration ------------------------------------------------ *)

let rec mem_edge_ (buf : int array) n (v : int) i =
  i < n && (buf.(i) = v || mem_edge_ buf n v (i + 1))

let[@hot] mem_edge t u v = mem_edge_ t.out_buf.(u) t.out_len.(u) v 0

(* Room in the record for arc positions below [arcs] and one more cycle
   boundary. The record is reused by every enumeration, so this grows
   geometrically and then stops allocating. *)
let[@lint.allow
     "A1: amortized geometric growth of the reused cycle record; a \
      steady-state enumeration writes in place"] cy_room r arcs =
  let cap = Array.length r.member in
  if arcs > cap then begin
    let cap = max 64 (max arcs (2 * cap)) in
    r.member <- grow_int cap 0 r.member;
    let nr = Array.make cap "" in
    Array.blit r.release 0 nr 0 (Array.length r.release);
    r.release <- nr
  end;
  if r.n_cycles + 2 > Array.length r.first then
    r.first <- grow_int (max 16 (2 * Array.length r.first)) 0 r.first

(* A member seen for the first time in this enumeration joins [members];
   [seen_mark] under the enumeration's stamp is the membership test. *)
let cy_note t stamp v =
  if t.seen_mark.(v) <> stamp then begin
    t.seen_mark.(v) <- stamp;
    let r = t.cyc in
    if r.n_members >= Array.length r.members then
      r.members <- grow_int (max 16 (2 * r.n_members)) 0 r.members;
    r.members.(r.n_members) <- v;
    r.n_members <- r.n_members + 1
  end

(* Append the cycle the arc [path.(plen-1) -> root] closes, where
   [path.(0)] is the root. Deleting the arc into a member means the
   member releases the entity labelling that arc, which is its
   predecessor's wait label, read here while the DFS stands on the arc.
   Members go in as transaction ids; {!cy_finish} renumbers them. *)
let cy_record t stamp plen =
  let r = t.cyc in
  let path = t.stack in
  let base = r.first.(r.n_cycles) in
  cy_room r (base + plen);
  for i = 1 to plen - 1 do
    let m = path.(i) in
    r.member.(base + i - 1) <- m;
    r.release.(base + i - 1) <- t.label.(path.(i - 1));
    cy_note t stamp m
  done;
  r.member.(base + plen - 1) <- path.(0);
  r.release.(base + plen - 1) <- t.label.(path.(plen - 1));
  cy_note t stamp path.(0);
  r.n_cycles <- r.n_cycles + 1;
  r.first.(r.n_cycles) <- base + plen

(* Backtracking DFS from the root over its strongly connected component
   (both marks carry [stamp]); the path lives in [t.stack], which the
   reachability passes have finished with. [budget] caps edge
   traversals — even within an SCC the simple-path space can be
   exponential — and [limit] caps the cycles recorded. Returns the steps
   taken. Arcs are tried in ascending holder order and a cap stops the
   search right after the step that reaches it: the cycles reported,
   and their order, are part of the replay contract. *)
let rec cy_arcs t stamp root limit budget v i plen steps =
  if i >= t.out_len.(v) then steps
  else
    let steps = steps + 1 in
    if t.cyc.n_cycles >= limit || steps >= budget then steps
    else
      let w = t.out_buf.(v).(i) in
      if w = root then begin
        cy_record t stamp plen;
        cy_arcs t stamp root limit budget v (i + 1) plen steps
      end
      else if
        t.fwd_mark.(w) = stamp && t.bwd_mark.(w) = stamp && not t.on_path.(w)
      then begin
        t.on_path.(w) <- true;
        let steps =
          cy_dfs t stamp root limit budget w (stack_push t plen w) steps
        in
        t.on_path.(w) <- false;
        cy_arcs t stamp root limit budget v (i + 1) plen steps
      end
      else cy_arcs t stamp root limit budget v (i + 1) plen steps

and cy_dfs t stamp root limit budget v plen steps =
  if t.cyc.n_cycles >= limit || steps >= budget then steps
  else cy_arcs t stamp root limit budget v 0 plen steps

let rec ins_shift (a : int array) j x =
  if j >= 0 && a.(j) > x then begin
    a.(j + 1) <- a.(j);
    ins_shift a (j - 1) x
  end
  else a.(j + 1) <- x

(* Sort the distinct members ascending (there are few: one strongly
   connected component's worth), record each one's rank in [idx] — valid
   while [seen_mark] holds this enumeration's stamp — and turn every
   arc's transaction id into its member index. *)
let cy_finish t =
  let r = t.cyc in
  for i = 1 to r.n_members - 1 do
    ins_shift r.members (i - 1) r.members.(i)
  done;
  for i = 0 to r.n_members - 1 do
    t.idx.(r.members.(i)) <- i
  done;
  for p = 0 to r.first.(r.n_cycles) - 1 do
    r.member.(p) <- t.idx.(r.member.(p))
  done

let[@hot] record_cycles t limit root =
  let r = t.cyc in
  r.epoch <- t.removals;
  r.n_cycles <- 0;
  r.n_members <- 0;
  if root >= 0 && root < t.cap && t.present.(root) then begin
    (* Every simple cycle through [root] lies inside [root]'s strongly
       connected component: the vertices that both are reachable from
       the root and reach it. Truncation is safe for deadlock
       resolution: breaking the reported cycles and re-enumerating
       reaches the rest. *)
    let stamp = next_stamp t in
    reach t t.fwd_mark t.out_buf t.out_len stamp root;
    reach t t.bwd_mark t.in_buf t.in_len stamp root;
    if t.fwd_mark.(root) = stamp then begin
      let budget = 200 * (limit + 50) in
      t.on_path.(root) <- true;
      let _steps : int =
        cy_dfs t stamp root limit budget root (stack_push t 0 root) 0
      in
      t.on_path.(root) <- false;
      cy_finish t
    end
  end;
  r

let enumerate ?(limit = 10_000) t root = record_cycles t limit root

let arc_txn c p = c.members.(c.member.(p))

(* The list views are built back to front, so no list is reversed. *)
let arcs c =
  let acc = ref [] in
  for k = c.n_cycles - 1 downto 0 do
    let cycle = ref [] in
    for p = c.first.(k + 1) - 1 downto c.first.(k) do
      cycle := (arc_txn c p, c.release.(p)) :: !cycle
    done;
    acc := !cycle :: !acc
  done;
  !acc

let cycles_through ?limit t root =
  let c = enumerate ?limit t root in
  let acc = ref [] in
  for k = c.n_cycles - 1 downto 0 do
    let cycle = ref [] in
    for p = c.first.(k + 1) - 2 downto c.first.(k) do
      cycle := arc_txn c p :: !cycle
    done;
    acc := (root :: !cycle) :: !acc
  done;
  !acc

let rec lower_bound (a : int array) v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) < v then lower_bound a v (mid + 1) hi else lower_bound a v lo mid

let member_index c v =
  let p = lower_bound c.members v 0 c.n_members in
  if p < c.n_members && c.members.(p) = v then p else -1

let cycles_of_arcs cycles =
  let members =
    Array.of_list
      (List.sort_uniq Txn_id.compare (List.concat_map (List.map fst) cycles))
  in
  let n_members = Array.length members in
  let all = List.concat cycles in
  let first = Array.make (List.length cycles + 1) 0 in
  List.iteri (fun k c -> first.(k + 1) <- first.(k) + List.length c) cycles;
  {
    epoch = -1;
    n_cycles = List.length cycles;
    first;
    member =
      Array.of_list
        (List.map (fun (m, _) -> lower_bound members m 0 n_members) all);
    release = Array.of_list (List.map snd all);
    members;
    n_members;
  }

let keep_cycles c keep =
  let kept = Array.init c.n_cycles keep in
  let used = Array.make c.n_members false in
  let n = ref 0 and q = ref 0 in
  (* Compaction only moves data to lower positions, and [first.(k+1)] is
     rewritten only once cycle [k] has been read. *)
  for k = 0 to c.n_cycles - 1 do
    if kept.(k) then begin
      for p = c.first.(k) to c.first.(k + 1) - 1 do
        c.member.(!q) <- c.member.(p);
        c.release.(!q) <- c.release.(p);
        used.(c.member.(p)) <- true;
        incr q
      done;
      incr n;
      c.first.(!n) <- !q
    end
  done;
  let rank = Array.make c.n_members 0 and m = ref 0 in
  for i = 0 to c.n_members - 1 do
    if used.(i) then begin
      c.members.(!m) <- c.members.(i);
      rank.(i) <- !m;
      incr m
    end
  done;
  for p = 0 to !q - 1 do
    c.member.(p) <- rank.(c.member.(p))
  done;
  c.n_cycles <- !n;
  c.n_members <- !m

(* Edges only vanish through [clear_wait] and [remove_txn], which count
   themselves in [removals]: a record enumerated since the last such call
   still names edges only. *)
let[@hot] intact t c = c.epoch = t.removals

(* Tarjan restricted to the subgraph reachable from the seeds; the
   output is the ascending list of vertices in non-trivial SCCs (or with
   a self-loop, which [set_wait] actually forbids). Only membership is
   observable, so the visit order is free as long as neighbour iteration
   stays ascending. *)
let[@lint.allow
     "A1: the Tarjan census allocates its SCC stack and returns the \
      cyclic-vertex list — run once per detection pass or fixpoint \
      round, never per lock operation"] on_cycle_from t seeds =
  let stamp = next_stamp t in
  let counter = ref 0 in
  let sstack = ref [] in
  let cyclic = ref [] in
  let rec strongconnect v =
    t.seen_mark.(v) <- stamp;
    t.idx.(v) <- !counter;
    t.low.(v) <- !counter;
    incr counter;
    sstack := v :: !sstack;
    t.on_stack.(v) <- true;
    let buf = t.out_buf.(v) in
    for i = 0 to t.out_len.(v) - 1 do
      let w = buf.(i) in
      if t.seen_mark.(w) <> stamp then begin
        strongconnect w;
        if t.low.(w) < t.low.(v) then t.low.(v) <- t.low.(w)
      end
      else if t.on_stack.(w) then
        if t.idx.(w) < t.low.(v) then t.low.(v) <- t.idx.(w)
    done;
    if t.low.(v) = t.idx.(v) then begin
      let rec pop acc =
        match !sstack with
        | [] -> acc
        | w :: rest ->
            sstack := rest;
            t.on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
      in
      match pop [] with
      | [ u ] -> if mem_edge t u u then cyclic := u :: !cyclic
      | comp -> cyclic := List.rev_append comp !cyclic
    end
  in
  List.iter
    (fun v ->
      if
        v >= 0 && v < t.cap && t.present.(v) && t.seen_mark.(v) <> stamp
      then strongconnect v)
    seeds;
  List.sort_uniq Txn_id.compare !cyclic

let has_cycle t =
  (* stamped colouring: seen = visited, on_path = grey *)
  let stamp = next_stamp t in
  let exception Cycle in
  let rec dfs v =
    t.seen_mark.(v) <- stamp;
    t.on_path.(v) <- true;
    let buf = t.out_buf.(v) in
    for i = 0 to t.out_len.(v) - 1 do
      let w = buf.(i) in
      if t.on_path.(w) then raise Cycle
      else if t.seen_mark.(w) <> stamp then dfs w
    done;
    t.on_path.(v) <- false
  in
  let rec clear = function
    | [] -> ()
    | v :: rest ->
        t.on_path.(v) <- false;
        clear rest
  in
  let rec roots v =
    if v >= t.cap then false
    else if t.present.(v) && t.seen_mark.(v) <> stamp then
      match dfs v with () -> roots (v + 1) | exception Cycle -> true
    else roots (v + 1)
  in
  let found = roots 0 in
  if found then clear (txns t);
  found

let is_exclusive_forest t =
  let rec degrees v =
    v >= t.cap || ((not t.present.(v)) || t.out_len.(v) <= 1) && degrees (v + 1)
  in
  degrees 0 && not (has_cycle t)

let pp ppf t =
  match edges t with
  | [] -> Fmt.string ppf "(no waits)"
  | es ->
      Fmt.pf ppf "@[<v>%a@]"
        Fmt.(
          list ~sep:cut (fun ppf (w, h, e) -> pf ppf "T%d -%s-> T%d" w e h))
        es
