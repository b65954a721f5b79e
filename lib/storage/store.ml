type entity = string

module Entity = struct
  type t = entity

  let equal = String.equal
  let compare = String.compare
  let hash = Hashtbl.hash
  let pp = Format.pp_print_string
end

(* One numbering of entity names for the whole engine (DESIGN.md §12):
   [ids] gives each name the next id the first time anyone asks, defined
   or not; [names] maps an id back and values sit in [values] at that id.
   A name with an id but no value holds [undefined], a constant block no
   caller can reach, so a lookup tells the two apart with one physical
   comparison. *)
type t = {
  ids : (entity, int) Hashtbl.t;
  mutable names : entity array;
  mutable values : Value.t array;
  mutable n : int;  (** ids handed out *)
  mutable defined : int;
  mutable installs : int;
}

let undefined = Value.Text "<undefined>"

let create () =
  {
    ids = Hashtbl.create 256;
    names = [||];
    values = [||];
    n = 0;
    defined = 0;
    installs = 0;
  }

(* [Hashtbl.find] rather than [find_opt]: a hit returns the bare int
   instead of boxing it in [Some]. -1 for a name never numbered. *)
let find t e = try Hashtbl.find t.ids e with Not_found -> -1

let id t e =
  let i = find t e in
  if i >= 0 then i
  else begin
    let i = t.n in
    if i >= Array.length t.values then begin
      let cap = max 64 (2 * i) in
      let grow a fill =
        let a' = Array.make cap fill in
        Array.blit a 0 a' 0 i;
        a'
      in
      t.names <- grow t.names "";
      t.values <- grow t.values undefined
    end;
    t.names.(i) <- e;
    t.n <- i + 1;
    Hashtbl.replace t.ids e i;
    i
  end

let name t i =
  if i < 0 || i >= t.n then invalid_arg "Store.name: unknown id";
  t.names.(i)

let define t e v =
  let i = id t e in
  if t.values.(i) == undefined then t.defined <- t.defined + 1;
  t.values.(i) <- v

let of_list bindings =
  let t = create () in
  List.iter (fun (e, v) -> define t e v) bindings;
  t

(* The value at an id, or [undefined] for an id the store never handed
   out (-1 from a failed [find] included). *)
let value t i =
  if i >= 0 && i < Array.length t.values then t.values.(i) else undefined

let get_at t i =
  let v = value t i in
  if v == undefined then raise Not_found else v

let install_at t i v =
  if value t i == undefined then raise Not_found;
  t.values.(i) <- v;
  t.installs <- t.installs + 1

let mem t e = value t (find t e) != undefined
let get t e = get_at t (find t e)

let find_opt t e =
  let v = value t (find t e) in
  if v == undefined then None else Some v

let install t e v = install_at t (find t e) v

let snapshot t =
  let rec collect i acc =
    if i < 0 then acc
    else
      let v = t.values.(i) in
      collect (i - 1) (if v == undefined then acc else (name t i, v) :: acc)
  in
  List.sort
    (fun (a, _) (b, _) -> Entity.compare a b)
    (collect (t.n - 1) [])

let entities t = List.map fst (snapshot t)
let size t = t.defined

(* Size check then one membership lookup per entity of [a], by name: the
   two stores may number their entities differently. Equal sizes make the
   one-directional containment an equality. *)
let equal_state a b =
  size a = size b
  &&
  let rec from i =
    i < 0
    || (let va = a.values.(i) in
        (va == undefined
        ||
        match find_opt b (name a i) with
        | Some vb -> Value.equal va vb
        | None -> false)
        && from (i - 1))
  in
  from (a.n - 1)

let install_count t = t.installs

module Constraint = struct
  type store = t
  type t = { name : string; check : store -> bool }

  let make ~name check = { name; check }
  let name t = t.name
  let holds t store = t.check store

  let sum_preserved ~name entities ~expected =
    make ~name (fun store ->
        let sum =
          List.fold_left
            (fun acc e ->
              match find_opt store e with
              | Some v -> acc + Value.as_int v
              | None -> acc)
            0 entities
        in
        sum = expected)

  let all_hold constraints store =
    match List.filter (fun c -> not (holds c store)) constraints with
    | [] -> Ok ()
    | bad -> Error (List.map name bad)
end
