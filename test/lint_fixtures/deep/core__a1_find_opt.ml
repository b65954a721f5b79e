(* Deep fixture: A1 positive — [Hashtbl.find_opt] boxes every hit in a
   fresh [Some], so a [@hot] lookup through it allocates even when the
   key is present. *)

let[@hot] lookup (tbl : (string, int) Hashtbl.t) key =
  match Hashtbl.find_opt tbl key with Some v -> v | None -> -1
