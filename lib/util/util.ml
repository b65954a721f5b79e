(* Deterministic views of hash tables.

   [Hashtbl] iteration order depends on the hash function, the table's
   insertion/removal history and (across compiler versions) the stdlib's
   bucket layout — none of which the replay discipline may depend on.
   Every replay-critical module therefore routes table traversals through
   this module, which materialises the bindings and sorts them by key
   under an explicit comparator. The analyzer in [lib/lint] (rule D1)
   rejects direct [Hashtbl.iter]/[Hashtbl.fold] in those modules, so this
   file is the single place where hash-order traversal is allowed to
   happen.

   All functions assume [Hashtbl.replace]-style tables (at most one
   binding per key), which is how every table in this repository is used;
   with duplicate keys the relative order of equal keys would again be
   hash order. *)

let sorted_bindings cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let iter_sorted cmp f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings cmp tbl)
