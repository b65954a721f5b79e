(** Hand-shaped domain workloads used by the examples and integration
    tests: the kinds of transactions the paper's introduction motivates
    (concurrent queries and updates over a shared database). *)

val bank_store : n_accounts:int -> balance:int -> Prb_storage.Store.t
(** Accounts ["acct000" ...], each holding [balance]. *)

val transfer :
  name:string -> from_acct:int -> to_acct:int -> amount:int -> Prb_txn.Program.t
(** Debit one account, credit another — the classic deadlock-prone pair
    when two transfers run in opposite directions. Locks both accounts
    exclusively, in argument order. *)

val audit : name:string -> accounts:int list -> Prb_txn.Program.t
(** Shared-lock all listed accounts and total them into a local — the
    long reader that turns Section 3.2's multi-cycle deadlocks on. *)

val balance_invariant :
  n_accounts:int -> balance:int -> Prb_storage.Store.Constraint.t
(** Transfers preserve the total: Σ balances = n * initial. *)

val inventory_store :
  n_items:int -> stock:int -> Prb_storage.Store.t
(** Items ["item000" ...] with a stock counter each. *)

val order :
  name:string -> items:(int * int) list -> Prb_txn.Program.t
(** Reserve quantities from several items (exclusive locks in argument
    order): multi-entity updates whose lock order the caller controls —
    opposite orders collide. *)

val restock : name:string -> item:int -> quantity:int -> Prb_txn.Program.t

(** Order-entry, TPC-C-flavoured: warehouses hold stock and a running
    year-to-date total, districts hold a next-order-id counter. A
    new-order transaction touches its district counter (a famous hot
    spot), several stock entries, and the warehouse total — the layered
    contention pattern that makes victim choice and rollback depth matter
    in practice. *)

val order_entry_store :
  n_warehouses:int -> districts_per_warehouse:int -> items_per_warehouse:int ->
  stock:int -> Prb_storage.Store.t

val warehouse_ytd : int -> Prb_storage.Store.entity
val district_counter : warehouse:int -> district:int -> Prb_storage.Store.entity
val stock_entry : warehouse:int -> item:int -> Prb_storage.Store.entity

val new_order :
  name:string ->
  warehouse:int ->
  district:int ->
  lines:(int * int) list ->
  Prb_txn.Program.t
(** [lines] are (item, quantity) pairs within the warehouse, deduplicated
    by the caller. Locks: district counter (X), each line's stock (X),
    warehouse YTD (X, last — the hot total is held briefly). *)

val stock_level :
  name:string -> warehouse:int -> items:int list -> Prb_txn.Program.t
(** Read-only stock inspection: shared locks only. *)

