(** Umbrella module: the whole library under one namespace.

    [open Prb] (or [Prb.Scheduler], ...) gives downstream code the public
    API without tracking the internal package structure. Sub-libraries
    remain individually linkable ([prb.core], [prb.rollback], ...) for
    users who want a slimmer dependency cone. *)

(* storage *)
module Value = Prb_storage.Value
module Store = Prb_storage.Store

(* transactions *)
module Txn_id = Prb_txn.Txn_id
module Lock_mode = Prb_txn.Lock_mode
module Expr = Prb_txn.Expr
module Program = Prb_txn.Program
module Parser = Prb_txn.Parser

(* locking and waits *)
module Lock_table = Prb_lock.Lock_table
module Waits_for = Prb_wfg.Waits_for

(* rollback engines *)
module Strategy = Prb_rollback.Strategy
module History_stack = Prb_rollback.History_stack
module Sdg_view = Prb_rollback.Sdg_view
module Allocation = Prb_rollback.Allocation
module Txn_state = Prb_rollback.Txn_state

(* concurrency control *)
module Policy = Prb_core.Policy
module Detection_policy = Prb_core.Detection_policy
module Resolver = Prb_core.Resolver
module Scheduler = Prb_core.Scheduler

(* serializability oracle *)
module History = Prb_history.History

(* workloads and simulation *)
module Generator = Prb_workload.Generator
module Scenarios = Prb_workload.Scenarios
module Sim = Prb_sim.Sim

(* distribution *)
module Site_id = Prb_distrib.Site_id
module Dist_scheduler = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim

(* static analysis *)
module Lint = Prb_lint.Lint

(* substrates *)
module Util = Prb_util.Util
module Rng = Prb_util.Rng
module Zipf = Prb_util.Zipf
module Stats = Prb_util.Stats
module Table = Prb_util.Table
module Ugraph = Prb_graph.Ugraph
module Cutset = Prb_graph.Cutset
