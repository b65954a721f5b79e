(** prb-lint: static determinism and protocol-invariant checks.

    The repository's core promise — byte-identical fixed-seed replay of
    [prb sim]/[prb run]/[prb sweep]/[prb distrib]/[prb chaos] — must not
    rest on convention. This analyzer parses every module under [lib/]
    and [bin/] (no type information needed; the rules are syntactic by
    design so they run on any tree that parses) and enforces the repo
    invariants as named, individually suppressible rules:

    - {b D1} — no [Hashtbl.iter]/[Hashtbl.fold] in replay-critical
      libraries ([core], [sim], [distrib], [fault], [wfg], [lock],
      [rollback]): hash-order traversal depends on the stdlib version and
      the table's history. Route traversals through
      {!Prb_util.Util.sorted_bindings} and friends instead.
    - {b D2} — no polymorphic comparison in replay-critical libraries:
      bare [compare]/[Stdlib.compare] anywhere, and [(=)]/[(<>)] passed
      as first-class comparator values. Abstract ids must be compared
      with their module's own order ([Txn_id.compare],
      [Store.Entity.compare], [Site_id.compare]) so id ordering is
      explicit and survives representation changes. Direct infix [=] on
      concrete values is deterministic and stays allowed.
    - {b D3} — no ambient randomness ([Random.self_init], or any use of
      the global [Random] module) anywhere, and no wall clock
      ([Unix.gettimeofday], [Unix.time], [Sys.time]) outside the opt-in
      detection-clock provider ([lib/bench_scale]). Seeded randomness
      goes through {!Prb_util.Rng}.
    - {b L1} — layering: [lib/core] and [lib/lock] must not reference
      [Prb_sim] or [Prb_workload] (the engines must stay usable without
      the simulation stack); lock-table internals are reachable only
      through [Lock_table]'s interface.
    - {b L2} — no unguarded catch-all arm ([_] or a variable) in a match
      over the distributed protocol message type ([Dist_scheduler.event]),
      so adding a message variant forces every handler site to decide.
    - {b L3} — one request path: in [lib/core] and [lib/distrib] only
      [engine.ml] may call [Lock_table.request], [release], [release_all]
      or [cancel_wait], [History.note_grant], or [Waits_for.set_wait] or
      [clear_wait], so every lock-table transition exists once, in the
      engine core both schedulers embed.

    Three further rules — {b A1} (hot paths are allocation-free), {b P1}
    (static two-phase locking discipline) and {b H1} (slot handles do not
    escape their arena) — need type and call-graph information and are
    implemented by the typed deep pass ({!Lint_deep}, [prb lint --deep]).
    Their ids are declared here so rule filters, reports and suppression
    share one namespace.

    Suppression: attach [[@lint.allow "D1"]] to an expression or a
    [let]-binding ([[@@lint.allow "D1"]]), or float
    [[@@@lint.allow "D1 D2"]] to cover the rest of the file. Ids may be
    separated by spaces or commas. A rationale follows after a colon —
    [[@lint.allow "A1: amortized buffer growth"]] — and is {e required}
    by the deep rules. *)

type rule = D1 | D2 | D3 | L1 | L2 | L3 | A1 | P1 | H1

val all_rules : rule list

val rule_id : rule -> string
(** ["D1"], ["D2"], ... *)

val rule_of_id : string -> rule option
(** Case-insensitive inverse of {!rule_id}. *)

(** Which invariants apply to a compilation unit. Derived from the file's
    path ({!context_of_path}); fixtures override it via the
    [<lib>__name.ml] naming convention. *)
type context = {
  lib : string option;  (** directory under [lib/], [None] for [bin/] *)
  replay_critical : bool;  (** D1/D2 enforced *)
  clock_provider : bool;  (** wall-clock allowed ([lib/bench_scale]) *)
  distrib : bool;  (** L2 enforced *)
}

val context_of_path : string -> context
(** [lib/<name>/x.ml] maps to library [<name>]; a path under [bin/] maps
    to the CLI context; a basename of the form [<name>__rest.ml] (used by
    the lint fixtures) forces library [<name>] ([bin__rest.ml] forces the
    CLI context). Anything else gets a neutral context where only the
    everywhere-rules (D3) apply. *)

type violation = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit
(** Renders [file:line:col: rule-id message] — greppable, editor-clickable. *)

val compare_violation : violation -> violation -> int
(** Report order: (file, line, rule-id), then column and message as
    deterministic tie-breaks. Line-major and column-free in the leading
    keys so reports diff stably across filesystems and formatters. *)

val violation_json : violation -> string
(** One violation as a JSON object (for [prb lint --json]). *)

val schema_version : int
(** Version of the [--json] report shape, carried in the report itself. *)

val report_json : violation list -> string
(** The full [--json] report: [{"schema_version":N,"findings":[...]}],
    findings sorted with {!compare_violation}. *)

val parse_allow_payload : string -> string list * string option
(** Split an allow payload into rule ids and the optional rationale after
    the first [':']. *)

val allow_specs : Parsetree.attributes -> (string list * string option) list
(** Every [[@lint.allow]] spec carried by the attributes, parsed. *)

val check_source :
  ?rules:rule list ->
  context:context ->
  file:string ->
  string ->
  (violation list, string) result
(** Parse [source] (an implementation) and run the enabled [rules]
    (default: all) under [context]. Violations are sorted by position.
    [Error] carries a parse-error message. *)

val check_file :
  ?rules:rule list -> ?context:context -> string -> (violation list, string) result
(** {!check_source} on a file's contents; [context] defaults to
    {!context_of_path}. *)

val scan :
  ?rules:rule list ->
  string list ->
  violation list * (string * string) list
(** [scan paths] lints every [*.ml] under the given files/directories
    (skipping [_build] and dot-directories), returning all violations and
    any (file, parse-error) pairs. Deterministic order. *)
