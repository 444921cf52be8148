(** Physical evaluation plans — the one evaluator of a query state.

    {!of_sheet} compiles a sheet's query state into an explicit
    operator chain — the shape in which the paper's prototype pushed
    manipulations down to its RDBMS — and {!execute} runs it. Every
    materialization in the engine goes through {!execute}:
    {!Materialize.full} is {!of_sheet} plus {!execute}, the semantic
    cache's subsumed hits and every {!Incremental} derivation are
    short plans over a [Scan] of a cached relation, and EXPLAIN
    ANALYZE renders the profile record {!execute} wrote. An
    independent, deliberately naive interpreter lives in the test
    suite as the oracle.

    The compiled plan is the stratified replay of DESIGN.md §4:
    selections sit at their precedence stratum (Theorem 2), aggregate
    extensions carry their grouping basis, and a final sort realizes
    the recursive grouping. {!optimize} then applies classical,
    semantics-preserving rewrites:

    - {e filter fusion}: adjacent filters merge into one conjunction
      (one pass over the data instead of several);
    - {e filter pushdown}: a filter slides below formula extensions it
      does not read (never below an aggregate extension — that would
      change the aggregate, i.e. turn HAVING into WHERE — and never
      below duplicate elimination, which could change the surviving
      representative);
    - {e projection pruning}: when the consumer only needs some
      columns ([~keep]), a projection is pushed onto the scan and
      extensions whose outputs are never consumed are dropped;
    - {e predicate pruning} (via {!Sheet_rel.Sheetsolve}): a fused
      filter proved unsatisfiable compiles its subtree to an empty
      scan of the right schema without reading a row, and conjuncts
      proved tautological or implied by the remaining conjuncts are
      dropped. Both proofs hold over every row (nulls included), so
      {!execute} on the optimized plan still equals the unoptimized
      result — property-tested against the oracle. *)

open Sheet_rel

type node =
  | Scan of Relation.t
  | Project of string list * node  (** keep the named columns *)
  | Filter of Expr.t * node
  | Distinct_on of string list * node
      (** duplicate elimination keyed on the given columns; first
          occurrence survives *)
  | Extend_formula of extend * node
  | Extend_aggregate of extend_agg * node
  | Sort of (string * [ `Asc | `Desc ]) list * node

and extend = { name : string; ty : Value.vtype; expr : Expr.t }

and extend_agg = {
  agg_name : string;
  agg_ty : Value.vtype;
  fn : Expr.agg_fun;
  arg : Expr.t option;
  basis : string list;  (** grouping columns of the aggregate's level *)
}

val of_sheet : Spreadsheet.t -> node
(** Compile the sheet's query state: all columns (hidden ones
    included), rows in presentation order. *)

val base_rows : Spreadsheet.t -> node
(** The paper's [R^j]: the base relation filtered by the accumulated
    selections and duplicate elimination — base columns only, no
    presentation ordering. *)

val sorted : Spreadsheet.t -> node -> node
(** Wrap a plan in the sheet's presentation [Sort] (the flat ordering
    that emulates the recursive grouping, {!Grouping.sort_keys}); the
    plan itself when the sheet has no ordering. *)

val extend : Spreadsheet.t -> Computed.t -> node -> node
(** The extension node computing one computed column of the sheet
    (an aggregate's basis is read off the sheet's grouping). *)

val execute : ?uid:int -> node -> Relation.t
(** Run the plan. Opens a Sheetdoctor profile region (kind ["plan"],
    keyed on [uid], default [0]; it collapses into an enclosing region
    for the same uid).

    A plan runs over a {e batch}: the scanned relation's
    {!Sheet_rel.Relation.batch} — a selection vector over a
    row-backed base (with its Sheetcol image when it has one) plus a
    column map. A scan of a batch-backed relation, such as a cached
    materialization, continues from that relation's batch. Each node
    is one {e unit}, run by the matching
    {!Sheet_rel.Rel_algebra} operator, and none builds a row:
    - [Filter] narrows the vector: compiled selection-vector filters
      over the base image when every column it reads is a base column
      and it compiles (profile path [columnar]), the compiled
      expression otherwise (path [row]). An ill-typed predicate
      raises before the filter reads a row;
    - [Project] edits the map (path [batch]);
    - [Extend_formula] appends a column indexed by base row id: the
      typed kernel ({!Sheet_rel.Col_expr}) writes an unboxed [Ints],
      [Floats] or [Dates] column when the formula compiles over typed
      columns (the base image's, or earlier typed formulas'; path
      [columnar]), else each row handle goes through the compiled
      expression into a boxed column (path [row], its reason noted
      in the profile region);
    - [Extend_aggregate] numbers each row's group from its basis
      columns ({!Sheet_rel.Rel_algebra.grouping}) — reusing the
      grouping of an earlier aggregate over the same selection vector
      and basis, which travels with the batch on that aggregate's
      column — folds the argument of every row, in input order, into
      per-group accumulators and appends the column broadcasting each
      group's value. An argument that is a typed column folds its
      unboxed array (COUNT reads only its validity, SUM/AVG an int or
      float array, MIN/MAX an int, date or float array; path
      [columnar], as is COUNT( * )); any other folds boxed cells
      (counts, an int and a float sum, min/max, distinct sets; path
      [row]). Results equal {!Sheet_rel.Expr_eval.apply_agg} over
      each group's values bit for bit. An ill-typed argument — one
      that fails to evaluate, or a non-numeric [SUM]/[AVG] input —
      raises at the first such row in input order, whatever its
      group;
    - [Sort] permutes the vector by ranked key columns
      ({!Sheet_rel.Rel_algebra.sort}) and [Distinct_on] thins it to
      the first row of each key group (path [batch]).
    Each unit opens a [plan.node] span, bumps the [plan.*] counters
    and notes one profile node.

    The result is batch-backed: its rows are built once, on first row
    access ({!Sheet_rel.Relation.to_array}). A plan with no unit to
    run — a bare [Scan] — returns the scanned relation itself, not a
    copy, so a later filter over it reaches its memoized columnar
    image.
    @raise Sheet_rel.Rel_algebra.Algebra_error on an ill-typed
    selection.
    @raise Sheet_rel.Expr_eval.Eval_error when an expression or an
    aggregate argument fails on a row. *)

val explain_analyze : ?uid:int -> node -> Relation.t * string
(** EXPLAIN ANALYZE: {!execute}, then render the profile record it
    wrote for [uid] ({!Sheet_obs.Obs.Profile.render_record}) — per
    unit, the plan nodes it covers, rows in and out, wall time and
    execution path. *)

val optimize : ?keep:string list -> node -> node
(** Rewrite the plan; [keep] lists the columns the consumer needs
    (defaults to all columns the plan produces). Semantics are
    preserved with respect to the kept columns. *)

val explain : node -> string
(** Indented operator tree, one line per node, leaves last. *)

val output_columns : node -> string list
(** Schema (names) the plan produces, in order. *)

val output_schema : node -> Sheet_rel.Schema.t
(** The typed schema the plan produces — usable before execution. *)
