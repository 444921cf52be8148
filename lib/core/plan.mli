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
    the recursive grouping. The plan {!explain} prints is the plan
    that runs. Selections that are unsatisfiable, tautological or
    implied by others stay in it; Sheetlint ([lint]) reports them. *)

open Sheet_rel

type node =
  | Scan of Relation.t
  | Project of string list * node  (** keep the named columns *)
  | Filter of Expr.t * node
  | Distinct_on of string list * node
      (** duplicate elimination keyed on the given columns; the row
          of the lowest root row id survives *)
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
    included), rows in presentation order. A sheet with no ordering
    gets no [Sort]: its base scans in root order
    ({!Spreadsheet.of_relation}). *)

val base_rows : Spreadsheet.t -> node
(** The paper's [R^j]: the base relation filtered by the accumulated
    selections and duplicate elimination — base columns only, no
    presentation ordering. *)

val sorted : Spreadsheet.t -> node -> node
(** Wrap a plan in the sheet's presentation [Sort] (the flat ordering
    that emulates the recursive grouping, {!Grouping.sort_keys}),
    keys or none: a [Sort] with no keys puts the rows back in root
    order. *)

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
    - [Extend_formula] appends a column of one cell per position of
      the vector: the
      typed kernel ({!Sheet_rel.Col_expr}) writes an unboxed [Ints],
      [Floats] or [Dates] column when the formula compiles over typed
      columns (the base image's, or earlier typed formulas'; path
      [columnar]), else each row handle goes through the compiled
      expression into a boxed column (path [row], its reason on the
      profile node);
    - [Extend_aggregate] numbers each row's group from its basis
      columns ({!Sheet_rel.Rel_algebra.grouping}) — reusing the
      grouping of an earlier aggregate over the same selection vector
      and basis, which travels with the batch on that aggregate's
      column — folds the argument of every row, in root-id order
      whatever the order of the vector, into per-group accumulators
      and appends the column broadcasting each group's value. An argument that is a typed column folds its
      unboxed array (COUNT reads only its validity, SUM/AVG an int or
      float array, MIN/MAX an int, date or float array; path
      [columnar], as is COUNT( * )); any other folds boxed cells
      (counts, an int and a float sum, min/max, distinct sets; path
      [row]). Results equal {!Sheet_rel.Expr_eval.apply_agg} over
      each group's values bit for bit. An ill-typed argument — one
      that fails to evaluate, or a non-numeric [SUM]/[AVG] input —
      raises at the first such row in root order, whatever its
      group;
    - [Sort] permutes the vector by ranked key columns, ties by root
      row id ({!Sheet_rel.Rel_algebra.sort}), and [Distinct_on] thins
      it to the row of the lowest root row id of each key group (path
      [batch]).
    Each unit notes one profile node, with the path its predicate or
    formula took and why; the record's commit derives the [plan.*]
    counters and the per-kind histograms from it.

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

val explain : node -> string
(** Indented operator tree, one line per node, leaves last. *)
