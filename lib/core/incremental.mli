(** Incremental materialization.

    Section V observes that recomputing a query from scratch after
    every small step "is likely to take too long" and that the
    commutativity structure of the algebra can "reduce this cost
    substantially". This module is that reduction: given a parent
    sheet whose materialization is known and the operator that
    produced a child sheet, it derives the child's materialization
    without replaying the whole query state, whenever the operator's
    effect on the materialized relation is local. Each derivation is
    a short plan over a [Scan] of the parent's cached materialization,
    run by {!Plan.execute} — the same executor a full replay uses.
    That materialization is batch-backed (a selection vector over the
    sheet's base plus a column map, {!Sheet_rel.Relation.batch}), and
    a scan of it continues from its batch: a derivation narrows,
    permutes or extends the parent's batch and builds no row. The
    derivations:

    - projection / inverse projection: the full materialization is
      unchanged (hidden columns are presentational) — unless duplicate
      elimination is active, whose key is the visible column set;
    - grouping and ordering operators: a [Sort] of the parent rows
      on the child's keys, none included (their guards ensure no
      computed value changes); a sort breaks ties by root row id, so
      the parent's order leaves no trace;
    - a selection applied at the highest stratum (no computed column
      defined after it): a [Filter] of the parent rows;
    - a new aggregation or formula column: one [Extend_*] node
      ({!Plan.extend}) over the parent rows (an aggregate folds each
      group in root order, whatever the parent's order);
    - duplicate elimination with nothing hidden and no computed
      column: a [Distinct_on] every column.

    Anything else — a selection below the highest stratum, duplicate
    elimination with hidden or computed columns, projection under
    duplicate elimination, renames, binary operators, query
    modification — answers [None] and falls back to full replay. Derivations are exact: the result
    is the relation {!Materialize.full} would compute, rows and order
    (checked against the test oracle by the differential battery). *)

open Sheet_rel

val derive :
  parent:Spreadsheet.t ->
  op:Op.t ->
  child:Spreadsheet.t ->
  Relation.t option
(** Derive the child's full materialization from the parent's
    (obtained via {!Materialize.full_cached}); [None] when the
    operator requires full recomputation. *)

val materialize_after :
  parent:Spreadsheet.t -> op:Op.t -> child:Spreadsheet.t -> Relation.t
(** {!derive}, falling back to {!Materialize.full}; in either case the
    result is seeded into the materialization cache under the child's
    uid, so subsequent {!Materialize.full_cached} and
    {!Materialize.visible} calls are free. *)
