(** Reference executor for core single-block SQL, used as ground truth
    when validating Theorem 1's translation and as the backend of the
    simulated visual query builder.

    Semantics (standard SQL over multisets): FROM product → WHERE →
    GROUP BY partition → HAVING → SELECT evaluation (one row per group
    when grouped) → DISTINCT → ORDER BY.

    Pipeline. Every WHERE, SELECT, HAVING and ORDER BY expression is
    compiled once against the FROM schema
    ({!Sheet_rel.Expr_eval.compile_with} over positional row reads).
    A plain query maps each WHERE survivor
    to its output row and sort key. A grouped query makes one pass
    over the FROM rows: the WHERE, a hash of the row's GROUP BY key to
    its group (groups in first-appearance order; without GROUP BY one
    group, even over no rows), and a fold of the row, in input order,
    into one accumulator per distinct [Agg] node of SELECT, HAVING and
    ORDER BY. Each group then evaluates HAVING, SELECT and its sort
    key once, every [Agg] reading its accumulator; its other column
    references read the group's first row. Sort keys are computed once
    per output row and sorted stably.

    Aggregates are computed before the expressions that hold them (as
    in PostgreSQL): every aggregate's argument is evaluated and folded
    for every WHERE survivor of every group, so an evaluation error in
    one is [Error] even where HAVING drops the group or a CASE branch
    does not reach the aggregate.

    Independence. This executor is the reference the engine is
    checked against, so it shares only [Expr_eval]'s scalar semantics
    and accumulators with it — never [Plan], [Col_pred], [Col_expr],
    batches or Sheetcol images. *)

open Sheet_rel

val run : Catalog.t -> Sql_ast.query -> (Relation.t, string) result
(** Result column names and types follow
    {!Sql_analyzer.resolved.output}; rows are in ORDER BY order, ties
    and unordered queries in input (or group first-appearance) order.
    Parse, analysis and evaluation errors (such as an ill-typed cell
    of a relation built without validation) are [Error]. *)

val run_string : Catalog.t -> string -> (Relation.t, string) result
(** Parse then run. *)

val run_exn : Catalog.t -> string -> Relation.t
(** @raise Invalid_argument on parse/analysis/execution errors. *)
