(** The test oracle: a naive list-based interpreter of a query state
    that reads like the paper — Def. 5 (selection), Def. 11
    (aggregation), Def. 12 (formulas), duplicate elimination, and
    Theorem 2's precedence rule placing each selection after the
    latest computed column it references — and of single-block SQL,
    with no fusion, no columnar path, no cache, no hash tables and no
    accumulators. *)

open Sheet_rel
open Sheet_core

val materialize : Spreadsheet.t -> Relation.t
(** All columns (hidden ones included), rows in presentation order —
    what [Materialize.full] must return, rows and order. *)

val group_count : Spreadsheet.t -> level:int -> int
(** Number of groups at a paper group level of the materialized
    sheet. *)

val same_rows_in_order : Relation.t -> Relation.t -> bool
(** Same column names and the same rows in the same order. *)

val apply_agg : Expr.agg_fun -> Value.t list -> Value.t
(** An aggregate over one group's values as a list fold, with
    [Sheet_rel.Expr_eval.apply_agg]'s documented semantics and error
    messages (raising [Expr_eval.Eval_error]). *)

val sql_run :
  Sheet_sql.Catalog.t -> Sheet_sql.Sql_ast.query -> (Relation.t, string) result
(** A single-block query the way the SQL executor must answer it: the
    same analysis, then FROM product, WHERE, GROUP BY partition (groups
    in first-occurrence order; one group over everything when only
    aggregates group), every aggregate of SELECT, HAVING and ORDER BY
    over every group, HAVING, SELECT, DISTINCT (first occurrence
    kept) and a stable ORDER BY, each over lists. An evaluation error
    is [Error]. *)
