(** The test oracle: a naive list-based interpreter of a query state
    that reads like the paper — Def. 5 (selection), Def. 11
    (aggregation), Def. 12 (formulas), duplicate elimination, and
    Theorem 2's precedence rule placing each selection after the
    latest computed column it references — with no fusion, no
    columnar path, no cache and no hash tables. *)

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
