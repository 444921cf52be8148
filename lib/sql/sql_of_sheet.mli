(** The inverse of Theorem 1: compile a spreadsheet's query state back
    into a core single-block SQL statement, when one exists.

    The paper's interface "never reveals or requires the user to know
    a SQL query" — but the state the user builds by touch often {e is}
    a single-block query, and showing it is both a good teaching
    device and a pushdown path to a SQL backend. The REPL's [sql]
    command prints it.

    Expressible states: selections in stratum 0 (WHERE), aggregates at
    the finest group level with their HAVING-stratum selections,
    formula columns (inlined into the expressions that use them),
    grouping as GROUP BY, duplicate elimination as DISTINCT
    (ungrouped), leaf and group orderings as ORDER BY. States that
    fall outside the core fragment — aggregates at intermediate
    levels, selections reading formula-over-aggregate chains deeper
    than one inlining pass can flatten, grouped sheets with visible
    non-grouped base columns (the sheet shows every row; SQL would
    collapse them), duplicate elimination under an aggregate or a
    visible formula that reads a hidden column (the sheet drops
    duplicates before computing either) — yield
    [`Not_single_block reason]. *)

open Sheet_core

val compile :
  table:string ->
  Spreadsheet.t ->
  (Sql_ast.query, [ `Not_single_block of string ]) result
(** [table] names the base relation in the emitted FROM clause. For a
    grouped/aggregated sheet the emitted query returns one row per
    group (SQL semantics); the sheet shows the same values repeated
    per row — the usual presentation collapse (DESIGN.md §4). *)

val to_string :
  table:string -> Spreadsheet.t -> (string, string) result
(** {!compile} rendered as SQL text; the error is the human-readable
    reason. *)
