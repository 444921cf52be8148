(** Sheetlint — the static analyzer's front door.

    One entry point per thing a shell can hold: a bare predicate, a
    spreadsheet, a live session, a SQL query (parsed or text), or a
    whole SheetMusiq script. Every function is {e total}: analyzer
    bugs surface as an [analyzer-failure] error diagnostic, never as
    an exception (fuzz-tested in [test/test_fuzz.ml]).

    The passes live in {!Expr_lint} (predicate satisfiability and
    redundancy via {!Sheet_rel.Sheetsolve}), {!State_lint}
    (query-state structure) and {!Sql_lint} (SQL clauses + the
    Theorem-1 translation of the query). *)

open Sheet_rel
open Sheet_core
open Sheet_sql

val expr :
  ?type_of:(string -> Value.vtype option) -> Expr.t -> Diagnostic.t list

val sheet : Spreadsheet.t -> Diagnostic.t list
val session : Session.t -> Diagnostic.t list
(** Lint the session's current sheet — the REPL/TUI [lint] command. *)

val sql : Catalog.t -> Sql_ast.query -> Diagnostic.t list
val sql_string : Catalog.t -> string -> Diagnostic.t list
(** The [sheetsql] [\lint] command. *)

val script : Session.t -> string -> (Diagnostic.t list, string) result
(** Run a script from the given session and lint the sheet it ends
    on; [Error] when the script itself does not run. *)

val render : Diagnostic.t list -> string
val has_errors : Diagnostic.t list -> bool
val has_warnings : Diagnostic.t list -> bool
