(** Predicate compilation to selection-vector filters (Sheetcol).

    A [filter] reads the first [k] entries of a source vector
    (distinct indices, in any order), writes the survivors, in their
    order, to a destination vector from index 0, and returns their
    count. It writes nothing else, and may run in place (source and
    destination one array). Compilation is
    partial by design: only predicate subtrees whose row evaluation
    is total (cannot raise [Eval_error]) compile, so a compiled
    filter is always observationally identical to the row path —
    including two-valued NULL semantics, [Value.sql_compare]'s
    incomparable-types-are-false rule, and NaN-exact float
    comparisons. [Error] means "use the row path". *)

type filter = int array -> int -> int array -> int
(** [f src k dst] *)

val compile :
  column:(string -> Column.t option) -> Expr.t -> (filter, Expr.t) result
(** Compile against typed columns: [column name] is the column a
    reference reads, [None] when it has none (the predicate then does
    not compile). Indices are row positions of those columns. Handled
    forms: boolean constants,
    [And]/[Or]/[Not], [Cmp] between columns and/or constants,
    [Between] with any compilable operands, [In_list] and [Is_null]
    on a column, [Like] on a dictionary-coded string column. The
    comparisons of a conjunction with constants on one int, date or
    float column run as one range test.
    Anything touching a [Boxed] column does not compile. [Error] holds
    the smallest subtree that blocks compilation — what the
    profiler's row-path-fallback attribution names. *)
