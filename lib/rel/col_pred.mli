(** Predicate compilation to selection-vector filters (Sheetcol).

    A [filter] reads the first [k] entries of a source vector
    (distinct row handles, in any order), writes the survivors, in their
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
(** [f src k dst]: the candidates and survivors are row handles. *)

type source = { col : Column.t; through : int array option }
(** A column as a compiled loop reads it: the cell of handle [p] is
    [col]'s cell [p], or, with [through], its cell [through.(p)]. Over
    a batch the handle is a position in its selection vector: a
    computed column is read directly, a base column through the
    vector (directly when the vector is the base's identity). *)

val at : int array option -> int -> int
(** [at through p]: handle [p]'s index into a column read [through] a
    vector (or directly). *)

val compile :
  column:(string -> source option) -> Expr.t -> (filter, Expr.t) result
(** Compile against typed columns: [column name] is the column a
    reference reads, [None] when it has none (the predicate then does
    not compile). Handled
    forms: boolean constants,
    [And]/[Or]/[Not], [Cmp] between columns and/or constants,
    [Between] with any compilable operands, [In_list] and [Is_null]
    on a column, [Like] on a dictionary-coded string column. The
    comparisons of a conjunction with constants on one int, date or
    float column run as one range test.
    Anything touching a [Boxed] column does not compile. [Error] holds
    the smallest subtree that blocks compilation — what the
    profiler's row-path-fallback attribution names. *)
