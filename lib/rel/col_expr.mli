(** Typed arithmetic kernels over Sheetcol columns (formula
    computation, Def. 12, column at a time).

    The counterpart of {!Col_pred} for values: an arithmetic
    expression over typed columns compiles into loops over their
    unboxed [int]/[float] arrays with a validity bitmap, and
    {!eval} writes its cells as a typed column. Compilation is
    partial by design: only subtrees whose row evaluation is total
    (cannot raise [Eval_error]) compile, and every cell equals
    {!Expr_eval.compile_with}'s bit for bit — null propagation,
    Int/Int staying Int, division or modulo by zero giving null, an
    Int beside a Float converted by [float_of_int], NaN and ±0.0 as
    IEEE arithmetic gives them. [Error] means "use the row path". *)

type t

val compile :
  column:(string -> Col_pred.source option) -> Expr.t -> (t, Expr.t) result
(** Compile against typed columns: [column name] is the column a
    reference reads ([None]: it has none), at a row handle or through
    a vector ({!Col_pred.source}). Handled forms: [Int],
    [Float] and [Date] constants, references to [Ints], [Floats] and
    [Dates] columns, [Neg] of a number, and [Arith] between numbers
    (every operator), Date ± Int, Int + Date and Date - Date, and a
    searched [Case] whose conditions {!Col_pred} compiles and whose
    branches and default compile to one type (rows no condition
    holds for take the default, else null). Anything else —
    including a [Boxed] column — does not compile: [Error] holds the
    smallest subtree that blocks it — a leaf the kernel cannot read,
    a condition {!Col_pred} refuses, or an operation it cannot
    type. *)

val eval : t -> int -> Column.t
(** [eval k n] is a column of [n] cells: cell [p] is the expression's
    value at row handle [p] (over a batch, position [p] of its
    selection vector). An [Ints], [Floats] or [Dates] column, with a
    validity bitmap when some cell is null. One pass over the
    handles, in order, on the calling thread. *)
