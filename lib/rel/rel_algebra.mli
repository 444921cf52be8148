(** Relational algebra with multiset semantics.

    These are the relational counterparts (subscript "r" in the paper)
    that the spreadsheet operators are defined against: selection
    [σ_r], projection [π_r], product [×_r], union [∪_r], difference
    [−_r], join [⋈_r], plus sorting, duplicate elimination and the
    row grouping the SQL executor and the group tree build on. *)

exception Algebra_error of string

(** The unary operators — {!select}, {!project}, {!extend}, {!sort},
    {!distinct_on} and {!distinct} — run
    over [Relation.batch] of their input and return a batch-backed
    relation ({!Relation.of_batch}): selection narrows the selection
    vector, projection edits the column map, extension appends a
    column of one cell per position of the vector, sorting permutes
    the vector and duplicate elimination thins it. A row handle is a
    position in the vector. Whatever makes a new vector gathers the
    batch's computed columns and groupings along with it, so each
    stays as long as the vector. None of them builds a row, and over a
    batch-backed input each continues from its batch. *)

val select : Expr.t -> Relation.t -> Relation.t
(** [σ_r]: keep rows satisfying the (aggregate-free) predicate.
    Runs columnar (compiled selection-vector filters over the
    positions of the input's vector, whose survivors the new vector
    and the computed columns are gathered along) when every column
    the predicate reads is
    typed — a base column of the base's Sheetcol image, or a typed
    computed column — and the predicate compiles; otherwise through
    the compiled expression, which is observationally identical.
    Either way one pass on the calling thread; the input's vector is
    never written.
    @raise Algebra_error on an ill-typed predicate, before reading a
    row. *)

val select_path :
  Expr.t -> Relation.t -> Relation.t * [ `Columnar | `Row of Expr.t ]
(** {!select}, also telling which of the two paths ran; the row path
    carries the subtree the columnar compiler refused. *)

val fallback_reason : Relation.t -> Expr.t -> blocker:Expr.t -> string
(** Why the expression ran on the row path over the relation, given
    the subtree its path carries: an untyped column, or the subtree. *)

val compile : Relation.t -> Expr.t -> int -> Value.t
(** {!Expr_eval.compile_with} over the relation's batch: the closure
    takes a position in [Relation.batch r]'s selection vector and
    reads base cells from the base's own rows. *)

val typed_arg : Relation.t -> string -> Col_pred.source option
(** The typed column a reference to the named column reads at a
    position of [Relation.batch r]'s vector: a base column of the
    base's Sheetcol image ({!Relation.columnar_view}) read through the
    vector, or a computed column. [None] for an aggregate column or an
    unknown name. *)

val project : string list -> Relation.t -> Relation.t
(** [π_r]: keep the named columns in the given order; duplicates are
    NOT eliminated (multiset semantics). Edits the column map only. *)

val extend : Schema.column -> Expr.t -> Relation.t -> Relation.t
(** Append a column computed by the expression on every row, a
    [Relation.Computed] column of one cell per position of the
    vector. When the expression compiles over typed columns
    ({!Col_expr}) the typed kernel writes an [Ints], [Floats] or
    [Dates] column; otherwise each row handle goes through the
    compiled expression into a [Boxed] column, in vector order. The
    cells are the same
    either way. The typed column of a base column is read from the
    base's Sheetcol image ({!Relation.columnar_view}).
    @raise Schema.Schema_error on a name clash.
    @raise Expr_eval.Eval_error at the first row, in order, where the
    expression fails. *)

val extend_path :
  Schema.column -> Expr.t -> Relation.t ->
  Relation.t * [ `Columnar | `Row of Expr.t ]
(** {!extend}, also telling which of the two paths ran; the row path
    carries the subtree the typed kernel refused. *)

val product : Relation.t -> Relation.t -> Relation.t
(** [×_r]: clashing right-hand column names get a numeric suffix (see
    {!Schema.concat}). *)

val union : Relation.t -> Relation.t -> Relation.t
(** [∪_r] with bag semantics: the result contains each tuple as many
    times as both operands combined.
    @raise Algebra_error unless the schemas are union-compatible. *)

val diff : Relation.t -> Relation.t -> Relation.t
(** [−_r] with bag semantics: occurrences are subtracted, so
    [{t,t} − {t} = {t}].
    @raise Algebra_error unless the schemas are union-compatible. *)

val join : Expr.t -> Relation.t -> Relation.t -> Relation.t
(** [⋈_r]: product followed by selection on the join condition, which
    may reference columns of both operands (right-hand clashes renamed
    as in {!product}). *)

val equijoin : on:(string * string) -> Relation.t -> Relation.t -> Relation.t
(** Hash equijoin on one column pair [(left_col, right_col)];
    semantically [join (left_col = right_col')] but linear-time, used
    to build large pre-joined views. Result schema as in {!product}. *)

val distinct : Relation.t -> Relation.t
(** Remove duplicate rows (equal under {!Value.compare} column by
    column), keeping the row of the lowest root row id of each (the
    first occurrence, over a vector in root order): {!distinct_on}
    every column, which thins the selection vector by {!group_ids}
    and hashes no row. *)

val distinct_on : string list -> Relation.t -> Relation.t
(** Keep, of each group of rows equal (under {!Value.compare}) on the
    given columns, the row of the lowest root row id (the id in
    [Relation.batch r]'s vector), whatever the order of the vector;
    survivors stay in vector order. Over a vector in root order that
    is the first row of each group. An aggregate column whose
    basis is among the columns is left out of the comparison (its
    cells follow its group), and a grouping of the batch over exactly
    the remaining columns numbers the rows without ranking them. *)

val sort : (string * [ `Asc | `Desc ]) list -> Relation.t -> Relation.t
(** Sort by the given key columns under {!Value.compare}, then by
    root row id (the id in [Relation.batch r]'s vector): the order
    does not depend on the order of the input's vector. [Null]s sort
    last in ascending order. Rows and order equal a stable comparison
    sort's over the rows in root order ({!root_order}), ties included
    ([Int 3] and [Float 3.0] tie). With no keys the rows go back to
    root order. Column at a time: each key column is ranked once into
    ints that order as {!Value.compare} orders its cells — a
    dictionary-coded string column of the base image by its sorted
    dictionary, an int or date column by offset from its minimum, a
    float column by bucket-sorting 63-bit keys of its cells, a bool
    column false first; cells of one constructor as their typed
    column would, and only mixed cells or strings without a
    dictionary by hashing their distinct values and sorting only
    those — and descending keys flip their ranks. The vector then
    takes one stable counting pass per key, the last key first; when
    it was not in root order, each run of ties whose ids descend is
    then sorted by id. A run of keys
    in one direction that is the basis of a grouping an aggregate
    column of the batch carries ({!Relation.grouping}) ranks by that
    grouping's ids, which order as the run's cells do. Fewer than two
    rows, or no keys over a vector that ascends, return the relation
    itself. *)

val root_order : Relation.t -> int array
(** The ids of [Relation.batch r]'s vector in root order (ascending):
    the vector itself when it ascends, else sorted by one counting
    pass over the root's id range (a bucket sort over a root much
    wider than the vector). *)

val root_positions : Relation.t -> int array
(** The positions of [Relation.batch r]'s vector in root order: [p]
    before [q] when [sel.(p) < sel.(q)]. A fresh vector. *)

val group_ids : Relation.t -> int list -> int array * int
(** [group_ids r positions] is [(gid, groups)]: row [i] of [r] gets
    id [gid.(i)] in [\[0, groups)], and rows get the same id exactly
    when their cells at the column [positions] are pairwise equal
    under {!Value.compare}. Ids follow key order — a row whose cells
    are lexicographically smaller gets a smaller id (computed from
    the same per-column ranks as {!sort}). [groups] is at most the
    number of rows (no rows, no groups) but may exceed the number of
    distinct keys: ids need not be dense. *)

val grouping : Relation.t -> int list -> Relation.grouping
(** The grouping of [Relation.batch r] by the columns at [positions]:
    {!group_ids} over its selection vector, one group id per position.
    When a [Broadcast] column of the batch carries a
    grouping over this very selection vector (physically) and the
    same basis columns (the same base column, or physically the same
    computed or aggregate column), that grouping is returned instead
    and nothing is ranked. *)

