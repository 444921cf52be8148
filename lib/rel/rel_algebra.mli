(** Relational algebra with multiset semantics.

    These are the relational counterparts (subscript "r" in the paper)
    that the spreadsheet operators are defined against: selection
    [σ_r], projection [π_r], product [×_r], union [∪_r], difference
    [−_r], join [⋈_r], plus sorting, duplicate elimination and the
    row grouping the SQL executor and the group tree build on. *)

exception Algebra_error of string

val select : Expr.t -> Relation.t -> Relation.t
(** [σ_r]: keep rows satisfying the (aggregate-free) predicate.
    Runs columnar (compiled selection vectors over the relation's
    Sheetcol image, morsel-parallel) when the predicate compiles,
    with a row-at-a-time fallback that is observationally identical.
    @raise Algebra_error on an ill-typed predicate. *)

val compile_filter :
  Relation.t -> Expr.t list -> (unit -> Row.t array) option
(** The columnar strategy alone: [Some run] when every predicate
    compiles against the relation's image — forcing [run] yields the
    surviving rows (originals, in order) — [None] otherwise. The plan
    executor compiles first so that only a filter that really runs
    columnar is timed and recorded as one. *)

val columnar_filter : Relation.t -> Expr.t list -> Row.t array option
(** {!compile_filter}, run at once. *)

val project : string list -> Relation.t -> Relation.t
(** [π_r]: keep the named columns in the given order; duplicates are
    NOT eliminated (multiset semantics). *)

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
(** Remove duplicate rows, keeping the first occurrence of each. *)

val sort : (string * [ `Asc | `Desc ]) list -> Relation.t -> Relation.t
(** Stable sort by the given key columns under {!Value.compare};
    [Null]s sort last in ascending order. Rows and order equal a
    stable comparison sort's, ties included ([Int 3] and [Float 3.0]
    tie). Column at a time: each key column is ranked once into ints
    that order as {!Value.compare} orders its cells — int and date
    columns by offset from their minimum, anything else by hashing its
    distinct values and sorting only those — and descending keys flip
    their ranks. The ranks are combined into one order-preserving int
    key (as in {!group_ids}), a row-index permutation is
    LSD-radix-sorted on it, and the rows are gathered once. No keys or
    fewer than two rows return the relation itself. *)

val group_ids : Row.t array -> int list -> int array * int
(** [group_ids rows positions] is [(gid, groups)]: rows get the same
    id in [\[0, groups)] exactly when their cells at [positions] are
    pairwise equal under {!Value.compare}, and ids follow key order —
    a row whose cells are lexicographically smaller gets a smaller id
    (computed from the same per-column ranks as {!sort}). [groups] is
    at most the number of rows (no rows, no groups) but may exceed the
    number of distinct keys: ids need not be dense. *)

val group_rows : string list -> Relation.t -> (Row.t * Row.t list) list
(** Partition rows by equality on the given columns. Each element is
    (representative key row restricted to the grouping columns, rows
    of the group); groups appear in first-occurrence order. *)
