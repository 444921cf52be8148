(** Multiset relations: a schema plus a bag of rows.

    The paper defines every spreadsheet operator against a relational
    counterpart with multiset semantics (Sec. III-B); this module is
    that substrate. The order of the rows is incidental — use
    {!normalize} or {!equal} for order-insensitive reasoning. The type
    is abstract so the rows can never be aliased into a mutated state.

    A relation has one of two representations:
    - {e row-backed}: a flat [Row.t array] (every constructor below
      but {!of_batch});
    - {e batch-backed} ({!of_batch}): a {!batch} — a selection vector
      over a row-backed base and a column map — whose rows are built
      on first row access. This is what the plan executor and the
      unary operators of [Rel_algebra] return, so a chain of them
      (and every cached materialization) never copies a row.

    On a batch-backed relation {!cardinality}, {!schema}, {!batch}
    and {!with_schema} never build rows; {!get} builds only the row
    asked for; {!to_array} (and everything that reads the whole bag:
    {!rows}, {!iter}, {!columnar_view}, {!normalize}, {!equal},
    {!pp}) builds every row once and memoizes them.

    A relation's Sheetcol image ({!columnar_view}) has one way in: it
    is built on the first call, whatever the relation's size or
    history, and memoized. The operators of [Rel_algebra] only ask
    for the image of a batch's base, which is row-backed. *)

type t

exception Relation_error of string

val make : Schema.t -> Row.t list -> t
(** @raise Relation_error when a row's width or value types disagree
    with the schema ([Null] fits every column). *)

val unsafe_make : Schema.t -> Row.t list -> t
(** No validation; for operators whose output is correct by
    construction. *)

val of_array : Schema.t -> Row.t array -> t
(** Validating constructor from an array. The array is owned by the
    relation afterwards and must not be mutated by the caller.
    @raise Relation_error as {!make}. *)

val unsafe_of_array : Schema.t -> Row.t array -> t
(** No validation, no copy: the array is owned by the relation and
    must not be mutated afterwards. This is the fast path every
    operator uses for its output. *)

val empty : Schema.t -> t

(** {2 Batches} *)

type col =
  | Base of int  (** column [j] of the base *)
  | Computed of Column.t
      (** a computed column, {e positional}: cell [p] belongs to
          position [p] of the batch's selection vector, so it holds
          exactly as many cells as the vector. A formula the typed
          kernel ({!Col_expr}) computes is an [Ints], [Floats] or
          [Dates] column with a validity bitmap; any other is
          [Boxed]. *)
  | Broadcast of { grouping : grouping; values : Value.t array }
      (** a column broadcast from per-group values (an aggregate):
          the cell at position [p] is [values.(grouping.group.(p))] *)

and grouping = {
  over : int array;
      (** the selection vector it numbers — physically the batch's
          [sel] *)
  keys : col array;  (** the basis columns it was computed from *)
  group : int array;
      (** group id by position in [over], in [\[0, groups)]: as
          long as [over], like a [Computed] column *)
  groups : int;
}
(** The grouping of one aggregate level. It travels with the batch on
    its [Broadcast] columns, so a later aggregate over the same vector
    and basis reuses it ({!Rel_algebra.grouping}), and a sort or
    duplicate elimination over its basis reads its ids instead of
    ranking the basis. An operator that makes a new vector gathers
    the grouping with it, once for all the columns that share it, so
    they still share one. *)

type batch = {
  base : t;  (** always row-backed *)
  sel : int array;
      (** selection vector: the base row ids of the relation's rows,
          in order, each at most once *)
  cols : col array;  (** column map, one entry per schema column *)
}
(** Row [i] of a batch-backed relation is base row [sel.(i)], read
    through [cols]: its base cells are the base row's own values (when
    the map is the base's columns in order, the row is the base row
    itself, physically), and its computed and aggregate cells are
    their columns' cells at position [i] (a typed one is boxed when
    the row is built). Every [Computed] column and every [group] array
    of a batch is exactly as long as its [sel]: an operator that
    narrows, permutes or thins the vector gathers them along with
    it ([Rel_algebra]). *)

val of_batch : Schema.t -> batch -> t
(** A batch-backed relation; [schema] names [cols], one to one. No
    row is built.
    @raise Invalid_argument when [base] is batch-backed. *)

val batch : t -> batch
(** A batch-backed relation's own batch; a row-backed relation as the
    identity batch over itself (selection vector [0..n-1], every column
    in order), built on the first call and memoized. The base of the
    result is always row-backed, so operators over a batch-backed
    relation extend its batch. A batch's vector may be shared: no
    operator writes one in place. *)

val rows_built : t -> bool
(** Whether the rows exist yet: always for a row-backed relation,
    after the first {!to_array} (or {!rows}, ...) for a batch-backed
    one. *)

(** {2 Access} *)

val cardinality : t -> int
val schema : t -> Schema.t

val rows : t -> Row.t list
(** Rows as a list — the source-compatible accessor renderers and
    tests use. Memoized: the conversion runs once per relation and
    repeated calls return the same (physically equal) list. *)

val to_array : t -> Row.t array
(** The rows, in order: a row-backed relation's array itself; a
    batch-backed relation's rows, built on the first call and
    memoized, so repeated calls return the same (physically equal)
    array. Treat it as read-only: mutating it breaks relation
    immutability and the materialization cache. *)

val get : t -> int -> Row.t
(** [get t i] is row [i] in storage order, equal to
    [(to_array t).(i)]. On a batch-backed relation whose rows are not
    built yet it builds that row alone (a fresh one unless the map is
    the identity).
    @raise Invalid_argument when [i] is out of range. *)

val iter : (Row.t -> unit) -> t -> unit

val with_schema : Schema.t -> t -> t
(** Same rows under a different (same-arity) schema — zero-copy rename. *)

val columnar_view : t -> Columnar.t
(** The relation's Sheetcol image, built on the first call and
    memoized (relations are immutable, so the image can never go
    stale).
    @raise Invalid_argument when a row's width is not the schema's
    arity (possible only through the unsafe constructors). *)

val column_values : t -> string -> Value.t list
(** All values of a column, in row order. *)

val normalize : t -> t
(** Rows sorted under {!Row.compare}; canonical form of the multiset. *)

val equal : t -> t -> bool
(** Multiset equality: same schema (names and types) and same rows
    regardless of order. *)

val equal_unordered_data : t -> t -> bool
(** Multiset equality of the data only — column names must match but
    types may differ where values still compare equal (used to compare
    SQL results with spreadsheet results, where e.g. an AVG column may
    be [TFloat] on both sides but an int-typed constant column can
    surface as [TInt] vs [TFloat]). *)

val pp : Format.formatter -> t -> unit
