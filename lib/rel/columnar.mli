(** Columnar image of a row array (Sheetcol).

    [to_rows (of_rows rows)] reproduces [rows] exactly — same value
    constructors, same per-row widths — including ragged and
    NULL-heavy inputs (qcheck-tested). Images of ragged inputs are
    non-{!uniform}; the engine only compiles predicates against
    uniform images whose width matches the relation's arity. *)

type t

val of_rows : ?width:int -> Row.t array -> t
(** Materialize columns. [width] (typically the schema arity) sets a
    minimum column count; shorter/longer rows are padded with nulls
    per column and their true widths recorded. Feeds the
    [columnar.*] Obs counters. *)

val to_rows : t -> Row.t array
(** Exact inverse of {!of_rows}. Fresh rows — used by the round-trip
    tests; engine paths keep the original row pointers instead. *)

val nrows : t -> int
val width : t -> int

val uniform : t -> bool
(** Every row had exactly [width t] cells. *)

val column : t -> int -> Column.t

val select_cols : t -> int array -> t
(** Zero-copy column subset (projection push-through).
    @raise Invalid_argument on a non-uniform image. *)

type stats = { columns : int; specialized : int; dict_entries : int }

val stats : t -> stats
