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

val dict_order : t -> int -> int array
(** The codes of dictionary-coded string column [j] in ascending
    string order ([String.compare], as {!Value.compare} orders
    strings): [dict.(order.(0))] is the smallest entry. Sorted on the
    first call and memoized with the image.
    @raise Invalid_argument when column [j] is not [Strings]. *)

type stats = { columns : int; specialized : int; dict_entries : int }

val stats : t -> stats
