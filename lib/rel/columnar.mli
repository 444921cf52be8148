(** Columnar image of a rectangular row array (Sheetcol).

    Every {!Column.get} cell of an image equals the row's cell with the
    same constructor (qcheck-tested). Ragged rows have no image. *)

type t

val of_rows : width:int -> Row.t array -> t
(** Materialize [width] columns (typically the schema arity). Feeds
    the [columnar.*] Obs counters.
    @raise Invalid_argument when a row has another width — checked
    before any column is built. *)

val column : t -> int -> Column.t

val dict_order : t -> int -> int array
(** The codes of dictionary-coded string column [j] in ascending
    string order ([String.compare], as {!Value.compare} orders
    strings): [dict.(order.(0))] is the smallest entry. Sorted on the
    first call and memoized with the image.
    @raise Invalid_argument when column [j] is not [Strings]. *)
