(** One type-specialized column (Sheetcol).

    The representation is exposed so {!Col_pred} can compile
    predicates directly against the unboxed arrays; everyone else
    should treat values through {!get}. *)

type repr =
  | Ints of int array
  | Floats of float array
  | Dates of int array
  | Bools of bool array
  | Strings of { codes : int array; dict : string array }
      (** Dictionary coding: [dict.(codes.(i))] is row [i]'s string;
          codes under a null bit are 0 and meaningless. *)
  | Boxed of Value.t array
      (** Fallback for mixed-constructor, all-null or empty columns;
          nulls stay inline and [validity] is [None]. *)

type t = { repr : repr; validity : Bytes.t option }
(** [validity]: bit [i] set = row [i] is non-null; [None] = all rows
    valid (or [Boxed]). *)

val of_values : Value.t array -> t
(** Materialize a column. Specializes only when every non-null cell
    carries the same constructor, so {!get} reproduces the input
    exactly (an [Int] in a float-typed column keeps its constructor
    via [Boxed]). The caller cedes ownership of the array. *)

val get : t -> int -> Value.t
(** Row [i]'s value, [Value.Null] under a cleared validity bit. *)

val length : t -> int

val gather : t -> int array -> int -> t
(** [gather c idx n]: a fresh column of [n] cells, cell [j] being
    [c]'s cell [idx.(j)] (a [Strings] column keeps its dictionary). The validity bitmap is [None] when no gathered cell
    is null. *)

val valid_bit : Bytes.t -> int -> bool
(** Raw bitmap test (for compiled predicate loops). *)

val kind_name : t -> string
(** ["int" | "float" | "date" | "bool" | "string" | "boxed"]. *)

val dict_size : t -> int
(** Number of distinct dictionary entries; 0 for non-string columns. *)

val dict_order : string array -> int array
(** The codes of a dictionary in ascending string order. *)
