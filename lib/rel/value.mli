(** Typed atomic values stored in spreadsheet and relation cells.

    The value domain follows the paper's examples: integers, floating
    point numbers, strings, booleans and calendar dates, plus SQL-style
    [Null]. Dates are stored as days since the Unix epoch (negative
    values reach before 1970), which keeps comparison and arithmetic
    trivial. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int  (** days since 1970-01-01 *)

(** Runtime types of values. [Null] inhabits every type. *)
type vtype = TBool | TInt | TFloat | TString | TDate

val type_of : t -> vtype option
(** [type_of v] is [None] for [Null], [Some ty] otherwise. *)

val type_name : vtype -> string

val is_null : t -> bool

val numeric : vtype -> bool
(** [numeric ty] holds for [TInt] and [TFloat]. *)

val subtype : vtype -> vtype -> bool
(** [subtype a b] — a value of type [a] may be used where [b] is
    expected ([TInt] is a subtype of [TFloat]; every type of itself). *)

val unify : vtype -> vtype -> vtype option
(** Least common supertype of two types, if any. *)

val compare : t -> t -> int
(** Total order used for sorting and multiset normalization. [Null]
    sorts after every non-null value; [Int] and [Float] compare
    numerically across constructors; distinct incomparable types
    compare by an arbitrary fixed type rank. *)

val equal : t -> t -> bool
(** Equality consistent with {!compare} (so [Int 1] equals
    [Float 1.0]). *)

val sql_compare : t -> t -> int option
(** SQL-flavoured comparison used by predicates: [None] whenever
    either side is [Null] or the types are incomparable, otherwise
    [Some c] with [c] as {!compare}. *)

val sql_comparable : t -> t -> bool
(** [sql_compare a b <> None], without building the option. *)

val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed on value equality ({!equal} + {!hash}), so
    numerically equal [Int]/[Float] values key the same slot and hash
    collisions between distinct values are resolved by the table. *)

val to_float : t -> float option
(** Numeric view of a value, [None] for non-numeric or [Null]. *)

val of_ymd : int -> int -> int -> t
(** [of_ymd y m d] builds a [Date] from a civil calendar date
    (proleptic Gregorian). *)

val ymd_of_days : int -> int * int * int
(** Inverse of the civil-from-days calculation. *)

val to_string : t -> string
(** Display form, byte for byte these Printf forms (which are the
    specification; only years outside 0–9999 are printed through
    Printf itself):
    - [Float f]: [Printf.sprintf "%.1f" f] when [Float.is_integer f]
      and [Float.abs f < 1e15], else [Printf.sprintf "%.6g" f]
      (["nan"], ["inf"], ["-inf"] for non-finite floats);
    - [Date d]: [Printf.sprintf "%04d-%02d-%02d" y m d] of
      {!ymd_of_days};
    - [Int i]: [string_of_int i]; [Bool b]: ["true"] / ["false"];
      [String s]: [s] itself; [Null]: ["NULL"]. *)

val to_csv_string : t -> string
(** CSV cell form (no quoting applied; [Null] is the empty string). *)

val pp : Format.formatter -> t -> unit

val parse_typed : vtype -> string -> t option
(** [parse_typed ty s] parses [s] as a value of type [ty]; the empty
    string parses as [Null]. *)

val parse_guess : string -> t
(** Best-effort parse used by the CSV loader: tries bool, int, float,
    date, falls back to string; empty string is [Null]. *)
