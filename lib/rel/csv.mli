(** Minimal RFC-4180-style CSV reading and writing.

    Quoted fields with embedded commas, quotes (doubled) and newlines
    are supported. Used to load example datasets and to export
    spreadsheets. *)

val parse_string : string -> (string list list, string) result
(** Parse CSV text into rows of fields. A trailing newline does not
    produce an empty record. [Error] on an unterminated quoted field;
    it never raises. *)

val load_relation :
  ?schema:Schema.t -> string -> (Relation.t, string) result
(** Build a relation from CSV text whose first record is the header.
    Without [schema], column types are inferred from the data (the
    narrowest of bool/int/float/date/string that fits every non-empty
    cell; empty cells are [Null]). [Error] on empty input, an
    unterminated quote, ragged rows, a duplicate column name, or cells
    that do not parse under the given schema; it never raises. *)

val of_relation : Relation.t -> string
(** Render a relation as CSV with a header record. *)

val read_file : string -> string
val write_file : string -> string -> unit
