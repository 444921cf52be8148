(** Durable spreadsheets: serialize a spreadsheet — base relation and
    complete query state — to a single text file and load it back.

    This backs the Save/Open housekeeping operators (Sec. III-C) with
    real storage: a saved sheet survives the session, and loading it
    restores not just the data but the {e modifiable} query state —
    selections can still be replaced, hidden columns restored,
    aggregates redefined.

    Format (version 1, line-oriented header followed by CSV data):
    {v
    musiq-sheet v1
    name <display name>
    base_name <R description>
    version <j>
    selection <id> <predicate>
    hidden <column>
    computed agg <ty> <level> <name> = <fn>(<column> or star)
    computed formula <ty> <name> = <expression>
    dedup
    group <ASC|DESC> <col>[,<col>...]
    leaf <ASC|DESC> <column>
    data
    <CSV with a  name:type  header>
    v}

    A saved file is user input, so the readers are total: malformed
    text and I/O failures come back as [Error], never as an
    exception. *)

val to_string : Spreadsheet.t -> string

val of_string : string -> (Spreadsheet.t, string) result
(** [Error] names the first fault in the text. *)

val save : Spreadsheet.t -> path:string -> (unit, string) result
val load : path:string -> (Spreadsheet.t, string) result
(** [Error] on malformed text or when the file cannot be read. *)
