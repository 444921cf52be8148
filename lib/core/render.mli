(** What the user sees of a spreadsheet, and its text rendering.

    "A chunk of the data set is visible on the screen — all of it is
    not likely to fit" (Section VI). {!page} is the one place that
    turns a materialization into that chunk: the visible columns with
    their header decorations and the visible cells of a window of
    rows, in presentation order. Every presentation — {!to_string},
    [Render_html], the TUI [Browser] and Sheetserve's [rows] — is a
    formatter over a page, and a window costs its own rows, not the
    whole sheet's.

    The text rendering mirrors the interface design of Section VI:
    column headers carry sort arrows ([^] ascending, [v] descending)
    and grouping-level markers ([*1], [*2], ... outermost first);
    computed columns are marked with [=]; horizontal rules separate
    finest-level groups. *)

open Sheet_rel

type column = {
  name : string;
  ty : Value.vtype;
  level : int option;
      (** 1-based position (outermost first) of the stored grouping
          level whose basis adds this column *)
  dir : Grouping.dir option;
      (** sort direction: the column's leaf ordering, else the
          direction of its grouping level *)
  computed : bool;
}

type page = {
  columns : column list;  (** the visible columns, in sheet order *)
  offset : int;  (** sheet index of [rows.(0)] *)
  rows : Row.t array;
      (** visible cells of the window's rows, in presentation order *)
  breaks : bool array;
      (** [breaks.(i)]: [rows.(i)] ends a finest-level group and
          [rows.(i + 1)] is in the window (never set on the last row,
          nor when the sheet has no grouping) *)
  total : int;  (** row count of the whole sheet *)
}

val page : ?offset:int -> ?limit:int -> Spreadsheet.t -> page
(** The window [\[offset, offset + limit)] of the cached
    materialization ({!Materialize.full_cached}), clamped to the
    sheet; [limit] defaults to the rest of the sheet. Only the
    window's rows are read ({!Sheet_rel.Relation.get}), projected and
    compared: a window over a batch-backed materialization builds its
    own rows and leaves the sheet's unbuilt. *)

val to_string : ?max_rows:int -> Spreadsheet.t -> string
(** Render the visible materialization: {!page}'s cells as
    {!Sheet_rel.Value.to_string} prints them, laid out by
    {!Sheet_rel.Table_print.render_cells} with a rule after each row
    whose break flag is set. [max_rows] renders the first [max_rows]
    rows and an ellipsis line ["... (<n> more rows)\n"] counting the
    rest. *)

val print : ?max_rows:int -> Spreadsheet.t -> unit

val status_line : Spreadsheet.t -> string
(** One-line summary: name, version, row count, grouping/order. *)
