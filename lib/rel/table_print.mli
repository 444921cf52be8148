(** ASCII table rendering for relations and arbitrary cell grids.

    The spreadsheet renderer in [Sheet_core.Render] builds on
    {!render_cells} to add group separators and header decorations. *)

val render_cells :
  ?align_right:bool array ->
  header:string array ->
  ?breaks:bool array ->
  ?footer:string ->
  string array array ->
  string
(** Render a grid with a header, column-width padding, and horizontal
    rules. Every row has one cell per header column. The exact text:
    with [w.(i)] the widest of column [i]'s header and cells, a rule
    is ["+"] ^ [w.(i) + 2] dashes for each column, then ["+\n"]; a row
    is ["| "] ^ the cell padded with blanks to [w.(i)] ^ [" "] for
    each column, then ["|\n"]. The table is a rule, the header row, a
    rule, each data row (followed by a rule when [breaks.(i)] holds),
    a closing rule, then [footer] (default empty). [align_right]
    flags columns whose cells are padded on the left (default: all
    padded on the right). [breaks] (default: none) marks the 0-based
    data rows that end a group. *)

val render : Relation.t -> string
(** Render a relation; numeric columns are right-aligned. *)

val print : Relation.t -> unit
