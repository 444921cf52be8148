(** The direct-manipulation browser: a pure view-model for a
    full-screen spreadsheet UI.

    This is the closest this repository comes to the SheetMusiq
    prototype's screen: a cell cursor over the visible materialization,
    single-key operators applied to "what you are touching", a
    contextual menu on demand, and a command line for everything the
    Script language can say. The model is pure — `handle` maps a state
    and an input event to a new state — so the whole interaction logic
    is unit-testable; `bin/sheetmusiq_tui.exe` is a thin terminal loop
    around it.

    Keys (grid mode):
    - arrows / page movement: move the cell cursor;
    - [f] filter to the cell's value (Sec. VI "Selection": click a
      cell, filter on its value);
    - [s] sort by the cursor column (repeated presses flip the
      direction — Sec. VI "Ordering");
    - [g] add the cursor column to the grouping;
    - [a] average the cursor column per finest group (the Fig. 1
      shortcut); [c] count rows per finest group;
    - [h] hide the cursor column;
    - [u] undo, [r] redo;
    - [m] open the contextual menu for the cursor column;
    - [:] open the command line (any Script command);
    - [F] open the Sheetscope flight-recorder pane (Esc closes);
    - [q] quit. *)

open Sheet_rel
open Sheet_core

type mode =
  | Grid
  | Menu of { items : Context_menu.item list; selected : int }
  | Command of string  (** text typed so far *)
  | Recorder  (** full-screen flight-recorder pane *)

type t = {
  session : Session.t;
  row : int;  (** cursor row within the sheet, in presentation order *)
  col : int;  (** cursor column index within visible columns *)
  top : int;  (** first visible data row (scrolling) *)
  mode : mode;
  message : string;  (** status / error line *)
  last_ms : float option;
      (** wall time of the last command-line/keystroke command,
          rendered as a "last N ms" segment of the status line *)
  quit : bool;
}

type event =
  | Up
  | Down
  | Left
  | Right
  | Page_down
  | Page_up
  | Enter
  | Escape
  | Backspace
  | Key of char

val init : Session.t -> t

val handle : ?page:int -> t -> event -> t
(** Process one input event; [page] is the grid height used for
    paging and scroll clamping (default 20). *)

val cursor_cell : t -> (string * Value.t) option
(** Column name and value under the cursor; [None] on an empty
    sheet. *)

val render_text : ?width:int -> ?height:int -> t -> string
(** Plain-text rendering of the full screen (status line, grid with
    cursor brackets, menu or command line) — used by the terminal
    front end and by tests. The grid is a {!Sheet_core.Render.page}
    window of [height - 4] rows from [top]; column widths fit the
    header and the cells on screen. *)
