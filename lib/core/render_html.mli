(** Standalone HTML rendering of a spreadsheet.

    Produces a self-contained page (inline CSS, no scripts) with the
    visual vocabulary of Sec. VI: sort arrows in headers, grouping-
    level badges, computed columns tinted, finest-level groups
    separated by heavier rules, alternating group backgrounds — all
    read off the whole-sheet {!Render.page}. Used by the REPL's
    [html <path>] command to hand a result to someone outside the
    terminal. *)

val to_html : ?title:string -> Spreadsheet.t -> string
(** The complete document. *)

val save : ?title:string -> Spreadsheet.t -> path:string -> unit
(** @raise Sys_error on I/O failure. *)
