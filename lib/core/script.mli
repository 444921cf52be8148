(** A small textual command language over sessions.

    Each line is one direct-manipulation action; this is the scripting
    equivalent of the mouse interactions of Section VI, used by the
    [sheetmusiq] REPL, the examples, and the tests.

    {v
    group <col>[, <col>...] [asc|desc]     -- τ: add a grouping level
    regroup <col>[, ...] [asc|desc]        -- destroy grouping, group afresh
    ungroup                                -- destroy grouping
    order <col> [asc|desc] [level <n>]     -- λ (default: finest level)
    order-groups <aggcol> [asc|desc]       -- order groups by an aggregate
    select <predicate>                     -- σ
    hide <col>                             -- π
    show <col>                             -- inverse projection
    agg <fn> [<col>] [level <n>] [as <name>]  -- η (count|sum|avg|min|max)
    formula [<name> =] <expr>              -- θ
    dedup                                  -- δ
    rename <old> <new>
    save <name> | open <name> | close <name>
    export <path> | import <path>          -- durable sheets (Persist)
    load <csv-path>                        -- start on a CSV file
    product <name> | union <name> | except <name>
    join <name> on <predicate>
    undo [n] | redo | goto <n> | history
    selections <col>                       -- list predicates on a column
    replace <sel-id> <predicate>           -- query modification
    drop-select <sel-id>
    drop-column <name>
    print [n]                              -- render (optionally first n rows)
    tree [n]                               -- nested group-tree view
    describe                               -- per-column data profile
    html <path>                            -- export a standalone HTML view
    explain                                -- the physical plan that runs
    status
    v}

    Blank lines and [#]-comments are ignored. *)

type outcome = {
  session : Session.t;
  output : string option;  (** text produced by informational commands *)
}

val run_line : Session.t -> string -> (outcome, string) result
(** Execute one command line. Engine refusals come back as [Error]
    with the user-facing message. *)

(** What a command line touches beyond its own session, parsed as
    {!run_line} parses it: a shell shared by many users (Sheetserve)
    refuses everything but [Sheet_only]. *)
type reach =
  | Sheet_only
  | Host_files
      (** reads or writes the file system: [load], [import], [export],
          [html], [trace export] *)
  | Process_telemetry
      (** changes telemetry for every session in the process:
          [trace mem|off] (and any other [trace] word but
          [status] and [export]), [flightrec clear] *)

val reach : string -> reach

val run : Session.t -> string -> (Session.t, string) result
(** Execute a whole script, printing informational output to stdout.
    Stops at the first error, reporting the line number. *)

val run_silent : Session.t -> string -> (Session.t, string) result
(** Like {!run} but discards informational output (for tests and
    benchmarks). *)
