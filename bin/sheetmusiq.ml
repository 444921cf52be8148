(* SheetMusiq — an interactive direct-manipulation query session in
   the terminal.

   The prototype of Sec. VI drove a spreadsheet with mouse clicks; this
   REPL drives the same engine with the Script command language (each
   line is one manipulation) and re-renders the sheet after every
   step, honoring the direct-manipulation principles: continuous
   presentation, small reversible steps, immediate feedback.

   Usage:
     sheetmusiq                      start on the used-car example
     sheetmusiq <file.csv>           start on a CSV file
     sheetmusiq --tpch [<table>]     start on a TPC-H table/view

   Extra REPL commands on top of the Script language:
     menu [<column>]   show the contextual menu (right-click model)
     sheets            list stored spreadsheets
     help              command summary
     quit              exit *)

open Sheet_rel
open Sheet_core

let help_text =
  {|Data manipulation (one step per line):
  select <predicate>              e.g. select Price < 16000 AND Year = 2005
  group <col>[, <col>...] [desc]  add a grouping level
  regroup <cols> / ungroup        replace / remove grouping
  order <col> [asc|desc] [level <n>]
  agg <fn> [<col>] [level <n>] [as <name>]   fn: count sum avg min max
  formula <name> = <expr>         e.g. formula revenue = price * quantity
  hide <col> / show <col>         projection and its inverse
  dedup                           duplicate elimination
  rename <old> <new>
Stored sheets and binary operators:
  save <name> / open <name> / close <name> / sheets
  product <name> | union <name> | except <name> | join <name> on <cond>
Query modification (Sec. V):
  selections <col>                list predicates applied to a column
  replace <id> <predicate>        rewrite history for one selection
  drop-select <id> / drop-column <name>
History:
  history | undo [n] | redo
Durable sheets:
  export <path> | import <path>
Display:
  print [n] | status | tree [n] | describe | menu [<col>] | help | quit
  sql                             show the single-block SQL equivalent
  lint                            static analysis of the current query state
Observability (Sheetscope):
  explain                         show the plan that runs
  explain analyze | profile       run the plan, per-node rows and timings
  profile last|<uid>|json         Sheetdoctor execution profiles (path
                                  attribution, cache/strategy, allocations)
  doctor                          anomaly detection over recorded profiles
  metrics                         counters, gauges, latency percentiles
  slo [json]                      evaluate latency/error-rate SLOs
  flightrec [json|clear]          flight recorder: the last 512 profile-ring
                                  records, one line each; clear empties it
  trace [status|mem|off]          span tracing sink control
  trace export <path>             write Chrome trace_event JSON|}

let load_initial () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "--tpch" then begin
    let name = if Array.length argv > 2 then argv.(2) else "lineitem" in
    let catalog =
      Sheet_tpch.Tpch_views.install
        (Sheet_tpch.Tpch_gen.generate
           { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 })
    in
    match Sheet_sql.Catalog.find catalog name with
    | Some rel ->
        let session = Session.create ~name rel in
        (* make the other tables available for binary operators *)
        List.iter
          (fun n ->
            Store.save (Session.store session) ~name:n
              (Spreadsheet.of_relation ~name:n
                 (Sheet_sql.Catalog.find_exn catalog n)))
          (Sheet_sql.Catalog.names catalog);
        session
    | None ->
        Printf.eprintf "unknown TPC-H table %S\n" name;
        exit 2
  end
  else if Array.length argv > 1 then begin
    let path = argv.(1) in
    match Csv.load_relation (Csv.read_file path) with
    | Ok rel -> Session.create ~name:(Filename.basename path) rel
    | Error msg | (exception Sys_error msg) ->
        Printf.eprintf "cannot load %s: %s\n" path msg;
        exit 2
  end
  else Session.create ~name:"cars" Sample_cars.relation

let show session = Render.print ~max_rows:25 (Session.current session)

let handle_extra session line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "menu" ] ->
      print_endline
        (Sheet_ui.Context_menu.describe
           (Sheet_ui.Context_menu.menu
              ~stored:(Store.names (Session.store session))
              (Session.current session) Sheet_ui.Context_menu.Sheet));
      true
  | [ "menu"; col ] ->
      print_endline
        (Sheet_ui.Context_menu.describe
           (Sheet_ui.Context_menu.menu
              ~stored:(Store.names (Session.store session))
              (Session.current session)
              (Sheet_ui.Context_menu.Header col)));
      true
  | [ "sql" ] ->
      (match
         Sheet_sql.Sql_of_sheet.to_string
           ~table:(Session.current session).Spreadsheet.base_name
           (Session.current session)
       with
      | Ok sql -> print_endline sql
      | Error reason -> Printf.printf "not a single-block query: %s\n" reason);
      true
  | [ "lint" ] ->
      print_endline
        (Sheet_analysis.Sheetlint.render
           (Sheet_analysis.Sheetlint.session session));
      true
  | [ "doctor" ] ->
      print_endline (Sheet_analysis.Doctor.render ());
      true
  | [ "sheets" ] ->
      (match Store.names (Session.store session) with
      | [] -> print_endline "(no stored spreadsheets)"
      | names -> print_endline (String.concat "\n" names));
      true
  | [ "help" ] ->
      print_endline help_text;
      true
  | _ -> false

let () =
  let session = ref (load_initial ()) in
  Printf.printf "SheetMusiq -- direct data manipulation. 'help' for \
                 commands, 'quit' to exit.\n\n";
  show !session;
  (try
     while true do
       Printf.printf "\nmusiq> %!";
       let line = input_line stdin in
       let trimmed = String.trim line in
       if trimmed = "quit" || trimmed = "exit" then raise Exit
       else if trimmed = "" then ()
       else if handle_extra !session line then ()
       else
         match Script.run_line !session line with
         | Ok { Script.session = s; output } ->
             session := s;
             (match output with
             | Some text -> print_endline text
             | None -> show !session)
         | Error msg -> Printf.printf "error: %s\n" msg
     done
   with Exit | End_of_file -> ());
  print_endline "bye."
