(* sheetsql — a small SQL shell over the engine, with Theorem-1
   translation on demand.

   Usage:
     sheetsql                      cars example database
     sheetsql --tpch [sf]          generated TPC-H catalog (+ views)
     sheetsql a.csv b.csv ...      one table per CSV file

   Commands:
     <any core single-block SQL statement>;   run it
     \t <SQL>      show the spreadsheet-algebra translation, then run
                   it both ways and compare
     \profile <SQL>  translate, run through the plan executor, and
                   print its profile record (EXPLAIN ANALYZE)
     \doctor       Sheetdoctor anomaly detection over the profiles
                   recorded so far this session
     \timing       toggle per-statement wall-time reporting
     \flightrec [json|clear]   dump / export / reset the flight
                   recorder (a view over the profile ring)
     \slo [json]   evaluate the declared latency/error-rate SLOs
     \d            list tables
     \d <table>    describe a table
     \q            quit

   This is the "Navicat side" of the repository made tangible: the
   same queries the direct-manipulation REPL (bin/sheetmusiq.exe)
   builds step by step can be typed here as SQL — and \t shows the
   paper's Theorem-1 procedure turning them back into manipulation
   sequences. *)

open Sheet_rel
open Sheet_sql

let build_catalog () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "--tpch" then begin
    let sf =
      if Array.length argv > 2 then
        Option.value (float_of_string_opt argv.(2)) ~default:0.002
      else 0.002
    in
    Sheet_tpch.Tpch_views.install
      (Sheet_tpch.Tpch_gen.generate { Sheet_tpch.Tpch_gen.sf; seed = 42 })
  end
  else if Array.length argv > 1 then begin
    let catalog = Catalog.create () in
    Array.iteri
      (fun i path ->
        if i > 0 then
          let name =
            Filename.remove_extension (Filename.basename path)
          in
          match Csv.load_relation (Csv.read_file path) with
          | Ok rel -> Catalog.add catalog ~name rel
          | Error msg | (exception Sys_error msg) ->
              Printf.eprintf "skipping %s: %s\n" path msg)
      argv;
    catalog
  end
  else Catalog.of_list [ ("cars", Sample_cars.relation) ]

let list_tables catalog =
  List.iter
    (fun name ->
      let rel = Catalog.find_exn catalog name in
      Printf.printf "  %-24s %6d rows, %d columns\n" name
        (Relation.cardinality rel)
        (Schema.arity (Relation.schema rel)))
    (Catalog.names catalog)

let describe catalog name =
  match Catalog.find catalog name with
  | None -> Printf.printf "no table %S\n" name
  | Some rel ->
      List.iter
        (fun c ->
          Printf.printf "  %-24s %s\n" c.Schema.name
            (Value.type_name c.Schema.ty))
        (Schema.columns (Relation.schema rel))

let timing = ref false

let run_sql catalog sql =
  let result, ms =
    Sheet_obs.Obs.time (fun () -> Sql_executor.run_string catalog sql)
  in
  (match result with
  | Ok rel ->
      Table_print.print rel;
      Printf.printf "(%d rows)\n" (Relation.cardinality rel)
  | Error msg -> Printf.printf "error: %s\n" msg);
  if !timing then Printf.printf "Time: %.3f ms\n" ms

(* \profile: Theorem-1 translation, then the plan executor's profile
   record of the run — the SQL shell's EXPLAIN ANALYZE. *)
let profile_sql catalog sql =
  match Sql_parser.parse sql with
  | Error msg -> Printf.printf "parse error: %s\n" msg
  | Ok query -> (
      match Sql_to_sheet.translate catalog query with
      | Error msg -> Printf.printf "cannot translate: %s\n" msg
      | Ok plan -> (
          match Sql_to_sheet.session_of_plan catalog plan with
          | Error msg -> Printf.printf "error: %s\n" msg
          | Ok session ->
              let sheet = Sheet_core.Session.current session in
              let _rel, text =
                Sheet_core.Plan.explain_analyze
                  ~uid:sheet.Sheet_core.Spreadsheet.uid
                  (Sheet_core.Plan.of_sheet sheet)
              in
              print_endline text))

let translate_and_run catalog sql =
  match Sql_parser.parse sql with
  | Error msg -> Printf.printf "parse error: %s\n" msg
  | Ok query -> (
      match Sql_to_sheet.translate catalog query with
      | Error msg -> Printf.printf "cannot translate: %s\n" msg
      | Ok plan ->
          Printf.printf "-- start on spreadsheet %S, then:\n"
            plan.Sql_to_sheet.first_relation;
          List.iteri
            (fun i op ->
              Printf.printf "  %2d. %s\n" (i + 1)
                (Sheet_core.Op.describe op))
            plan.Sql_to_sheet.ops;
          (match
             ( Sql_executor.run catalog query,
               Sql_to_sheet.execute catalog query )
           with
          | Ok expected, Ok actual ->
              Table_print.print actual;
              if
                Relation.equal_unordered_data
                  (Relation.normalize expected)
                  (Relation.normalize actual)
              then print_endline "-- spreadsheet result matches SQL"
              else print_endline "-- MISMATCH against the SQL executor!"
          | Error msg, _ | _, Error msg ->
              Printf.printf "error: %s\n" msg))

let () =
  let catalog = build_catalog () in
  Printf.printf
    "sheetsql -- core single-block SQL over the spreadsheet engine.\n\
     Tables:\n";
  list_tables catalog;
  Printf.printf
    "\\d to list tables, \\t <sql> to translate, \\lint <sql> to analyze, \
     \\profile <sql> to time, \\doctor for anomaly detection, \\timing to \
     toggle, \\flightrec [json|clear] for the flight recorder, \\slo \
     [json] for the SLO report, \\q to quit.\n";
  let buffer = Buffer.create 256 in
  (try
     while true do
       Printf.printf (if Buffer.length buffer = 0 then "sql> %!" else "...> %!");
       let line = input_line stdin in
       let trimmed = String.trim line in
       if trimmed = "\\q" then raise Exit
       else if trimmed = "\\d" then list_tables catalog
       else if String.length trimmed > 3 && String.sub trimmed 0 3 = "\\d " then
         describe catalog (String.trim (String.sub trimmed 3 (String.length trimmed - 3)))
       else if String.length trimmed >= 3 && String.sub trimmed 0 3 = "\\t " then
         translate_and_run catalog
           (String.sub trimmed 3 (String.length trimmed - 3))
       else if trimmed = "\\timing" then begin
         timing := not !timing;
         Printf.printf "Timing is %s.\n" (if !timing then "on" else "off")
       end
       else if trimmed = "\\flightrec" then
         print_endline (Sheet_obs.Obs.Profile.render ())
       else if trimmed = "\\flightrec json" then
         print_endline
           (Sheet_obs.Obs_json.to_string (Sheet_obs.Obs.Profile.to_json ()))
       else if trimmed = "\\flightrec clear" then begin
         Sheet_obs.Obs.Profile.clear ();
         print_endline "flight recorder cleared"
       end
       else if trimmed = "\\doctor" then
         print_endline (Sheet_analysis.Doctor.render ())
       else if trimmed = "\\slo" then
         print_endline (Sheet_obs.Obs.Slo.render ())
       else if trimmed = "\\slo json" then
         print_endline
           (Sheet_obs.Obs_json.to_string (Sheet_obs.Obs.Slo.to_json ()))
       else if
         String.length trimmed >= 9 && String.sub trimmed 0 9 = "\\profile "
       then
         profile_sql catalog
           (String.sub trimmed 9 (String.length trimmed - 9))
       else if
         String.length trimmed >= 6 && String.sub trimmed 0 6 = "\\lint "
       then
         print_endline
           (Sheet_analysis.Sheetlint.render
              (Sheet_analysis.Sheetlint.sql_string catalog
                 (String.sub trimmed 6 (String.length trimmed - 6))))
       else begin
         Buffer.add_string buffer line;
         Buffer.add_char buffer ' ';
         if String.length trimmed > 0
            && trimmed.[String.length trimmed - 1] = ';' then begin
           let sql = Buffer.contents buffer in
           Buffer.clear buffer;
           run_sql catalog sql
         end
       end
     done
   with Exit | End_of_file -> ());
  print_endline "bye."
