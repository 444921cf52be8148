(* A downstream-user scenario on a fresh domain: course analytics over
   a gradebook CSV — no car dealerships, no TPC-H, just the library as
   an adopter would use it.

   Run with:  dune exec examples/gradebook.exe

   Demonstrates: CSV loading with type inference, column profiling,
   CASE formulas (letter grades), grouping + aggregation, ordering
   groups by an aggregate (order-groups extension), HAVING-style
   selection, and the inverse translation showing the SQL the session
   is equivalent to. *)

open Sheet_rel
open Sheet_core

let gradebook_csv =
  {|student,section,assignment,score
Ada,A,hw1,92
Ada,A,hw2,88
Ada,A,final,95
Grace,A,hw1,78
Grace,A,hw2,84
Grace,A,final,80
Edsger,B,hw1,99
Edsger,B,hw2,97
Edsger,B,final,98
Alan,B,hw1,65
Alan,B,hw2,70
Alan,B,final,58
Barbara,C,hw1,85
Barbara,C,hw2,91
Barbara,C,final,89
Donald,C,hw1,72
Donald,C,hw2,68
Donald,C,final,75
|}

let run session command =
  match Script.run_silent session command with
  | Ok session -> session
  | Error msg -> failwith (command ^ ": " ^ msg)

let show title session =
  Printf.printf "\n=== %s ===\n\n" title;
  Render.print (Session.current session)

let () =
  let rel = Result.get_ok (Csv.load_relation gradebook_csv) in
  let session = Session.create ~name:"gradebook" rel in

  Printf.printf "Column profile (types were inferred from the CSV):\n\n";
  print_string (Profile.render rel);

  (* per-student average, students ranked inside each section *)
  let session =
    run session
      {|group section asc
group student asc
agg avg score level 3 as student_avg
order-groups student_avg desc|}
  in
  show "Per-student averages, best students first within a section"
    session;

  (* letter grades via CASE, then the distribution per section *)
  let session =
    run session
      {|formula letter = CASE WHEN student_avg >= 90 THEN 'A' WHEN student_avg >= 80 THEN 'B' WHEN student_avg >= 70 THEN 'C' ELSE 'F' END|}
  in
  show "With CASE-derived letter grades" session;

  (* which sections average at least 80 overall? HAVING by touch *)
  let session2 =
    run (Session.create ~name:"gradebook" rel)
      {|group section asc
agg avg score level 2 as section_avg
select section_avg >= 80
hide student
hide assignment
hide score|}
  in
  show "Sections averaging >= 80 (a HAVING query, zero SQL)" session2;

  (* ...and the SQL this session is equivalent to *)
  (match
     Sheet_sql.Sql_of_sheet.to_string ~table:"gradebook"
       (Session.current session2)
   with
  | Ok sql -> Printf.printf "\nEquivalent single-block SQL:\n%s\n" sql
  | Error reason -> Printf.printf "\n(not single-block: %s)\n" reason);

  (* prove it: run that SQL against the same data *)
  match
    Sheet_sql.Sql_of_sheet.compile ~table:"gradebook"
      (Session.current session2)
  with
  | Error _ -> ()
  | Ok q ->
      let catalog = Sheet_sql.Catalog.of_list [ ("gradebook", rel) ] in
      (match Sheet_sql.Sql_executor.run catalog q with
      | Ok result ->
          Printf.printf "\nSQL engine agrees:\n";
          Table_print.print result
      | Error msg -> Printf.printf "sql failed: %s\n" msg)
