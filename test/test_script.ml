(* Tests of the Script command language: parsing of each command form,
   informational outputs, error reporting with line numbers. *)

open Sheet_rel
open Sheet_core

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let session () = Session.create ~name:"cars" Sample_cars.relation

let run s script =
  match Script.run_silent s script with
  | Ok s -> s
  | Error msg -> Alcotest.failf "script failed: %s" msg

let line s text =
  match Script.run_line s text with
  | Ok o -> o
  | Error msg -> Alcotest.failf "line failed: %s" msg

let expect_line_error s text =
  match Script.run_line s text with
  | Ok _ -> Alcotest.failf "expected failure: %s" text
  | Error msg -> msg

let test_group_forms () =
  let s = run (session ()) "group Model, Year desc" in
  let g = Spreadsheet.grouping (Session.current s) in
  Alcotest.(check (list string)) "multi-column basis" [ "Model"; "Year" ]
    (Grouping.finest_basis g);
  (match g.Grouping.levels with
  | [ lv ] -> Alcotest.(check bool) "desc" true (lv.Grouping.dir = Grouping.Desc)
  | _ -> Alcotest.fail "one level expected");
  (* default direction is ascending *)
  let s2 = run (session ()) "group Model" in
  (match (Spreadsheet.grouping (Session.current s2)).Grouping.levels with
  | [ lv ] -> Alcotest.(check bool) "asc default" true (lv.Grouping.dir = Grouping.Asc)
  | _ -> Alcotest.fail "one level expected")

let test_order_forms () =
  let s = run (session ()) "group Model asc\norder Price desc level 2" in
  let g = Spreadsheet.grouping (Session.current s) in
  Alcotest.(check (list (pair string bool))) "leaf"
    [ ("Price", false) ]
    (List.map (fun (a, d) -> (a, d = Grouping.Asc)) g.Grouping.leaf_order);
  (* default level = finest *)
  let s2 = run (session ()) "order Mileage" in
  let g2 = Spreadsheet.grouping (Session.current s2) in
  Alcotest.(check bool) "leaf default" true
    (List.mem_assoc "Mileage" g2.Grouping.leaf_order)

let test_agg_forms () =
  let s =
    run (session ())
      "group Model asc\nagg count\nagg count ID as ids\nagg avg Price \
       level 2 as ap"
  in
  let names = Schema.names (Spreadsheet.full_schema (Session.current s)) in
  Alcotest.(check bool) "count(*) column" true (List.mem "Count" names);
  Alcotest.(check bool) "count(ID) alias" true (List.mem "ids" names);
  Alcotest.(check bool) "avg alias" true (List.mem "ap" names)

let test_formula_forms () =
  let s = run (session ()) "formula total = Price + Mileage" in
  Alcotest.(check bool) "named formula" true
    (Schema.mem (Spreadsheet.full_schema (Session.current s)) "total");
  let s2 = run (session ()) "formula Price * 2" in
  Alcotest.(check bool) "anonymous formula gets F1" true
    (Schema.mem (Spreadsheet.full_schema (Session.current s2)) "F1");
  (* '=' inside a comparison does not create a name *)
  let s3 = run (session ()) "formula CASE WHEN Year = 2005 THEN 1 ELSE 0 END" in
  Alcotest.(check bool) "condition kept whole" true
    (Schema.mem (Spreadsheet.full_schema (Session.current s3)) "F1")

let test_informational_commands () =
  let s = run (session ()) "select Year = 2005\ngroup Model asc" in
  let o = line s "history" in
  Alcotest.(check bool) "history lists ops" true
    (match o.Script.output with
    | Some text -> contains text "Select Year = 2005"
    | None -> false);
  let o = line s "selections Year" in
  Alcotest.(check bool) "selections listed" true
    (match o.Script.output with
    | Some text -> contains text "#1"
    | None -> false);
  let o = line s "selections Price" in
  Alcotest.(check bool) "empty selections message" true
    (match o.Script.output with
    | Some text -> contains text "no selections"
    | None -> false);
  let o = line s "status" in
  Alcotest.(check bool) "status output" true (Option.is_some o.Script.output);
  let o = line s "print 3" in
  Alcotest.(check bool) "print output" true
    (match o.Script.output with
    | Some text -> contains text "more rows"
    | None -> false)

let test_error_reporting () =
  (match Script.run_silent (session ()) "select Year = 2005\nbogus cmd" with
  | Error msg ->
      Alcotest.(check bool) "line number reported" true
        (contains msg "line 2")
  | Ok _ -> Alcotest.fail "expected error");
  let msg = expect_line_error (session ()) "order" in
  Alcotest.(check bool) "order arity" true (contains msg "expected column");
  let msg = expect_line_error (session ()) "agg frobnicate Price" in
  Alcotest.(check bool) "unknown aggregate" true (contains msg "frobnicate");
  let msg = expect_line_error (session ()) "rename onlyone" in
  Alcotest.(check bool) "rename arity" true (contains msg "expected");
  let msg = expect_line_error (session ()) "select Price <" in
  Alcotest.(check bool) "parse error surfaces" true
    (contains msg "cannot parse");
  let msg = expect_line_error (session ()) "replace zero Year = 1" in
  Alcotest.(check bool) "replace id" true (contains msg "selection-id")

(* words a command does not take are refused, not dropped *)
let test_stray_words_refused () =
  let s = run (session ()) "select Year = 2005\ngroup Model asc" in
  List.iter
    (fun (text, usage) ->
      let msg = expect_line_error s text in
      Alcotest.(check string) text usage msg)
    [ ("dedup Model", "dedup: expected no arguments");
      ("ungroup Model", "ungroup: expected no arguments");
      ("undo x", "undo: expected [<steps>]");
      ("undo 2 3", "undo: expected [<steps>]");
      ("redo now", "redo: expected no arguments");
      ("history all", "history: expected no arguments");
      ("metrics all", "metrics: expected no arguments");
      ("describe Price", "describe: expected no arguments");
      ("status now", "status: expected no arguments");
      ("print abc", "print: expected [<rows>]");
      ("tree abc", "tree: expected [<rows>]") ];
  (* the bare and numeric forms still run *)
  List.iter
    (fun text -> ignore (line s text))
    [ "print"; "print 20"; "tree"; "tree 3"; "history"; "status";
      "describe"; "metrics" ];
  Alcotest.(check int) "undo 1 undoes one step" 4
    (Relation.cardinality (Session.materialized (run s "undo 1")))

let test_comments_and_blanks () =
  let s =
    run (session ())
      "# a comment line\n\n   \nselect Year = 2005  # trailing comment\n"
  in
  Alcotest.(check int) "filter applied" 4
    (Relation.cardinality (Session.materialized s));
  (* a '#' inside a string literal is data, not a comment *)
  let s2 = run (session ()) "select Model <> 'no#model'" in
  Alcotest.(check int) "all rows kept" 9
    (Relation.cardinality (Session.materialized s2))

let test_undo_redo_commands () =
  let s = run (session ()) "select Year = 2005\nselect Model = 'Jetta'" in
  let s = run s "undo 2" in
  Alcotest.(check int) "both undone" 9
    (Relation.cardinality (Session.materialized s));
  let s = run s "redo" in
  Alcotest.(check int) "one redone" 4
    (Relation.cardinality (Session.materialized s));
  let msg = expect_line_error (run s "redo") "redo" in
  Alcotest.(check bool) "nothing to redo" true (contains msg "redo")

let test_load_command () =
  let path = Filename.temp_file "musiq" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "x,y\n1,a\n2,b\n";
      close_out oc;
      let s = run (session ()) (Printf.sprintf "load %s" path) in
      Alcotest.(check int) "csv loaded" 2
        (Relation.cardinality (Session.materialized s));
      (* undo returns to the cars sheet *)
      let s = run s "undo" in
      Alcotest.(check int) "back to cars" 9
        (Relation.cardinality (Session.materialized s)));
  let msg = expect_line_error (session ()) "load /no/such/file.csv" in
  Alcotest.(check bool) "missing file reported" true (String.length msg > 0)

let test_close_command () =
  let s = run (session ()) "save snap" in
  let s = run s "close snap" in
  let msg = expect_line_error s "open snap" in
  Alcotest.(check bool) "closed sheet is gone" true (contains msg "snap")

let () =
  Alcotest.run "sheet_script"
    [ ( "commands",
        [ Alcotest.test_case "group forms" `Quick test_group_forms;
          Alcotest.test_case "order forms" `Quick test_order_forms;
          Alcotest.test_case "agg forms" `Quick test_agg_forms;
          Alcotest.test_case "formula forms" `Quick test_formula_forms;
          Alcotest.test_case "informational" `Quick
            test_informational_commands;
          Alcotest.test_case "undo/redo" `Quick test_undo_redo_commands;
          Alcotest.test_case "close" `Quick test_close_command;
          Alcotest.test_case "load csv" `Quick test_load_command ] );
      ( "robustness",
        [ Alcotest.test_case "error reporting" `Quick test_error_reporting;
          Alcotest.test_case "stray words refused" `Quick
            test_stray_words_refused;
          Alcotest.test_case "comments and blanks" `Quick
            test_comments_and_blanks ] ) ]
