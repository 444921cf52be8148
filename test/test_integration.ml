(* End-to-end integration scenarios: long multi-feature sessions that
   cross every library boundary (script -> engine -> materialize ->
   render/persist/plan/sql), asserting intermediate states as the
   interface would show them. *)

open Sheet_rel
open Sheet_core

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let run s script =
  match Script.run_silent s script with
  | Ok s -> s
  | Error msg -> Alcotest.failf "script failed: %s" msg

let cardinality s = Relation.cardinality (Session.materialized s)

(* The full Sam scenario followed by a dealership merger: two
   dealerships' inventories are combined, analyzed, modified, saved to
   disk, reloaded, and cross-checked against the SQL engine. *)
let test_dealership_scenario () =
  let lot_a = Sample_cars.relation in
  let lot_b = Sample_cars.scaled ~rows:20 ~seed:99 in
  let s = Session.create ~name:"lot_a" lot_a in
  Store.save (Session.store s) ~name:"lot_b"
    (Spreadsheet.of_relation ~name:"lot_b" lot_b);

  (* merge the two lots *)
  let s = run s "union lot_b" in
  Alcotest.(check int) "merged inventory" 29 (cardinality s);

  (* organize and analyze *)
  let s =
    run s
      {|group Model asc
agg avg Price level 2 as ap
agg count as n level 2
formula delta = Price - ap
order delta desc level 2|}
  in
  let rel = Session.materialized s in
  Alcotest.(check bool) "analysis columns present" true
    (Schema.mem (Relation.schema rel) "ap"
    && Schema.mem (Relation.schema rel) "n"
    && Schema.mem (Relation.schema rel) "delta");

  (* the group tree agrees with the group counts *)
  let tree = Group_tree.build (Session.current s) in
  Alcotest.(check int) "tree groups == materialize groups"
    (Oracle.group_count (Session.current s) ~level:2)
    (Group_tree.group_count tree ~level:2);

  (* filter on the analysis, then rewrite history *)
  let s = run s "select delta <= 0" in
  let below = cardinality s in
  Alcotest.(check bool) "some cars at or below their average" true
    (below > 0 && below < 29);
  let sel = List.hd (Session.selections_on s "delta") in
  let s =
    match
      Session.replace_selection s ~id:sel.Query_state.id
        (Expr_parse.parse_string_exn "delta > 0")
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Errors.to_string e)
  in
  Alcotest.(check int) "complement after modification" (29 - below)
    (cardinality s);

  (* the compiled plan agrees with the interpreter at every step *)
  Alcotest.(check bool) "plan == interpreter" true
    (Relation.equal
       (Plan.execute (Plan.of_sheet (Session.current s)))
       (Materialize.full (Session.current s)));

  (* persist, reload, continue *)
  let path = Filename.temp_file "musiq_integration" ".sheet" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = run s (Printf.sprintf "export %s" path) in
      let reloaded = Result.get_ok (Persist.load ~path) in
      Alcotest.(check bool) "reloaded equals live" true
        (Relation.equal
           (Materialize.full (Session.current s))
           (Materialize.full reloaded));
      (* the history survives as state: drop the modified selection *)
      let sel =
        List.hd (Query_state.selections_on reloaded.Spreadsheet.state "delta")
      in
      match Engine.remove_selection reloaded sel.Query_state.id with
      | Ok sheet ->
          Alcotest.(check int) "selection removable after reload" 29
            (Relation.cardinality (Materialize.full sheet))
      | Error e -> Alcotest.fail (Errors.to_string e))

(* Sheet results cross-checked against SQL for a workload mixing every
   unary operator. *)
let test_cross_engine_consistency () =
  let s = Session.create ~name:"cars" Sample_cars.relation in
  let s =
    run s
      {|select Year >= 2005
formula kmi = Mileage / 1000
select kmi < 80
group Model asc
agg count as n level 2
hide ID
hide Mileage|}
  in
  (* the inverse translator is refused (visible non-grouped columns)… *)
  (match Sheet_sql.Sql_of_sheet.compile ~table:"cars" (Session.current s) with
  | Error (`Not_single_block reason) ->
      Alcotest.(check bool) "reason mentions projection" true
        (contains reason "project")
  | Ok _ -> Alcotest.fail "should not be single-block yet");
  (* …until the per-row columns are hidden *)
  let s = run s "hide Price\nhide Year\nhide Condition\nhide kmi" in
  match Sheet_sql.Sql_of_sheet.to_string ~table:"cars" (Session.current s) with
  | Error m -> Alcotest.fail m
  | Ok sql ->
      let cat =
        Sheet_sql.Catalog.of_list [ ("cars", Sample_cars.relation) ]
      in
      let sql_rel = Sheet_sql.Sql_executor.run_exn cat sql in
      let sheet_rel = Rel_algebra.distinct (Session.materialized s) in
      Alcotest.(check bool)
        (Printf.sprintf "sheet == sql via inverse translation (%s)" sql)
        true
        (Relation.equal_unordered_data
           (Relation.normalize sql_rel)
           (Relation.normalize sheet_rel))

(* A REPL-like loop: every informational command runs on a busy
   session without errors. *)
let test_informational_surface () =
  let s = Session.create ~name:"cars" Sample_cars.relation in
  let s =
    run s
      "group Model asc\nagg avg Price level 2\nselect Year >= 2005\nhide ID"
  in
  List.iter
    (fun cmd ->
      match Script.run_line s cmd with
      | Ok { Script.output = Some text; _ } ->
          Alcotest.(check bool) (cmd ^ " produces output") true
            (String.length text > 0)
      | Ok { Script.output = None; _ } ->
          Alcotest.failf "%s produced no output" cmd
      | Error msg -> Alcotest.failf "%s failed: %s" cmd msg)
    [ "print"; "print 3"; "status"; "history"; "selections Year";
      "describe"; "tree"; "explain" ]

let () =
  Alcotest.run "sheet_integration"
    [ ( "scenarios",
        [ Alcotest.test_case "dealership merger" `Quick
            test_dealership_scenario;
          Alcotest.test_case "cross-engine consistency" `Quick
            test_cross_engine_consistency;
          Alcotest.test_case "informational surface" `Quick
            test_informational_surface ] ) ]
