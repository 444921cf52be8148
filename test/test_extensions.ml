(* Tests for the extension features beyond the paper's prototype:
   CASE expressions, COUNT(DISTINCT), durable sheets (Persist), and
   the memoized materialization. *)

open Sheet_rel
open Sheet_core

let parse = Expr_parse.parse_string_exn

let session () = Session.create ~name:"cars" Sample_cars.relation

let run_script s script =
  match Script.run_silent s script with
  | Ok s -> s
  | Error msg -> Alcotest.failf "script failed: %s" msg

(* ---- CASE ---- *)

let test_case_parse_print () =
  let e =
    parse
      "CASE WHEN Price < 15000 THEN 'cheap' WHEN Price < 17000 THEN 'ok' \
       ELSE 'pricey' END"
  in
  let e2 = parse (Expr.to_string e) in
  Alcotest.(check bool) "roundtrip" true (Expr.equal e e2);
  (match e with
  | Expr.Case (branches, Some _) ->
      Alcotest.(check int) "two WHEN branches" 2 (List.length branches)
  | _ -> Alcotest.fail "not a CASE")

let test_case_eval () =
  let eval price =
    Expr_eval.eval
      ~lookup:(fun name ->
        if name = "Price" then Value.Int price else raise Not_found)
      (parse
         "CASE WHEN Price < 15000 THEN 'cheap' WHEN Price < 17000 THEN \
          'ok' ELSE 'pricey' END")
  in
  Alcotest.(check bool) "first branch" true
    (Value.equal (eval 14000) (Value.String "cheap"));
  Alcotest.(check bool) "second branch" true
    (Value.equal (eval 16000) (Value.String "ok"));
  Alcotest.(check bool) "else branch" true
    (Value.equal (eval 20000) (Value.String "pricey"));
  (* no ELSE: falls through to NULL *)
  let e = parse "CASE WHEN FALSE THEN 1 END" in
  Alcotest.(check bool) "no match is null" true
    (Value.is_null (Expr_eval.eval ~lookup:(fun _ -> raise Not_found) e))

let test_case_typecheck () =
  let schema = Sample_cars.schema in
  let ok e = Result.is_ok (Expr_check.check schema (parse e)) in
  Alcotest.(check bool) "well-typed case" true
    (ok "CASE WHEN Price < 15000 THEN 1 ELSE 0 END");
  Alcotest.(check bool) "branch type clash refused" false
    (ok "CASE WHEN Price < 15000 THEN 1 ELSE 'x' END");
  Alcotest.(check bool) "non-boolean condition refused" false
    (ok "CASE WHEN Price THEN 1 ELSE 0 END")

let test_case_in_formula () =
  (* the TPC-H Q12 pattern: CASE inside an aggregated expression *)
  let s =
    run_script (session ())
      {|formula urgent = CASE WHEN Condition = 'Excellent' THEN 1 ELSE 0 END
agg sum urgent as n_excellent|}
  in
  let rel = Session.materialized s in
  let v = List.hd (Relation.column_values rel "n_excellent") in
  Alcotest.(check bool) "4 excellent cars" true (Value.equal v (Value.Int 4))

let test_case_in_sql () =
  let catalog =
    Sheet_sql.Catalog.of_list [ ("cars", Sample_cars.relation) ]
  in
  let rel =
    Sheet_sql.Sql_executor.run_exn catalog
      "SELECT Model, sum(CASE WHEN Condition = 'Excellent' THEN 1 ELSE 0 \
       END) AS nice FROM cars GROUP BY Model ORDER BY Model"
  in
  (match Relation.rows rel with
  | [ civic; jetta ] ->
      Alcotest.(check bool) "civic 0" true
        (Value.equal (Row.get civic 1) (Value.Int 0));
      Alcotest.(check bool) "jetta 4" true
        (Value.equal (Row.get jetta 1) (Value.Int 4))
  | _ -> Alcotest.fail "expected 2 groups");
  (* and through the Theorem-1 translation *)
  let q =
    Sheet_sql.Sql_parser.parse_exn
      "SELECT Model, sum(CASE WHEN Condition = 'Excellent' THEN 1 ELSE 0 \
       END) AS nice FROM cars GROUP BY Model"
  in
  match
    ( Sheet_sql.Sql_executor.run catalog q,
      Sheet_sql.Sql_to_sheet.execute catalog q )
  with
  | Ok a, Ok b ->
      Alcotest.(check bool) "translation matches" true
        (Relation.equal_unordered_data (Relation.normalize a)
           (Relation.normalize b))
  | Error m, _ | _, Error m -> Alcotest.failf "failed: %s" m

(* ---- scalar functions ---- *)

let test_scalar_functions_eval () =
  let eval e =
    Expr_eval.eval ~lookup:(fun _ -> raise Not_found) (parse e)
  in
  Alcotest.(check bool) "year" true
    (Value.equal (eval "year(DATE '2009-03-29')") (Value.Int 2009));
  Alcotest.(check bool) "month" true
    (Value.equal (eval "month(DATE '2009-03-29')") (Value.Int 3));
  Alcotest.(check bool) "day" true
    (Value.equal (eval "day(DATE '2009-03-29')") (Value.Int 29));
  Alcotest.(check bool) "abs int" true
    (Value.equal (eval "abs(-4)") (Value.Int 4));
  Alcotest.(check bool) "abs float" true
    (Value.equal (eval "abs(-4.5)") (Value.Float 4.5));
  Alcotest.(check bool) "round" true
    (Value.equal (eval "round(2.6)") (Value.Int 3));
  Alcotest.(check bool) "lower" true
    (Value.equal (eval "lower('JeTTa')") (Value.String "jetta"));
  Alcotest.(check bool) "upper" true
    (Value.equal (eval "upper('jetta')") (Value.String "JETTA"));
  Alcotest.(check bool) "length" true
    (Value.equal (eval "length('jetta')") (Value.Int 5));
  Alcotest.(check bool) "null propagates" true
    (Value.is_null (eval "year(NULL)"));
  (* parse/print roundtrip *)
  let e = parse "year(l_shipdate) + 1" in
  Alcotest.(check bool) "roundtrip" true
    (Expr.equal e (parse (Expr.to_string e)))

let test_scalar_functions_typecheck () =
  let schema =
    Schema.of_list
      [ ("d", Value.TDate); ("n", Value.TInt); ("s", Value.TString) ]
  in
  let ok e = Result.is_ok (Expr_check.check schema (parse e)) in
  Alcotest.(check bool) "year of date" true (ok "year(d) = 2009");
  Alcotest.(check bool) "year of int refused" false (ok "year(n) = 2009");
  Alcotest.(check bool) "abs keeps type" true (ok "abs(n) + 1 = 2");
  Alcotest.(check bool) "upper of int refused" false (ok "upper(n) = 'X'");
  Alcotest.(check bool) "length gives int" true (ok "length(s) > 2")

let test_scalar_functions_in_sheet_and_sql () =
  (* group TPC-H-style by ship year via a formula *)
  let dated =
    Relation.make
      (Schema.of_list [ ("id", Value.TInt); ("when_", Value.TDate) ])
      [ Row.of_list [ Value.Int 1; Value.of_ymd 1994 5 1 ];
        Row.of_list [ Value.Int 2; Value.of_ymd 1994 7 2 ];
        Row.of_list [ Value.Int 3; Value.of_ymd 1995 1 3 ] ]
  in
  let s = Session.create ~name:"dated" dated in
  let s = run_script s
      "formula yr = year(when_)
group yr asc
agg count as n" in
  let rel = Session.materialized s in
  let pairs =
    List.map
      (fun row ->
        ( Row.get row (Schema.index_exn (Relation.schema rel) "yr"),
          Row.get row (Schema.index_exn (Relation.schema rel) "n") ))
      (Relation.rows rel)
  in
  Alcotest.(check bool) "1994 has 2" true
    (List.mem (Value.Int 1994, Value.Int 2) pairs);
  (* same through SQL + Theorem 1 *)
  let catalog = Sheet_sql.Catalog.of_list [ ("dated", dated) ] in
  let q =
    Sheet_sql.Sql_parser.parse_exn
      "SELECT year(when_) AS yr, count(*) AS n FROM dated GROUP BY when_"
  in
  ignore q;
  let rel2 =
    Sheet_sql.Sql_executor.run_exn catalog
      "SELECT id, year(when_) AS yr FROM dated ORDER BY id"
  in
  Alcotest.(check bool) "sql scalar fn" true
    (Value.equal
       (Row.get (List.hd (Relation.rows rel2)) 1)
       (Value.Int 1994))

(* ---- COUNT(DISTINCT) ---- *)

let test_count_distinct_eval () =
  let vs =
    [ Value.Int 1; Value.Int 2; Value.Int 1; Value.Null; Value.Int 2 ]
  in
  Alcotest.(check bool) "distinct count" true
    (Value.equal
       (Expr_eval.apply_agg Expr.Count_distinct vs)
       (Value.Int 2))

let test_count_distinct_sheet_and_sql () =
  let s = run_script (session ()) "agg count_distinct Model as models" in
  let v =
    List.hd (Relation.column_values (Session.materialized s) "models")
  in
  Alcotest.(check bool) "2 models" true (Value.equal v (Value.Int 2));
  let catalog =
    Sheet_sql.Catalog.of_list [ ("cars", Sample_cars.relation) ]
  in
  let rel =
    Sheet_sql.Sql_executor.run_exn catalog
      "SELECT count(DISTINCT Year) AS years FROM cars"
  in
  Alcotest.(check bool) "2 years" true
    (Value.equal (Row.get (List.hd (Relation.rows rel)) 0) (Value.Int 2))

(* ---- Persist ---- *)

let full_state_session () =
  run_script (session ())
    {|select Year >= 2005
select Model = 'Jetta'
group Model asc
group Year asc
order Price desc
agg avg Price level 3
formula diff = Price - Mileage
hide Mileage
dedup|}

let test_persist_roundtrip () =
  let s = full_state_session () in
  let sheet = Session.current s in
  let text = Persist.to_string sheet in
  let sheet2 = Result.get_ok (Persist.of_string text) in
  Alcotest.(check bool) "same materialization" true
    (Relation.equal (Materialize.full sheet) (Materialize.full sheet2));
  Alcotest.(check (list string))
    "hidden preserved" [ "Mileage" ]
    (Spreadsheet.hidden_columns sheet2);
  Alcotest.(check int) "selections preserved" 2
    (List.length sheet2.Spreadsheet.state.Query_state.selections);
  Alcotest.(check int) "computed preserved" 2
    (List.length sheet2.Spreadsheet.state.Query_state.computed);
  Alcotest.(check bool) "dedup preserved" true
    sheet2.Spreadsheet.state.Query_state.dedup;
  Alcotest.(check bool) "grouping preserved" true
    (Grouping.equal (Spreadsheet.grouping sheet)
       (Spreadsheet.grouping sheet2))

let test_persist_state_still_modifiable () =
  let s = full_state_session () in
  let sheet2 =
    Result.get_ok (Persist.of_string (Persist.to_string (Session.current s)))
  in
  (* replace the Year selection on the reloaded sheet *)
  let sel =
    List.hd (Query_state.selections_on sheet2.Spreadsheet.state "Year")
  in
  match
    Engine.replace_selection sheet2 sel.Query_state.id
      (parse "Year = 2006")
  with
  | Error e -> Alcotest.fail (Errors.to_string e)
  | Ok modified ->
      let years =
        Relation.column_values (Materialize.visible modified) "Year"
      in
      Alcotest.(check bool) "only 2006 remains" true
        (years <> [] && List.for_all (Value.equal (Value.Int 2006)) years)

let test_persist_file_io () =
  let s = full_state_session () in
  let path = Filename.temp_file "musiq" ".sheet" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check (result unit string)) "saved" (Ok ())
        (Persist.save (Session.current s) ~path);
      let sheet2 = Result.get_ok (Persist.load ~path) in
      Alcotest.(check bool) "file roundtrip" true
        (Relation.equal
           (Materialize.full (Session.current s))
           (Materialize.full sheet2)))

let test_export_import_script () =
  let path = Filename.temp_file "musiq" ".sheet" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = run_script (session ()) "select Model = 'Civic'" in
      let s = run_script s (Printf.sprintf "export %s" path) in
      let s = run_script s "undo" in
      let s = run_script s (Printf.sprintf "import %s" path) in
      Alcotest.(check int) "imported sheet has the selection" 3
        (Relation.cardinality (Session.materialized s)))

let test_persist_group_order_override () =
  let s =
    run_script (session ())
      {|group Model asc
agg avg Price level 2 as ap
order-groups ap desc|}
  in
  let sheet = Session.current s in
  let sheet2 = Result.get_ok (Persist.of_string (Persist.to_string sheet)) in
  Alcotest.(check bool) "override survives the roundtrip" true
    (Grouping.equal (Spreadsheet.grouping sheet)
       (Spreadsheet.grouping sheet2));
  Alcotest.(check bool) "same presentation order" true
    (Relation.equal (Materialize.full sheet) (Materialize.full sheet2))

let test_persist_rejects_garbage () =
  Alcotest.(check bool) "not a sheet file" true
    (Result.is_error (Persist.of_string "hello world"));
  Alcotest.(check bool) "truncated file" true
    (Result.is_error (Persist.of_string "musiq-sheet v1\nname x\n"));
  Alcotest.(check bool) "unreadable file" true
    (Result.is_error (Persist.load ~path:"/nonexistent/dir/x.sheet"))

(* ---- cached materialization ---- *)

let test_cached_materialization () =
  let s = full_state_session () in
  let sheet = Session.current s in
  let a = Materialize.full_cached sheet in
  let b = Materialize.full_cached sheet in
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check bool) "equal to uncached" true
    (Relation.equal a (Materialize.full sheet));
  (* a new operator application gets a fresh uid, hence a fresh entry *)
  match Engine.apply sheet (Op.Select (parse "Price > 0")) with
  | Error e -> Alcotest.fail (Errors.to_string e)
  | Ok sheet2 ->
      Alcotest.(check bool) "new sheet, distinct cache entry" true
        (Materialize.full_cached sheet2 != a)

let () =
  Alcotest.run "sheet_extensions"
    [ ( "case",
        [ Alcotest.test_case "parse/print" `Quick test_case_parse_print;
          Alcotest.test_case "eval" `Quick test_case_eval;
          Alcotest.test_case "typecheck" `Quick test_case_typecheck;
          Alcotest.test_case "in formulas" `Quick test_case_in_formula;
          Alcotest.test_case "in SQL + translation" `Quick test_case_in_sql
        ] );
      ( "scalar-functions",
        [ Alcotest.test_case "eval" `Quick test_scalar_functions_eval;
          Alcotest.test_case "typecheck" `Quick
            test_scalar_functions_typecheck;
          Alcotest.test_case "sheet and SQL" `Quick
            test_scalar_functions_in_sheet_and_sql ] );
      ( "count-distinct",
        [ Alcotest.test_case "apply_agg" `Quick test_count_distinct_eval;
          Alcotest.test_case "sheet and SQL" `Quick
            test_count_distinct_sheet_and_sql ] );
      ( "persist",
        [ Alcotest.test_case "roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "state still modifiable" `Quick
            test_persist_state_still_modifiable;
          Alcotest.test_case "file io" `Quick test_persist_file_io;
          Alcotest.test_case "export/import script" `Quick
            test_export_import_script;
          Alcotest.test_case "rejects garbage" `Quick
            test_persist_rejects_garbage;
          Alcotest.test_case "group-order override" `Quick
            test_persist_group_order_override ] );
      ( "cache",
        [ Alcotest.test_case "memoized materialization" `Quick
            test_cached_materialization ] ) ]
