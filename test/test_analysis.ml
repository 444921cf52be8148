(* Tests of the Sheetlint static analyzer: the interval/domain
   reasoning of Sheetsolve, the per-layer lint passes, and
   lint-cleanliness of every bundled TPC-H task. *)

open Sheet_rel
open Sheet_core
open Sheet_analysis

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let pred = Expr_parse.parse_string_exn
let cars_types = Schema.type_of Sample_cars.schema
let sat s = Sheetsolve.satisfiable ~type_of:cars_types (pred s)
let taut s = Sheetsolve.tautology ~type_of:cars_types (pred s)
let implies p q =
  Sheetsolve.implies ~type_of:cars_types (pred p) (pred q)

let check_sat name expected s =
  Alcotest.(check bool) name expected (sat s)

(* ---------- Sheetsolve verdicts ---------- *)

let test_unsat_conjunctions () =
  check_sat "disjoint ranges" false "Price < 10000 AND Price > 20000";
  check_sat "touching open ranges" false "Price < 10000 AND Price > 10000";
  check_sat "two equalities" false "Model = 'Jetta' AND Model = 'Civic'";
  check_sat "empty BETWEEN" false "Price BETWEEN 20000 AND 10000";
  check_sat "integer gap" false "Price > 5 AND Price < 6";
  check_sat "IN hull vs range" false
    "Price IN (1, 2, 3) AND Price > 5";
  check_sat "null comparison" false "Price = NULL";
  check_sat "IS NULL vs comparison" false "Price IS NULL AND Price > 5";
  check_sat "unsat disjunct pair" false
    "(Price < 10 AND Price > 20) OR (Year < 2000 AND Year > 2010)"

let test_type_clash () =
  check_sat "string column vs int" false "Model < 10";
  check_sat "int column vs string" false "Price = 'Jetta'";
  (* without type information the same predicate must stay Maybe *)
  Alcotest.(check bool) "untyped stays maybe" true
    (Sheetsolve.satisfiable (pred "Model < 10"))

let test_satisfiable_stays_maybe () =
  check_sat "plain range" true "Price < 10000";
  check_sat "overlapping ranges" true "Price > 10000 AND Price < 20000";
  check_sat "disjunction rescues" true "Price < 10000 OR Price > 20000";
  check_sat "Ne is not a range" true "Price <> 5 AND Price = 5 OR Price = 6";
  (* the null trap: NOT (x < 10) admits null x, so this conjunction is
     satisfiable even though the intervals are disjoint *)
  check_sat "negated atoms admit null" true
    "NOT (Price < 10000) AND NOT (Price >= 10000)"

let test_tautology () =
  Alcotest.(check bool) "excluded middle is not total" false
    (taut "Price < 10000 OR Price >= 10000");
  Alcotest.(check bool) "with IS NULL it is" true
    (taut "Price < 10000 OR Price >= 10000 OR Price IS NULL");
  Alcotest.(check bool) "constant true" true (taut "1 = 1");
  Alcotest.(check bool) "plain range is not" false (taut "Price < 10000")

let test_implication () =
  Alcotest.(check bool) "between implies lower bound" true
    (implies "Price BETWEEN 10000 AND 20000" "Price >= 10000");
  Alcotest.(check bool) "equality implies between" true
    (implies "Price = 15000" "Price BETWEEN 10000 AND 20000");
  Alcotest.(check bool) "tighter range implies looser" true
    (implies "Price < 10000" "Price < 20000");
  Alcotest.(check bool) "looser does not imply tighter" false
    (implies "Price < 20000" "Price < 10000");
  Alcotest.(check bool) "no implication across columns" false
    (implies "Price < 10000" "Year < 2006")

(* ---------- Expr_lint ---------- *)

let codes ds = List.map (fun (d : Diagnostic.t) -> d.code) ds

let severity_of code ds =
  List.find_map
    (fun (d : Diagnostic.t) ->
      if d.code = code then Some d.severity else None)
    ds

let lint_pred s =
  Expr_lint.lint_pred ~type_of:cars_types ~loc:Diagnostic.Query (pred s)

let test_expr_lint () =
  Alcotest.(check (list string)) "clean predicate" []
    (codes (lint_pred "Price < 10000"));
  Alcotest.(check (list string)) "unsat reported once" [ "unsat-predicate" ]
    (codes (lint_pred "Price < 10000 AND Price > 20000"));
  Alcotest.(check bool) "unsat is an error" true
    (severity_of "unsat-predicate"
       (lint_pred "Price < 10000 AND Price > 20000")
    = Some Diagnostic.Error);
  Alcotest.(check (list string)) "tautology is a warning" [ "tautology" ]
    (codes (lint_pred "Price < 1 OR Price >= 1 OR Price IS NULL"));
  Alcotest.(check (list string)) "duplicate conjunct" [ "duplicate-conjunct" ]
    (codes (lint_pred "Price < 10000 AND Price < 10000"));
  Alcotest.(check (list string)) "implied conjunct" [ "redundant-conjunct" ]
    (codes (lint_pred "Price < 10000 AND Price < 20000"));
  Alcotest.(check (list string)) "unknown column" [ "unknown-column" ]
    (codes
       (Expr_lint.lint_pred ~type_of:cars_types
          ~known:(Schema.names Sample_cars.schema) ~loc:Diagnostic.Query
          (pred "Cost < 10")))

(* ---------- State_lint over scripted sessions ---------- *)

let session_of script =
  let s = Session.create ~name:"cars" Sample_cars.relation in
  match Script.run_silent s script with
  | Ok s -> s
  | Error msg -> Alcotest.failf "fixture script failed: %s" msg

let lint_script script = Sheetlint.session (session_of script)

let has_code code ds = List.mem code (codes ds)

let test_state_conflicts () =
  let ds = lint_script "select Price < 10000\nselect Price > 20000" in
  Alcotest.(check bool) "conflicting selections" true
    (has_code "conflicting-selections" ds);
  Alcotest.(check bool) "reported as error" true (Diagnostic.has_errors ds);
  let ds = lint_script "select Price < 10000\nselect Price < 20000" in
  Alcotest.(check bool) "subsumed selection" true
    (has_code "subsumed-selection" ds);
  let ds = lint_script "select Price < 10000\nselect Price < 10000" in
  Alcotest.(check bool) "duplicate selection" true
    (has_code "duplicate-selection" ds)

let test_state_columns () =
  let ds = lint_script "formula Double = Price * 2\nhide Double" in
  Alcotest.(check bool) "dead computed column" true
    (has_code "dead-computed-column" ds);
  let ds = lint_script "formula Double = Price * 2\nhide Price" in
  Alcotest.(check bool) "hidden but referenced" true
    (has_code "hidden-referenced" ds);
  Alcotest.(check bool) "hint only, not a warning" false
    (Diagnostic.has_warnings ds || Diagnostic.has_errors ds)

let test_state_grouping () =
  let ds = lint_script "agg avg Price\ngroup Model" in
  Alcotest.(check bool) "whole-sheet aggregate on grouped sheet" true
    (has_code "whole-sheet-aggregate" ds);
  let ds =
    lint_script "group Model\nagg avg Price as AvgP\nselect AvgP > 15000"
  in
  Alcotest.(check bool) "HAVING-style selection noted" true
    (has_code "aggregate-selection" ds);
  Alcotest.(check bool) "as a hint" false
    (Diagnostic.has_warnings ds || Diagnostic.has_errors ds)

let test_state_clean () =
  Alcotest.(check (list string)) "fresh sheet" []
    (codes (lint_script "print"));
  Alcotest.(check (list string)) "honest query" []
    (codes
       (lint_script
          "select Price < 17000\ngroup Model\nagg avg Mileage as AvgM\n\
           order Year desc"))

(* ---------- SQL lints ---------- *)

let sql_catalog =
  lazy
    (Sheet_sql.Catalog.of_list [ ("cars", Sample_cars.relation) ])

let sql_lint text = Sheetlint.sql_string (Lazy.force sql_catalog) text

let test_sql_lint () =
  Alcotest.(check bool) "unsat WHERE" true
    (has_code "unsat-predicate"
       (sql_lint "SELECT Model FROM cars WHERE Price < 10 AND Price > 20"));
  Alcotest.(check bool) "parse error is a diagnostic" true
    (has_code "parse-error" (sql_lint "SELEKT boom"));
  Alcotest.(check bool) "semantic error is a diagnostic" true
    (has_code "invalid-query" (sql_lint "SELECT Nope FROM cars"));
  Alcotest.(check bool) "duplicate group by" true
    (has_code "duplicate-group-by"
       (sql_lint
          "SELECT Model, count(*) FROM cars GROUP BY Model, Model"));
  Alcotest.(check bool) "clean query" false
    (let ds =
       sql_lint
         "SELECT Model, avg(Price) FROM cars WHERE Year >= 2005 GROUP BY \
          Model"
     in
     Diagnostic.has_errors ds || Diagnostic.has_warnings ds)

(* ---------- every bundled TPC-H task lints clean ---------- *)

let tpch_catalog =
  lazy
    (Sheet_tpch.Tpch_views.install
       (Sheet_tpch.Tpch_gen.generate { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 }))

let test_tpch_tasks_lint_clean () =
  let catalog = Lazy.force tpch_catalog in
  List.iter
    (fun (task : Sheet_tpch.Tpch_tasks.t) ->
      let base = Sheet_sql.Catalog.find_exn catalog task.base in
      let session = Session.create ~name:task.base base in
      match Sheetlint.script session task.script with
      | Error msg -> Alcotest.failf "task %d script failed: %s" task.id msg
      | Ok ds ->
          let noisy =
            List.filter
              (fun (d : Diagnostic.t) -> d.severity <> Diagnostic.Hint)
              ds
          in
          Alcotest.(check (list string))
            (Printf.sprintf "task %d script clean" task.id)
            [] (List.map Diagnostic.to_string noisy))
    Sheet_tpch.Tpch_tasks.all

let test_tpch_sql_lint_clean () =
  let catalog = Lazy.force tpch_catalog in
  List.iter
    (fun (task : Sheet_tpch.Tpch_tasks.t) ->
      let ds = Sheetlint.sql_string catalog task.sql in
      let noisy =
        List.filter
          (fun (d : Diagnostic.t) -> d.severity <> Diagnostic.Hint)
          ds
      in
      Alcotest.(check (list string))
        (Printf.sprintf "task %d sql clean" task.id)
        [] (List.map Diagnostic.to_string noisy))
    Sheet_tpch.Tpch_tasks.all

(* ---------- rendering ---------- *)

let test_render () =
  let ds = lint_script "select Price < 10000\nselect Price > 20000" in
  let text = Sheetlint.render ds in
  Alcotest.(check bool) "mentions the code" true
    (contains text "conflicting-selections");
  Alcotest.(check string) "empty render" "no diagnostics"
    (Sheetlint.render []);
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check int) "machine form has 4 fields" 4
        (List.length (String.split_on_char '\t' (Diagnostic.to_machine d))))
    ds

let () =
  Alcotest.run "analysis"
    [ ( "domain",
        [ Alcotest.test_case "unsat conjunctions" `Quick
            test_unsat_conjunctions;
          Alcotest.test_case "type clashes" `Quick test_type_clash;
          Alcotest.test_case "satisfiable cases" `Quick
            test_satisfiable_stays_maybe;
          Alcotest.test_case "tautologies" `Quick test_tautology;
          Alcotest.test_case "implication" `Quick test_implication ] );
      ( "expr-lint",
        [ Alcotest.test_case "predicate lints" `Quick test_expr_lint ] );
      ( "state-lint",
        [ Alcotest.test_case "conflicts" `Quick test_state_conflicts;
          Alcotest.test_case "columns" `Quick test_state_columns;
          Alcotest.test_case "grouping" `Quick test_state_grouping;
          Alcotest.test_case "clean states" `Quick test_state_clean ] );
      ( "sql-lint",
        [ Alcotest.test_case "clause lints" `Quick test_sql_lint ] );
      ( "tpch",
        [ Alcotest.test_case "task scripts lint clean" `Quick
            test_tpch_tasks_lint_clean;
          Alcotest.test_case "task sql lints clean" `Quick
            test_tpch_sql_lint_clean ] );
      ( "render",
        [ Alcotest.test_case "pretty and machine" `Quick test_render ] ) ]
