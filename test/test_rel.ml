(* Unit tests for the relational substrate. *)

open Sheet_rel

let schema_ab =
  Schema.of_list [ ("a", Value.TInt); ("b", Value.TString) ]

let rel_of rows =
  Relation.make schema_ab
    (List.map
       (fun (a, b) -> Row.of_list [ Value.Int a; Value.String b ])
       rows)

(* ---- values ---- *)

let test_value_compare () =
  Alcotest.(check bool) "int/float equal" true
    (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check bool) "int < float" true
    (Value.compare (Value.Int 3) (Value.Float 3.5) < 0);
  Alcotest.(check bool) "null sorts last" true
    (Value.compare Value.Null (Value.String "z") > 0);
  Alcotest.(check (option int)) "sql compare with null" None
    (Value.sql_compare Value.Null (Value.Int 1));
  Alcotest.(check (option int)) "sql compare across types" None
    (Value.sql_compare (Value.String "1") (Value.Int 1))

let test_value_dates () =
  let d = Value.of_ymd 2009 3 29 in
  Alcotest.(check string) "render" "2009-03-29" (Value.to_string d);
  (match d with
  | Value.Date days ->
      Alcotest.(check (triple int int int))
        "roundtrip" (2009, 3, 29)
        (Value.ymd_of_days days)
  | _ -> Alcotest.fail "not a date");
  Alcotest.(check bool) "epoch" true
    (Value.equal (Value.of_ymd 1970 1 1) (Value.Date 0));
  Alcotest.(check bool) "leap year" true
    (Value.equal (Value.of_ymd 2000 3 1)
       (match Value.of_ymd 2000 2 29 with
       | Value.Date x -> Value.Date (x + 1)
       | _ -> assert false))

let test_value_parse () =
  Alcotest.(check bool) "guess int" true
    (Value.parse_guess "42" = Value.Int 42);
  Alcotest.(check bool) "guess float" true
    (Value.parse_guess "4.5" = Value.Float 4.5);
  Alcotest.(check bool) "guess date" true
    (Value.parse_guess "2005-01-02" = Value.of_ymd 2005 1 2);
  Alcotest.(check bool) "guess string" true
    (Value.parse_guess "Jetta" = Value.String "Jetta");
  Alcotest.(check bool) "empty is null" true
    (Value.parse_guess "" = Value.Null)

(* ---- schema ---- *)

let test_schema_ops () =
  let s = schema_ab in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.index_exn s "b");
  let s2 = Schema.append s { Schema.name = "c"; ty = Value.TFloat } in
  Alcotest.(check (list string)) "append" [ "a"; "b"; "c" ] (Schema.names s2);
  let s3 = Schema.remove s2 "b" in
  Alcotest.(check (list string)) "remove" [ "a"; "c" ] (Schema.names s3);
  let s4 = Schema.rename s3 "c" "z" in
  Alcotest.(check (list string)) "rename" [ "a"; "z" ] (Schema.names s4);
  Alcotest.check_raises "duplicate refused"
    (Schema.Schema_error "duplicate column \"a\"")
    (fun () -> ignore (Schema.of_list [ ("a", Value.TInt); ("a", Value.TInt) ]))

let test_schema_concat_renames () =
  let s2, mapping = Schema.concat_with_mapping schema_ab schema_ab in
  Alcotest.(check (list string))
    "suffixing" [ "a"; "b"; "a_2"; "b_2" ] (Schema.names s2);
  Alcotest.(check (list (pair string string)))
    "mapping" [ ("a", "a_2"); ("b", "b_2") ] mapping

(* ---- expressions ---- *)

let parse s = Expr_parse.parse_string_exn s

let eval_static e =
  Expr_eval.eval ~lookup:(fun _ -> raise Not_found) (parse e)

let test_expr_parse_roundtrip () =
  let cases =
    [ "a + b * 2";
      "(a + b) * 2";
      "Price <= Avg_Price AND Year = 2005";
      "Model IN ('Jetta', 'Civic')";
      "NOT (a = 1 OR b = 'x')";
      "name LIKE 'J%ta'";
      "Mileage BETWEEN 30000 AND 80000";
      "a IS NULL";
      "avg(Price)";
      "count(*)" ]
  in
  List.iter
    (fun text ->
      let e = parse text in
      let e2 = parse (Expr.to_string e) in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" text)
        true (Expr.equal e e2))
    cases

let test_expr_precedence () =
  Alcotest.(check bool) "mul binds tighter" true
    (Value.equal (eval_static "2 + 3 * 4") (Value.Int 14));
  Alcotest.(check bool) "parens" true
    (Value.equal (eval_static "(2 + 3) * 4") (Value.Int 20));
  Alcotest.(check bool) "unary minus" true
    (Value.equal (eval_static "-2 + 5") (Value.Int 3));
  Alcotest.(check bool) "and/or precedence" true
    (Value.equal
       (eval_static "TRUE OR FALSE AND FALSE")
       (Value.Bool true))

let test_expr_null_semantics () =
  Alcotest.(check bool) "null arith propagates" true
    (Value.is_null (eval_static "NULL + 1"));
  Alcotest.(check bool) "null comparison false" true
    (Value.equal (eval_static "NULL = NULL") (Value.Bool false));
  Alcotest.(check bool) "is null" true
    (Value.equal (eval_static "NULL IS NULL") (Value.Bool true));
  Alcotest.(check bool) "division by zero" true
    (Value.is_null (eval_static "1 / 0"))

let test_like () =
  let m p s = Expr_eval.like_match ~pattern:p s in
  Alcotest.(check bool) "percent" true (m "J%" "Jetta");
  Alcotest.(check bool) "underscore" true (m "J_tta" "Jetta");
  Alcotest.(check bool) "middle" true (m "%ett%" "Jetta");
  Alcotest.(check bool) "no match" false (m "J%x" "Jetta");
  Alcotest.(check bool) "empty pattern" false (m "" "Jetta");
  Alcotest.(check bool) "exact" true (m "Jetta" "Jetta");
  Alcotest.(check bool) "all" true (m "%" "")

let test_expr_typecheck () =
  let check_ok e = Result.is_ok (Expr_check.check_pred schema_ab (parse e)) in
  Alcotest.(check bool) "ok pred" true (check_ok "a > 1 AND b = 'x'");
  Alcotest.(check bool) "string+int comparison refused" false
    (check_ok "a = b");
  Alcotest.(check bool) "unknown column refused" false (check_ok "c = 1");
  Alcotest.(check bool) "arith on string refused" false
    (check_ok "b + 1 = 2");
  Alcotest.(check bool) "non-bool refused" false (check_ok "a + 1");
  Alcotest.(check bool) "aggregate refused by default" false
    (check_ok "avg(a) > 1")

let test_aggregates () =
  let vs = List.map (fun i -> Value.Int i) [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "sum" true
    (Value.equal (Expr_eval.apply_agg Expr.Sum vs) (Value.Int 10));
  Alcotest.(check bool) "avg" true
    (Value.equal (Expr_eval.apply_agg Expr.Avg vs) (Value.Float 2.5));
  Alcotest.(check bool) "min" true
    (Value.equal (Expr_eval.apply_agg Expr.Min vs) (Value.Int 1));
  Alcotest.(check bool) "max" true
    (Value.equal (Expr_eval.apply_agg Expr.Max vs) (Value.Int 4));
  Alcotest.(check bool) "count skips nulls" true
    (Value.equal
       (Expr_eval.apply_agg Expr.Count (Value.Null :: vs))
       (Value.Int 4));
  Alcotest.(check bool) "count_star keeps nulls" true
    (Value.equal
       (Expr_eval.apply_agg Expr.Count_star (Value.Null :: vs))
       (Value.Int 5));
  Alcotest.(check bool) "sum of empty is null" true
    (Value.is_null (Expr_eval.apply_agg Expr.Sum []));
  Alcotest.(check bool) "avg ignores nulls" true
    (Value.equal
       (Expr_eval.apply_agg Expr.Avg (Value.Null :: vs))
       (Value.Float 2.5))

(* ---- relational algebra ---- *)

let test_select_project () =
  let r = rel_of [ (1, "x"); (2, "y"); (3, "x") ] in
  let s = Rel_algebra.select (parse "b = 'x'") r in
  Alcotest.(check int) "selected" 2 (Relation.cardinality s);
  let p = Rel_algebra.project [ "b" ] r in
  Alcotest.(check (list string)) "projected schema" [ "b" ]
    (Schema.names (Relation.schema p));
  Alcotest.(check int) "no dedup on project" 3 (Relation.cardinality p)

let test_product_join () =
  let r = rel_of [ (1, "x"); (2, "y") ] in
  let p = Rel_algebra.product r r in
  Alcotest.(check int) "product size" 4 (Relation.cardinality p);
  Alcotest.(check (list string)) "product schema"
    [ "a"; "b"; "a_2"; "b_2" ]
    (Schema.names (Relation.schema p));
  let j = Rel_algebra.join (parse "a = a_2") r r in
  Alcotest.(check int) "join size" 2 (Relation.cardinality j)

let test_union_diff_bags () =
  let r1 = rel_of [ (1, "x"); (1, "x"); (2, "y") ] in
  let r2 = rel_of [ (1, "x") ] in
  let u = Rel_algebra.union r1 r2 in
  Alcotest.(check int) "bag union" 4 (Relation.cardinality u);
  let d = Rel_algebra.diff r1 r2 in
  (* {t,t} - {t} = {t} *)
  Alcotest.(check int) "bag difference" 2 (Relation.cardinality d);
  Alcotest.(check bool) "one x remains" true
    (List.exists
       (fun row -> Value.equal (Row.get row 0) (Value.Int 1))
       (Relation.rows d))

let test_distinct_sort () =
  let r = rel_of [ (2, "y"); (1, "x"); (1, "x") ] in
  let d = Rel_algebra.distinct r in
  Alcotest.(check int) "distinct" 2 (Relation.cardinality d);
  let s = Rel_algebra.sort [ ("a", `Desc) ] r in
  (match Relation.rows s with
  | first :: _ ->
      Alcotest.(check bool) "desc sort" true
        (Value.equal (Row.get first 0) (Value.Int 2))
  | [] -> Alcotest.fail "empty");
  let incompatible =
    Relation.make (Schema.of_list [ ("a", Value.TInt) ])
      [ Row.of_list [ Value.Int 1 ] ]
  in
  Alcotest.(check bool) "union incompatible refused" true
    (try
       ignore (Rel_algebra.union r incompatible);
       false
     with Rel_algebra.Algebra_error _ -> true)

(* ---- csv ---- *)

let load_csv ?schema text =
  match Csv.load_relation ?schema text with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let test_csv_roundtrip () =
  let text = Csv.of_relation Sample_cars.relation in
  let r = load_csv ~schema:Sample_cars.schema text in
  Alcotest.(check bool) "roundtrip" true (Relation.equal r Sample_cars.relation)

let test_csv_inference_and_quoting () =
  let text = "name,price,when\n\"Liu, Bin\",12.5,2009-03-29\nquote\"\"d,3,2009-04-01\n" in
  let r = load_csv text in
  Alcotest.(check int) "2 rows" 2 (Relation.cardinality r);
  (match Schema.type_of (Relation.schema r) "price" with
  | Some Value.TFloat -> ()
  | _ -> Alcotest.fail "price should infer float");
  (match Schema.type_of (Relation.schema r) "when" with
  | Some Value.TDate -> ()
  | _ -> Alcotest.fail "when should infer date");
  (match Relation.rows r with
  | first :: _ ->
      Alcotest.(check bool) "embedded comma preserved" true
        (Value.equal (Row.get first 0) (Value.String "Liu, Bin"))
  | [] -> Alcotest.fail "no rows");
  (* quoting roundtrip *)
  let again = load_csv (Csv.of_relation r) in
  Alcotest.(check bool) "quoting roundtrip" true
    (Relation.equal_unordered_data again r)

let test_profile () =
  let rel =
    Relation.make
      (Schema.of_list [ ("n", Value.TInt); ("s", Value.TString) ])
      [ Row.of_list [ Value.Int 1; Value.String "a" ];
        Row.of_list [ Value.Int 3; Value.String "a" ];
        Row.of_list [ Value.Null; Value.String "b" ] ]
  in
  let p = Profile.column rel "n" in
  Alcotest.(check int) "non-null" 2 p.Profile.non_null;
  Alcotest.(check int) "nulls" 1 p.Profile.nulls;
  Alcotest.(check int) "distinct" 2 p.Profile.distinct;
  Alcotest.(check bool) "min" true (Value.equal p.Profile.min_value (Value.Int 1));
  Alcotest.(check bool) "max" true (Value.equal p.Profile.max_value (Value.Int 3));
  Alcotest.(check (option (float 1e-9))) "mean" (Some 2.0) p.Profile.mean;
  let ps = Profile.column rel "s" in
  Alcotest.(check int) "string distinct" 2 ps.Profile.distinct;
  Alcotest.(check (option (float 1e-9))) "no mean for strings" None
    ps.Profile.mean;
  Alcotest.(check bool) "render" true (String.length (Profile.render rel) > 0);
  (* whole-relation profile covers every column *)
  Alcotest.(check int) "2 columns" 2 (List.length (Profile.relation rel));
  (* empty relation profiles are all-null *)
  let p0 = Profile.column (Relation.empty (Relation.schema rel)) "n" in
  Alcotest.(check bool) "empty min is null" true
    (Value.is_null p0.Profile.min_value)

let test_table_print () =
  let text = Table_print.render (rel_of [ (1, "x") ]) in
  Alcotest.(check bool) "has header" true
    (String.length text > 0
    && List.exists
         (fun line ->
           String.length line > 0
           && String.contains line 'a'
           && String.contains line 'b')
         (String.split_on_char '\n' text))

let () =
  Alcotest.run "sheet_rel"
    [ ( "value",
        [ Alcotest.test_case "compare/equal" `Quick test_value_compare;
          Alcotest.test_case "dates" `Quick test_value_dates;
          Alcotest.test_case "parsing" `Quick test_value_parse ] );
      ( "schema",
        [ Alcotest.test_case "basic ops" `Quick test_schema_ops;
          Alcotest.test_case "concat renames" `Quick
            test_schema_concat_renames ] );
      ( "expr",
        [ Alcotest.test_case "parse roundtrip" `Quick
            test_expr_parse_roundtrip;
          Alcotest.test_case "precedence" `Quick test_expr_precedence;
          Alcotest.test_case "null semantics" `Quick test_expr_null_semantics;
          Alcotest.test_case "like" `Quick test_like;
          Alcotest.test_case "typecheck" `Quick test_expr_typecheck;
          Alcotest.test_case "aggregates" `Quick test_aggregates ] );
      ( "algebra",
        [ Alcotest.test_case "select/project" `Quick test_select_project;
          Alcotest.test_case "product/join" `Quick test_product_join;
          Alcotest.test_case "bag union/diff" `Quick test_union_diff_bags;
          Alcotest.test_case "distinct/sort" `Quick test_distinct_sort ] );
      ( "io",
        [ Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv inference/quoting" `Quick
            test_csv_inference_and_quoting;
          Alcotest.test_case "profile" `Quick test_profile;
          Alcotest.test_case "table print" `Quick test_table_print ] ) ]
