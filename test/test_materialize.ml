(* Edge-case tests of the materialization semantics: stratified
   replay, HAVING non-retroactivity, aggregation levels, NULLs in
   groups, empty relations, group boundaries. *)

open Sheet_rel
open Sheet_core

let parse = Expr_parse.parse_string_exn

let apply_exn s op =
  match Engine.apply s op with
  | Ok s -> s
  | Error e -> Alcotest.failf "refused: %s" (Errors.to_string e)

let apply_seq sheet ops = List.fold_left apply_exn sheet ops

let cars () = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation

(* ---- strata: HAVING-style selections do not retro-recompute ---- *)

let test_having_not_retroactive () =
  (* group by Model; count per group; keep groups with count >= 4.
     Jetta has 6 cars, Civic 3. After the selection only Jettas
     remain, but their count column must still read 6, not recompute
     to the filtered size. *)
  let s =
    apply_seq (cars ())
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 2;
            as_name = Some "n" };
        Op.Select (parse "n >= 4") ]
  in
  let rel = Materialize.full s in
  Alcotest.(check int) "only the 6 Jettas" 6 (Relation.cardinality rel);
  Alcotest.(check bool) "count still reads 6" true
    (List.for_all (Value.equal (Value.Int 6))
       (Relation.column_values rel "n"))

let test_later_aggregates_see_earlier_filters () =
  (* a selection on a base column IS seen by a later aggregate *)
  let s =
    apply_seq (cars ())
      [ Op.Select (parse "Model = 'Jetta'");
        Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 1;
            as_name = Some "n" } ]
  in
  let rel = Materialize.full s in
  Alcotest.(check bool) "aggregate over filtered rows" true
    (List.for_all (Value.equal (Value.Int 6))
       (Relation.column_values rel "n"))

let test_stacked_having () =
  (* an aggregate defined after a HAVING-style selection recomputes
     over the filtered data (strata are ordered by definition) *)
  let s =
    apply_seq (cars ())
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 2;
            as_name = Some "n" };
        Op.Select (parse "n >= 4");
        Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 1;
            as_name = Some "total" } ]
  in
  let rel = Materialize.full s in
  Alcotest.(check bool) "total counts surviving rows" true
    (List.for_all (Value.equal (Value.Int 6))
       (Relation.column_values rel "total"))

(* ---- aggregation levels ---- *)

let test_aggregation_levels () =
  let s =
    apply_seq (cars ())
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Group { basis = [ "Year" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 1;
            as_name = Some "all" };
        Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 2;
            as_name = Some "per_model" };
        Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 3;
            as_name = Some "per_model_year" } ]
  in
  let rel = Materialize.full s in
  let get row c = Row.get row (Schema.index_exn (Relation.schema rel) c) in
  List.iter
    (fun row ->
      Alcotest.(check bool) "level 1 counts everything" true
        (Value.equal (get row "all") (Value.Int 9));
      let model = get row "Model" in
      let expected_model =
        if Value.equal model (Value.String "Jetta") then 6 else 3
      in
      Alcotest.(check bool) "level 2 counts the model group" true
        (Value.equal (get row "per_model") (Value.Int expected_model)))
    (Relation.rows rel);
  Alcotest.(check int) "4 distinct (model, year) groups" 4
    (Oracle.group_count s ~level:3);
  Alcotest.(check int) "2 model groups" 2
    (Oracle.group_count s ~level:2);
  Alcotest.(check int) "root is one group" 1
    (Oracle.group_count s ~level:1)

(* ---- NULL handling ---- *)

let null_cars () =
  let row id model price =
    Row.of_list
      [ Value.Int id; model; price; Value.Int 2005; Value.Int 1000;
        Value.String "Good" ]
  in
  Relation.make Sample_cars.schema
    [ row 1 (Value.String "Jetta") (Value.Int 10);
      row 2 Value.Null (Value.Int 20);
      row 3 Value.Null Value.Null;
      row 4 (Value.String "Civic") (Value.Int 30) ]

let test_null_grouping_and_aggregation () =
  let s = Spreadsheet.of_relation ~name:"n" (null_cars ()) in
  let s =
    apply_seq s
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Avg; col = Some "Price"; level = 2;
            as_name = Some "ap" } ]
  in
  (* the two NULL models form one group, as in SQL GROUP BY *)
  Alcotest.(check int) "3 groups incl. the null group" 3
    (Oracle.group_count s ~level:2);
  let rel = Materialize.full s in
  let get row c = Row.get row (Schema.index_exn (Relation.schema rel) c) in
  (* nulls sort last in ascending group order *)
  (match List.rev (Relation.rows rel) with
  | last :: _ ->
      Alcotest.(check bool) "null group last" true
        (Value.is_null (get last "Model"))
  | [] -> Alcotest.fail "no rows");
  (* avg over the null group skips the null price: avg {20} = 20 *)
  List.iter
    (fun row ->
      if Value.is_null (get row "Model") then
        Alcotest.(check bool) "avg skips null" true
          (Value.equal (get row "ap") (Value.Float 20.0)))
    (Relation.rows rel)

let test_selection_on_null_is_false () =
  let s = Spreadsheet.of_relation ~name:"n" (null_cars ()) in
  let s = apply_exn s (Op.Select (parse "Price > 0")) in
  (* the NULL price row disappears: comparisons with NULL are false *)
  Alcotest.(check int) "null row filtered" 3
    (Relation.cardinality (Materialize.full s));
  let s2 = Spreadsheet.of_relation ~name:"n" (null_cars ()) in
  let s2 = apply_exn s2 (Op.Select (parse "Model IS NULL")) in
  Alcotest.(check int) "IS NULL finds them" 2
    (Relation.cardinality (Materialize.full s2))

(* ---- empty relation ---- *)

let test_empty_relation () =
  let s =
    Spreadsheet.of_relation ~name:"empty"
      (Relation.empty Sample_cars.schema)
  in
  let s =
    apply_seq s
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Sum; col = Some "Price"; level = 2; as_name = None };
        Op.Select (parse "Price > 0");
        Op.Dedup ]
  in
  Alcotest.(check int) "still empty, no crash" 0
    (Relation.cardinality (Materialize.full s));
  Alcotest.(check int) "zero groups" 0 (Oracle.group_count s ~level:2)

(* ---- boundaries ---- *)

let test_group_boundaries () =
  let s =
    apply_seq (cars ())
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Desc };
        Op.Group { basis = [ "Year" ]; dir = Grouping.Asc } ]
  in
  let breaks sheet =
    let p = Render.page sheet in
    List.filter (fun i -> p.Render.breaks.(i))
      (List.init (Array.length p.Render.breaks) Fun.id)
  in
  (* Jetta 2005 (3 rows) | Jetta 2006 (3) | Civic 2005 (1) | Civic 2006 (2) *)
  Alcotest.(check (list int)) "breaks after rows 2, 5, 6" [ 2; 5; 6 ]
    (breaks s);
  (* a window sees only the breaks between its own rows *)
  let w = Render.page ~offset:2 ~limit:5 s in
  Alcotest.(check (list bool)) "window [2, 7)"
    [ true; false; false; true; false ]
    (Array.to_list w.Render.breaks);
  Alcotest.(check int) "window keeps the total" 9 w.Render.total;
  (* no grouping, no boundaries *)
  Alcotest.(check (list int)) "flat sheet" [] (breaks (cars ()))

(* ---- formula over computed ---- *)

let test_formula_chain () =
  let s =
    apply_seq (cars ())
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Avg; col = Some "Price"; level = 2;
            as_name = Some "ap" };
        Op.Formula { name = Some "delta"; expr = parse "Price - ap" } ]
  in
  let rel = Materialize.full s in
  let get row c = Row.get row (Schema.index_exn (Relation.schema rel) c) in
  (* the deltas within each group must sum to ~0 *)
  let sum_jetta =
    List.fold_left
      (fun acc row ->
        if Value.equal (get row "Model") (Value.String "Jetta") then
          match Value.to_float (get row "delta") with
          | Some f -> acc +. f
          | None -> acc
        else acc)
      0.0 (Relation.rows rel)
  in
  Alcotest.(check bool) "deltas cancel" true (Float.abs sum_jetta < 1e-6)

let () =
  Alcotest.run "sheet_materialize"
    [ ( "strata",
        [ Alcotest.test_case "HAVING not retroactive" `Quick
            test_having_not_retroactive;
          Alcotest.test_case "aggregates see earlier filters" `Quick
            test_later_aggregates_see_earlier_filters;
          Alcotest.test_case "stacked having" `Quick test_stacked_having ]
      );
      ( "levels",
        [ Alcotest.test_case "aggregation levels" `Quick
            test_aggregation_levels ] );
      ( "nulls",
        [ Alcotest.test_case "null grouping/aggregation" `Quick
            test_null_grouping_and_aggregation;
          Alcotest.test_case "selection on null" `Quick
            test_selection_on_null_is_false ] );
      ( "edges",
        [ Alcotest.test_case "empty relation" `Quick test_empty_relation;
          Alcotest.test_case "group boundaries" `Quick test_group_boundaries;
          Alcotest.test_case "formula over aggregate" `Quick
            test_formula_chain ] ) ]
