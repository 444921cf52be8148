(* Tests of the incremental materialization engine: every derivation
   must coincide with a full stratified replay, rows and order, and
   the non-derivable cases must decline. *)

open Sheet_rel
open Sheet_core

let parse = Expr_parse.parse_string_exn

let cars () = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation

let apply_exn s op =
  match Engine.apply s op with
  | Ok s -> s
  | Error e -> Alcotest.failf "refused: %s" (Errors.to_string e)

let apply_seq sheet ops = List.fold_left apply_exn sheet ops

let check_derivation ?(expect_derived = true) parent op =
  let child = apply_exn parent op in
  (match Incremental.derive ~parent ~op ~child with
  | Some derived ->
      Alcotest.(check bool)
        (Printf.sprintf "derivation expected for %s" (Op.describe op))
        true expect_derived;
      Alcotest.(check bool)
        (Printf.sprintf "derived == full, rows and order, for %s"
           (Op.describe op))
        true
        (List.equal Row.equal (Relation.rows derived)
           (Relation.rows (Materialize.full child)))
  | None ->
      Alcotest.(check bool)
        (Printf.sprintf "fallback expected for %s" (Op.describe op))
        false expect_derived);
  child

let test_projection_derivation () =
  let s = cars () in
  let s = check_derivation s (Op.Project "Mileage") in
  let s = check_derivation s (Op.Unproject "Mileage") in
  (* under DE, projection changes the dedup key: no derivation *)
  let s = apply_exn s Op.Dedup in
  ignore (check_derivation ~expect_derived:false s (Op.Project "Mileage"))

let test_organization_derivation () =
  let s = cars () in
  let s =
    check_derivation s (Op.Group { basis = [ "Model" ]; dir = Grouping.Desc })
  in
  let s =
    check_derivation s (Op.Order { attr = "Price"; dir = Grouping.Asc; level = 2 })
  in
  let s =
    check_derivation s (Op.Group { basis = [ "Year" ]; dir = Grouping.Asc })
  in
  (* grouping after an aggregate at an existing level: content stable *)
  let s =
    apply_exn s
      (Op.Aggregate
         { fn = Expr.Avg; col = Some "Price"; level = 2; as_name = None })
  in
  ignore
    (check_derivation s
       (Op.Group { basis = [ "Condition" ]; dir = Grouping.Asc }));
  (* ungroup is derived too: a sort with no keys puts the grouped
     parent's rows back in base order, as a replay leaves them *)
  let grouped =
    apply_exn (cars ())
      (Op.Group { basis = [ "Model" ]; dir = Grouping.Asc })
  in
  ignore (check_derivation grouped Op.Ungroup);
  (* neither needs the parent's sort keys among the child's, though
     the child's keys tie across the parent's groups: a regroup on a
     new basis, and an order that replaces the leaf order *)
  ignore
    (check_derivation grouped
       (Op.Regroup { basis = [ "Condition" ]; dir = Grouping.Desc }));
  let ordered =
    check_derivation grouped
      (Op.Order { attr = "Price"; dir = Grouping.Desc; level = 2 })
  in
  ignore
    (check_derivation ordered
       (Op.Order { attr = "Year"; dir = Grouping.Asc; level = 1 }))

let test_order_groups_derivation () =
  let s =
    apply_seq (cars ())
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Avg; col = Some "Price"; level = 2;
            as_name = Some "ap" } ]
  in
  ignore
    (check_derivation s (Op.Order_groups { attr = "ap"; dir = Grouping.Desc }))

let test_selection_derivation () =
  (* no computed columns: every selection is at the highest stratum *)
  let s = cars () in
  let s = check_derivation s (Op.Select (parse "Year = 2005")) in
  (* with an aggregate, a base-column selection must NOT be derived
     (the aggregate would need recomputation) *)
  let s =
    apply_exn s
      (Op.Aggregate
         { fn = Expr.Avg; col = Some "Price"; level = 1; as_name = None })
  in
  let s =
    check_derivation ~expect_derived:false s
      (Op.Select (parse "Price < 16000"))
  in
  (* whereas a HAVING-style selection on the aggregate is derivable *)
  ignore (check_derivation s (Op.Select (parse "Avg_Price > 14000")))

(* Two selections derived from one cached, batch-backed parent — one
   on the compiled path, which filters a vector in place, and one on
   the row path — leave the parent's selection vector as it was, and
   each child is the oracle's answer, rows and order. *)
let test_selections_share_parent_vector () =
  let base = Sample_cars.scaled ~rows:2_000 ~seed:11 in
  let parent =
    apply_exn
      (Spreadsheet.of_relation ~name:"cars" base)
      (Op.Select (parse "Year >= 2002"))
  in
  let parent_rel = Materialize.full_cached parent in
  let sel0 = Array.copy (Relation.batch parent_rel).Relation.sel in
  List.iter
    (fun (text, columnar) ->
      let pred = parse text in
      Alcotest.(check bool) (text ^ " takes the expected path") columnar
        (snd (Rel_algebra.select_path pred parent_rel) = `Columnar);
      let op = Op.Select pred in
      let child = apply_exn parent op in
      match Incremental.derive ~parent ~op ~child with
      | None -> Alcotest.failf "%s was not derived" text
      | Some derived ->
          Alcotest.(check bool) (text ^ ": parent vector unchanged") true
            ((Relation.batch (Materialize.full_cached parent)).Relation.sel
             = sel0);
          Alcotest.(check bool) (text ^ ": derived == oracle") true
            (Oracle.same_rows_in_order derived (Oracle.materialize child)))
    [ ("Price < 20000", true); ("Price * 2 < 40000", false) ]

let test_computed_derivation () =
  let s =
    apply_seq (cars ())
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Select (parse "Year >= 2005") ]
  in
  let s =
    check_derivation s
      (Op.Aggregate
         { fn = Expr.Avg; col = Some "Price"; level = 2;
           as_name = Some "ap" })
  in
  let s =
    check_derivation s
      (Op.Formula { name = Some "delta"; expr = parse "Price - ap" })
  in
  ignore
    (check_derivation s
       (Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 1;
            as_name = Some "n" }))

(* A float sum depends on the order it adds in: 1e16 - 1e16 + 1 is 1,
   1 + 1e16 - 1e16 and 1 - 1e16 + 1e16 are 0. An aggregate appended to
   a sorted sheet must still fold in the order a full replay scans the
   base in (it aggregates before it sorts): in id order for a
   row-backed base (sum 1, where the K-descending order gives 0), in
   its own order for a batch-backed one, which the sheet re-roots
   (sorted by B: sum 0, where the root's id order and the K-ascending
   order give 1). *)
let test_aggregate_base_order () =
  let rows =
    Relation.make
      (Schema.of_list
         [ ("K", Value.TInt); ("B", Value.TInt); ("X", Value.TFloat) ])
      [ Row.of_list [ Value.Int 0; Value.Int 1; Value.Float 1e16 ];
        Row.of_list [ Value.Int 1; Value.Int 2; Value.Float (-1e16) ];
        Row.of_list [ Value.Int 2; Value.Int 0; Value.Float 1.0 ] ]
  in
  let batch =
    Plan.execute (Plan.Sort ([ ("B", `Asc) ], Plan.Scan rows))
  in
  List.iter
    (fun (name, base, dir, sum) ->
      let sorted =
        apply_exn
          (Spreadsheet.of_relation ~name base)
          (Op.Order { attr = "K"; dir; level = 1 })
      in
      List.iter
        (fun (fn, expected) ->
          let child =
            check_derivation sorted
              (Op.Aggregate
                 { fn; col = Some "X"; level = 1; as_name = Some "agg" })
          in
          match Relation.rows (Materialize.full child) with
          | row :: _ ->
              Alcotest.(check bool)
                (Printf.sprintf "%s over the %s base folds in base order"
                   (Expr.agg_fun_name fn) name)
                true
                (Value.equal (Row.get row 3) (Value.Float expected))
          | [] -> Alcotest.fail "no rows")
        [ (Expr.Sum, sum); (Expr.Avg, sum /. 3.) ])
    [ ("rows", rows, Grouping.Desc, 1.); ("batch", batch, Grouping.Asc, 0.) ]

let test_dedup_derivation () =
  let dup =
    Relation.make Sample_cars.schema
      (Relation.rows Sample_cars.relation
      @ Relation.rows Sample_cars.relation)
  in
  let s = Spreadsheet.of_relation ~name:"dup" dup in
  ignore (check_derivation s Op.Dedup);
  (* hidden column present: key mismatch risk, no derivation *)
  let s2 = apply_exn s (Op.Project "ID") in
  ignore (check_derivation ~expect_derived:false s2 Op.Dedup);
  (* computed column present: no derivation *)
  let s3 =
    apply_exn s
      (Op.Aggregate
         { fn = Expr.Count_star; col = None; level = 1; as_name = None })
  in
  ignore (check_derivation ~expect_derived:false s3 Op.Dedup)

let test_rename_not_derived () =
  ignore
    (check_derivation ~expect_derived:false (cars ())
       (Op.Rename { old_name = "Price"; new_name = "Cost" }))

let test_session_consistency () =
  (* a long session mixing derivable and non-derivable operators: the
     cached materializations must always equal a fresh replay *)
  let session = Session.create ~name:"cars" Sample_cars.relation in
  let script =
    [ "group Model desc"; "select Year >= 2005"; "agg avg Price level 2";
      "select Price <= Avg_Price"; "order Price asc"; "hide Condition";
      "formula m = Mileage / 1000"; "rename m kmiles"; "dedup";
      "show Condition"; "order kmiles desc" ]
  in
  ignore
    (List.fold_left
       (fun session line ->
         match Script.run_line session line with
         | Ok { Script.session; _ } ->
             let cached = Session.materialized session in
             let fresh =
               Sheet_rel.Rel_algebra.project
                 (Spreadsheet.visible_columns (Session.current session))
                 (Materialize.full (Session.current session))
             in
             Alcotest.(check bool)
               (Printf.sprintf "cache consistent after %S" line)
               true (Relation.equal cached fresh);
             session
         | Error msg -> Alcotest.failf "%S failed: %s" line msg)
       session script)

let () =
  Alcotest.run "sheet_incremental"
    [ ( "derivations",
        [ Alcotest.test_case "projection" `Quick test_projection_derivation;
          Alcotest.test_case "group/order" `Quick
            test_organization_derivation;
          Alcotest.test_case "selection strata" `Quick
            test_selection_derivation;
          Alcotest.test_case "selections share the parent's vector" `Quick
            test_selections_share_parent_vector;
          Alcotest.test_case "order-groups resort" `Quick
            test_order_groups_derivation;
          Alcotest.test_case "computed columns" `Quick
            test_computed_derivation;
          Alcotest.test_case "aggregate folds in base order" `Quick
            test_aggregate_base_order;
          Alcotest.test_case "dedup" `Quick test_dedup_derivation;
          Alcotest.test_case "rename declines" `Quick
            test_rename_not_derived ] );
      ( "integration",
        [ Alcotest.test_case "session cache consistency" `Quick
            test_session_consistency ] ) ]
