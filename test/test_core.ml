(* Unit tests for the spreadsheet-algebra core, anchored on the
   paper's running example (Tables I-V). *)

open Sheet_rel
open Sheet_core

let v_int i = Value.Int i
let v_str s = Value.String s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let session () = Session.create ~name:"cars" Sample_cars.relation

let run_script s script =
  match Script.run_silent s script with
  | Ok s -> s
  | Error msg -> Alcotest.failf "script failed: %s" msg

let expect_error s script =
  match Script.run_silent s script with
  | Ok _ -> Alcotest.failf "script unexpectedly succeeded: %s" script
  | Error msg -> msg

let ids s =
  Relation.column_values (Session.materialized s) "ID"
  |> List.map (function Value.Int i -> i | _ -> assert false)

let check_ids what expected s = Alcotest.(check (list int)) what expected (ids s)

(* ---- Table I: base spreadsheet ---- *)

let test_base_spreadsheet () =
  let s = session () in
  let rel = Session.materialized s in
  Alcotest.(check int) "9 rows" 9 (Relation.cardinality rel);
  Alcotest.(check (list string))
    "columns inherited"
    [ "ID"; "Model"; "Price"; "Year"; "Mileage"; "Condition" ]
    (Schema.names (Relation.schema rel));
  let g = Spreadsheet.grouping (Session.current s) in
  Alcotest.(check int) "grouped by NULL only" 1 (Grouping.num_levels g)

(* ---- Example 1 / Table II: grouping ---- *)

(* Set up the paper's starting point for the grouping examples: cars
   grouped by Model (DESC) then Year (ASC), ordered by Price (ASC)
   inside the finest groups. *)
let example_setup = {|
group Model desc
group Year asc
order Price asc
|}

let test_table2_grouping () =
  let s = run_script (session ()) example_setup in
  (* τ_{Year,Model,Condition},ASC creates a fourth level with relative
     basis Condition. *)
  let s = run_script s "group Year, Model, Condition asc" in
  check_ids "Table II row order"
    [ 872; 901; 304; 723; 725; 423; 132; 879; 322 ]
    s;
  let g = Spreadsheet.grouping (Session.current s) in
  Alcotest.(check int) "four levels incl. root" 4 (Grouping.num_levels g);
  Alcotest.(check (list string))
    "finest basis" [ "Model"; "Year"; "Condition" ]
    (Grouping.finest_basis g);
  (* price ordering survives as leaf order (o_L = L - basis) *)
  Alcotest.(check bool)
    "Price still leaf order" true
    (List.mem_assoc "Price" g.Grouping.leaf_order)

(* ---- Example 2: ordering ---- *)

let test_ordering_level3 () =
  let s = run_script (session ()) example_setup in
  (* Def. 4 case 3: ordering by a new attribute at the finest level
     appends it as a secondary key after Price ("we further order cars
     by Mileage"), so with no Price ties the row order is unchanged. *)
  let s = run_script s "order Mileage asc level 3" in
  let g = Spreadsheet.grouping (Session.current s) in
  Alcotest.(check int) "grouping intact" 3 (Grouping.num_levels g);
  Alcotest.(check (list (pair string bool)))
    "leaf order is Price then Mileage"
    [ ("Price", true); ("Mileage", true) ]
    (List.map
       (fun (a, d) -> (a, d = Grouping.Asc))
       g.Grouping.leaf_order);
  check_ids "row order unchanged (no Price ties)"
    [ 304; 872; 901; 423; 723; 725; 132; 879; 322 ]
    s;
  (* re-ordering an attribute already in the leaf order flips it in
     place instead of appending *)
  let s = run_script s "order Price desc level 3" in
  check_ids "Price flipped to descending"
    [ 901; 872; 304; 725; 723; 423; 132; 322; 879 ]
    s

let test_ordering_destroys_grouping () =
  let s = run_script (session ()) example_setup in
  (* ordering level-2 groups by Mileage destroys the Year level *)
  let s = run_script s "order Mileage asc level 2" in
  let g = Spreadsheet.grouping (Session.current s) in
  Alcotest.(check int) "Year level destroyed" 2 (Grouping.num_levels g);
  Alcotest.(check (list string)) "only Model" [ "Model" ]
    (Grouping.finest_basis g)

let test_ordering_destroy_refused_with_aggregates () =
  let s = run_script (session ()) example_setup in
  let s = run_script s "agg avg Price level 3" in
  let msg = expect_error s "order Mileage asc level 2" in
  Alcotest.(check bool) "mentions aggregates" true
    (contains msg "Avg_Price")

(* ---- Table III: aggregation ---- *)

let test_table3_aggregation () =
  let s = run_script (session ()) example_setup in
  (* Paper presentation: Model implicitly ascending in Table III *)
  let s = run_script s "order Model asc level 1" in
  let s = run_script s "agg avg Price level 3" in
  let rel = Session.materialized s in
  Alcotest.(check bool) "Avg_Price column present" true
    (Schema.mem (Relation.schema rel) "Avg_Price");
  let rows =
    List.map
      (fun row ->
        let get name =
          Row.get row (Schema.index_exn (Relation.schema rel) name)
        in
        (get "ID", get "Avg_Price"))
      (Relation.rows rel)
  in
  let avg_of id =
    match List.assoc (v_int id) rows with
    | Value.Float f -> f
    | v -> Alcotest.failf "Avg_Price not a float: %s" (Value.to_string v)
  in
  Alcotest.(check (float 0.5)) "Jetta 2005 avg" 15166.67 (avg_of 304);
  Alcotest.(check (float 0.5)) "Jetta 2006 avg" 17500.0 (avg_of 423);
  Alcotest.(check (float 0.5)) "Civic 2005 avg" 13500.0 (avg_of 132);
  Alcotest.(check (float 0.5)) "Civic 2006 avg" 15500.0 (avg_of 879)

let test_aggregation_whole_sheet () =
  let s = run_script (session ()) "agg count" in
  let rel = Session.materialized s in
  let counts = Relation.column_values rel "Count" in
  List.iter
    (fun v -> Alcotest.(check bool) "count=9 everywhere" true
        (Value.equal v (v_int 9)))
    counts

(* ---- selection then compare with aggregate (Fig. 2 scenario) ---- *)

let test_select_below_average () =
  let s = run_script (session ()) {|
group Model asc
group Year asc
agg avg Price level 3
select Price <= Avg_Price
|} in
  check_ids "cars at or below their group average"
    [ 132; 879; 304; 872; 423; 723 ]
    s

(* ---- Tables IV & V: query modification ---- *)

let modification_setup = {|
select Year = 2005
select Model = 'Jetta'
select Mileage < 80000
group Condition asc
order Price asc
|}

let test_table4_before_modification () =
  let s = run_script (session ()) modification_setup in
  check_ids "Table IV" [ 872; 901; 304 ] s

let test_table5_after_modification () =
  let s = run_script (session ()) modification_setup in
  (* Find the selection on Year and replace 2005 by 2006. *)
  let sels = Session.selections_on s "Year" in
  let id = (List.hd sels).Query_state.id in
  let s =
    run_script s (Printf.sprintf "replace %d Year = 2006" id)
  in
  check_ids "Table V" [ 723; 725; 423 ] s

let test_remove_selection () =
  let s = run_script (session ()) modification_setup in
  let sels = Session.selections_on s "Model" in
  let id = (List.hd sels).Query_state.id in
  let s = run_script s (Printf.sprintf "drop-select %d" id) in
  (* without the Model predicate: all 2005 cars under 80k miles *)
  check_ids "Model restriction dropped" [ 872; 901; 304 ] s
  [@@warning "-26"]

let test_remove_selection_all_models () =
  let s = run_script (session ()) modification_setup in
  let id_model = (List.hd (Session.selections_on s "Model")).Query_state.id in
  let id_mileage =
    (List.hd (Session.selections_on s "Mileage")).Query_state.id
  in
  let s = run_script s (Printf.sprintf "drop-select %d" id_model) in
  let s = run_script s (Printf.sprintf "drop-select %d" id_mileage) in
  Alcotest.(check int) "all 2005 cars" 4
    (Relation.cardinality (Session.materialized s))

(* ---- commutativity smoke checks (Theorem 2 is exercised in depth by
   the property suite) ---- *)

let test_selection_aggregation_commute () =
  let s1 = run_script (session ()) {|
group Model asc
agg avg Price level 2
select Year = 2005
|} in
  let s2 = run_script (session ()) {|
group Model asc
select Year = 2005
agg avg Price level 2
|} in
  Alcotest.(check bool) "same result" true
    (Relation.equal (Session.materialized s1) (Session.materialized s2))

let test_projection_retains_grouping () =
  let s = run_script (session ()) example_setup in
  let s = run_script s "hide Mileage" in
  let rel = Session.materialized s in
  Alcotest.(check bool) "Mileage hidden" false
    (Schema.mem (Relation.schema rel) "Mileage");
  check_ids "order unchanged"
    [ 304; 872; 901; 423; 723; 725; 132; 879; 322 ]
    s;
  let s = run_script s "show Mileage" in
  Alcotest.(check bool) "Mileage restored" true
    (Schema.mem (Relation.schema (Session.materialized s)) "Mileage")

(* ---- order-groups extension ---- *)

let test_order_groups_by_aggregate () =
  let s = run_script (session ()) {|
group Model asc
agg avg Price level 2 as ap
order-groups ap desc
order Price asc|} in
  (* Jetta's average (16333) beats Civic's (14833): Jettas first, and
     groups stay contiguous *)
  check_ids "groups ordered by their average, rows by price"
    [ 304; 872; 901; 423; 723; 725; 132; 879; 322 ]
    s;
  (* ascending flips the groups *)
  let s = run_script s "order-groups ap asc" in
  check_ids "flipped"
    [ 132; 879; 322; 304; 872; 901; 423; 723; 725 ]
    s;
  (* the aggregate column is now load-bearing: removal refused *)
  let msg = expect_error s "drop-column ap" in
  Alcotest.(check bool) "removal blocked by group ordering" true
    (contains msg "ordered")

let test_order_groups_guards () =
  let s =
    run_script (session ())
      "agg avg Price as whole_sheet\nformula twice = Price * 2"
  in
  let refused name line expected =
    Alcotest.(check string) name
      (Printf.sprintf "line 1 (%s): %s" line expected)
      (expect_error s line)
  in
  refused "whole-sheet aggregate refused" "order-groups whole_sheet desc"
    "grouping error: \"whole_sheet\" aggregates the whole sheet; there \
     are no sibling groups to order";
  refused "formula column refused" "order-groups twice desc"
    "invalid operation: \"twice\" is not an aggregation column; ordering \
     groups by value requires one";
  refused "base column refused" "order-groups Price desc"
    "invalid operation: \"Price\" is not an aggregation column; ordering \
     groups by value requires one";
  refused "unknown column" "order-groups Nope desc"
    "unknown column \"Nope\""

(* ---- undo/redo ---- *)

let test_undo_redo () =
  let s = run_script (session ()) "select Year = 2005" in
  Alcotest.(check int) "filtered" 4
    (Relation.cardinality (Session.materialized s));
  let s = Option.get (Session.undo s) in
  Alcotest.(check int) "undone" 9
    (Relation.cardinality (Session.materialized s));
  let s = Option.get (Session.redo s) in
  Alcotest.(check int) "redone" 4
    (Relation.cardinality (Session.materialized s))

(* ---- binary operators ---- *)

let test_union_and_diff () =
  let s = run_script (session ()) {|
save all
select Model = 'Jetta'
save jettas
open all
except jettas
|} in
  check_ids "difference leaves Civics" [ 132; 879; 322 ] s;
  let s = run_script s "union jettas" in
  Alcotest.(check int) "union restores all 9" 9
    (Relation.cardinality (Session.materialized s))

let test_join () =
  let s = session () in
  (* a tiny lookup table of model -> maker *)
  let makers =
    Relation.make
      (Schema.of_list [ ("MModel", Value.TString); ("Maker", Value.TString) ])
      [ Row.of_list [ v_str "Jetta"; v_str "VW" ];
        Row.of_list [ v_str "Civic"; v_str "Honda" ] ]
  in
  Store.save (Session.store s) ~name:"makers"
    (Spreadsheet.of_relation ~name:"makers" makers);
  let s = run_script s "join makers on Model = MModel" in
  let rel = Session.materialized s in
  Alcotest.(check int) "9 joined rows" 9 (Relation.cardinality rel);
  Alcotest.(check bool) "Maker column" true
    (Schema.mem (Relation.schema rel) "Maker")

let test_point_of_noncommutativity () =
  let s = run_script (session ()) {|
save all
select Model = 'Jetta'
union all
|} in
  (* after the union, earlier selections are baked in: no selections
     remain modifiable *)
  Alcotest.(check int) "selection history cleared" 0
    (List.length (Session.selections_on s "Model"));
  Alcotest.(check int) "6 + 9 rows" 15
    (Relation.cardinality (Session.materialized s))

(* ---- computed column auto-update across DE ---- *)

let test_dedup_recomputes_aggregates () =
  let dup_rel =
    Relation.make Sample_cars.schema
      (Relation.rows Sample_cars.relation
      @ Relation.rows Sample_cars.relation)
  in
  let s = Session.create ~name:"cars2" dup_rel in
  let s = run_script s "agg count" in
  let counts = Relation.column_values (Session.materialized s) "Count" in
  Alcotest.(check bool) "18 before dedup" true
    (List.for_all (Value.equal (v_int 18)) counts);
  let s = run_script s "dedup" in
  let counts = Relation.column_values (Session.materialized s) "Count" in
  Alcotest.(check bool) "9 after dedup" true
    (List.for_all (Value.equal (v_int 9)) counts)

let test_rename_rewrites_state () =
  let s = run_script (session ()) {|
select Price < 16000
group Model asc
rename Price AskingPrice
|} in
  let rel = Session.materialized s in
  Alcotest.(check bool) "new name present" true
    (Schema.mem (Relation.schema rel) "AskingPrice");
  Alcotest.(check int) "selection still applies" 4
    (Relation.cardinality rel);
  let sels = Session.selections_on s "AskingPrice" in
  Alcotest.(check int) "selection re-associated" 1 (List.length sels)

let test_remove_computed_guard () =
  let s = run_script (session ()) {|
agg avg Price
select Price < Avg_Price
|} in
  let msg = expect_error s "drop-column Avg_Price" in
  Alcotest.(check bool) "refusal mentions dependency" true
    (contains msg "depended on");
  let s = run_script s "drop-select 1" in
  let s = run_script s "drop-column Avg_Price" in
  Alcotest.(check bool) "column gone" false
    (Schema.mem (Relation.schema (Session.materialized s)) "Avg_Price")

let () =
  Alcotest.run "sheet_core"
    [ ( "paper-example",
        [ Alcotest.test_case "table1 base spreadsheet" `Quick
            test_base_spreadsheet;
          Alcotest.test_case "table2 grouping" `Quick test_table2_grouping;
          Alcotest.test_case "example2 ordering level 3" `Quick
            test_ordering_level3;
          Alcotest.test_case "ordering destroys grouping" `Quick
            test_ordering_destroys_grouping;
          Alcotest.test_case "destroy refused with aggregates" `Quick
            test_ordering_destroy_refused_with_aggregates;
          Alcotest.test_case "table3 aggregation" `Quick
            test_table3_aggregation;
          Alcotest.test_case "whole-sheet aggregation" `Quick
            test_aggregation_whole_sheet;
          Alcotest.test_case "select below group average" `Quick
            test_select_below_average ] );
      ( "query-modification",
        [ Alcotest.test_case "table4 before" `Quick
            test_table4_before_modification;
          Alcotest.test_case "table5 after" `Quick
            test_table5_after_modification;
          Alcotest.test_case "remove selection" `Quick test_remove_selection;
          Alcotest.test_case "remove several selections" `Quick
            test_remove_selection_all_models ] );
      ( "algebra-properties",
        [ Alcotest.test_case "selection/aggregation commute" `Quick
            test_selection_aggregation_commute;
          Alcotest.test_case "projection retains grouping" `Quick
            test_projection_retains_grouping ] );
      ( "order-groups",
        [ Alcotest.test_case "order groups by aggregate" `Quick
            test_order_groups_by_aggregate;
          Alcotest.test_case "guards" `Quick test_order_groups_guards ] );
      ( "session",
        [ Alcotest.test_case "undo/redo" `Quick test_undo_redo;
          Alcotest.test_case "union and difference" `Quick test_union_and_diff;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "point of non-commutativity" `Quick
            test_point_of_noncommutativity;
          Alcotest.test_case "dedup recomputes aggregates" `Quick
            test_dedup_recomputes_aggregates;
          Alcotest.test_case "rename rewrites state" `Quick
            test_rename_rewrites_state;
          Alcotest.test_case "remove computed guard" `Quick
            test_remove_computed_guard ] ) ]
