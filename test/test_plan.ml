(* Tests of the plan compiler and executor. *)

open Sheet_rel
open Sheet_core
module Obs = Sheet_obs.Obs

let parse = Expr_parse.parse_string_exn

let cars () = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation

let apply_exn s op =
  match Engine.apply s op with
  | Ok s -> s
  | Error e -> Alcotest.failf "refused: %s" (Errors.to_string e)

let apply_seq sheet ops = List.fold_left apply_exn sheet ops

let rich_sheet () =
  apply_seq (cars ())
    [ Op.Select (parse "Year >= 2005");
      Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
      Op.Aggregate
        { fn = Expr.Avg; col = Some "Price"; level = 2; as_name = Some "ap" };
      Op.Select (parse "Price <= ap");
      Op.Formula { name = Some "d"; expr = parse "ap - Price" };
      Op.Select (parse "d >= 0");
      Op.Project "Mileage";
      Op.Order { attr = "Price"; dir = Grouping.Asc; level = 2 } ]

let test_compile_equals_materialize () =
  let sheet = rich_sheet () in
  let plan = Plan.of_sheet sheet in
  Alcotest.(check bool) "plan == interpreter" true
    (Relation.equal (Plan.execute plan) (Materialize.full sheet))

let test_explain_output () =
  let text = Plan.explain (Plan.of_sheet (rich_sheet ())) in
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "sort line" true (has "Sort [Model asc");
  Alcotest.(check bool) "aggregate line" true
    (has "ExtendAgg ap = avg(Price) over [Model]");
  Alcotest.(check bool) "scan line" true (has "Scan (9 rows")

let test_dedup_distinct_on () =
  let dup =
    Relation.make Sample_cars.schema
      (Relation.rows Sample_cars.relation
      @ Relation.rows Sample_cars.relation)
  in
  let sheet =
    apply_seq
      (Spreadsheet.of_relation ~name:"dup" dup)
      [ Op.Project "ID"; Op.Dedup ]
  in
  let plan = Plan.of_sheet sheet in
  Alcotest.(check bool) "plan == interpreter under partial dedup keys" true
    (Relation.equal (Plan.execute plan) (Materialize.full sheet))

(* [explain] prints the plan that runs: the plan of the current
   sheet, whose node lines bottom-up are the units EXPLAIN ANALYZE
   records, in execution order. The sheet has selections at two
   strata, a formula, a hidden computed column and a grouping. *)
let test_explain_is_the_plan_that_runs () =
  let run s line =
    match Script.run_line s line with
    | Ok o -> o
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  let s =
    List.fold_left
      (fun s line -> (run s line).Script.session)
      (Session.create ~name:"cars" Sample_cars.relation)
      [ "select Year >= 2005";
        "group Model asc";
        "agg avg Price level 2 as ap";
        "select Price <= ap";
        "formula d = ap - Price";
        "hide d" ]
  in
  let sheet = Session.current s in
  let text = Plan.explain (Plan.of_sheet sheet) in
  Alcotest.(check (option string)) "explain = Plan.explain (Plan.of_sheet s)"
    (Some text) (run s "explain").Script.output;
  ignore (run s "explain analyze");
  let record =
    match Obs.Profile.find ~uid:sheet.Spreadsheet.uid with
    | Some r -> r
    | None -> Alcotest.fail "explain analyze committed no record"
  in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.rev |> List.map String.trim
  in
  Alcotest.(check bool) "leaf is the scan" true
    (String.starts_with ~prefix:"Scan " (List.hd lines));
  Alcotest.(check (list string)) "nodes bottom-up = units run"
    (List.tl lines)
    (List.map (fun n -> n.Obs.Profile.n_label) record.Obs.Profile.p_nodes)

(* [explain] takes nothing or [analyze] (any case) and refuses other
   words, as the other commands refuse arguments they do not take. *)
let test_explain_arguments () =
  let s = Session.create ~name:"cars" Sample_cars.relation in
  let accepts line =
    match Script.run_line s line with
    | Ok { Script.output = Some _; _ } -> true
    | Ok { Script.output = None; _ } | Error _ -> false
  in
  List.iter
    (fun line -> Alcotest.(check bool) line true (accepts line))
    [ "explain"; "explain analyze"; "EXPLAIN Analyze"; "explain   analyze  " ];
  List.iter
    (fun line ->
      match Script.run_line s line with
      | Error msg ->
          Alcotest.(check string) line "explain: expected [analyze]" msg
      | Ok _ -> Alcotest.failf "%S was accepted" line)
    [ "explain foo"; "explain analyze now"; "explain analyze analyze" ]

(* A computed column costs the rows it holds: over a ~2 % band of a
   30k-row base, the formula and the aggregate each allocate in
   proportion to the ~600 rows that survive, not to the base (a
   base-sized float column alone is 240 KB). *)
let test_computed_columns_sized_by_survivors () =
  let sheet =
    apply_seq
      (Spreadsheet.of_relation ~name:"cars30k"
         (Sample_cars.scaled ~rows:30_000 ~seed:11))
      [ Op.Select (parse "Price >= 15000 AND Price < 15300");
        Op.Formula { name = Some "net"; expr = parse "Price * 0.93 + Mileage * 0.001" };
        Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Sum; col = Some "Price"; level = 2; as_name = Some "sp" } ]
  in
  let uid = sheet.Spreadsheet.uid in
  let rel, _ = Plan.explain_analyze ~uid (Plan.of_sheet sheet) in
  let survivors = Relation.cardinality rel in
  Alcotest.(check bool)
    (Printf.sprintf "a narrow band (%d rows)" survivors)
    true
    (survivors > 300 && survivors < 900);
  let record =
    match Obs.Profile.find ~uid with
    | Some r -> r
    | None -> Alcotest.fail "explain analyze committed no record"
  in
  List.iter
    (fun kind ->
      match
        List.find_opt
          (fun n -> n.Obs.Profile.n_kind = kind)
          record.Obs.Profile.p_nodes
      with
      | None -> Alcotest.failf "no %s node" kind
      | Some n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s allocates %.0f B, under 64 KB" kind
               n.Obs.Profile.n_alloc_bytes)
            true
            (n.Obs.Profile.n_alloc_bytes < 65_536.))
    [ "extend"; "extend-agg" ]

let () =
  Alcotest.run "sheet_plan"
    [ ( "compile",
        [ Alcotest.test_case "equals interpreter" `Quick
            test_compile_equals_materialize;
          Alcotest.test_case "dedup keys" `Quick test_dedup_distinct_on;
          Alcotest.test_case "explain" `Quick test_explain_output;
          Alcotest.test_case "explain is the plan that runs" `Quick
            test_explain_is_the_plan_that_runs;
          Alcotest.test_case "explain refuses other arguments" `Quick
            test_explain_arguments ] );
      ( "allocation",
        [ Alcotest.test_case "computed columns sized by survivors" `Quick
            test_computed_columns_sized_by_survivors ] ) ]
