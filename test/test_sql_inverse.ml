(* Tests of the inverse translation (sheet state -> single-block SQL):
   hand-built states, refusal reasons, and round trips
   SQL -> (Theorem 1) -> sheet -> (inverse) -> SQL. *)

open Sheet_rel
open Sheet_core
open Sheet_sql

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let catalog () = Catalog.of_list [ ("cars", Sample_cars.relation) ]

let session_with script =
  let s = Session.create ~name:"cars" Sample_cars.relation in
  match Script.run_silent s script with
  | Ok s -> s
  | Error msg -> Alcotest.failf "script failed: %s" msg

let compile_current s =
  Sql_of_sheet.to_string ~table:"cars" (Session.current s)

let test_plain_state () =
  let s = session_with "select Year >= 2005\nhide Mileage\norder Price desc" in
  match compile_current s with
  | Error m -> Alcotest.fail m
  | Ok sql ->
      Alcotest.(check bool) "where" true (contains sql "WHERE Year >= 2005");
      Alcotest.(check bool) "order" true (contains sql "ORDER BY Price DESC");
      Alcotest.(check bool) "projection" false (contains sql "Mileage");
      (* and it runs, matching the sheet *)
      let rel = Sql_executor.run_exn (catalog ()) sql in
      Alcotest.(check bool) "same data" true
        (Relation.equal_unordered_data
           (Relation.normalize rel)
           (Relation.normalize (Session.materialized s)))

let test_grouped_state () =
  let s =
    session_with
      {|select Condition = 'Good'
group Model asc
agg avg Price level 2 as ap
agg count as n
hide ID
hide Price
hide Year
hide Mileage
hide Condition
select n >= 1|}
  in
  match compile_current s with
  | Error m -> Alcotest.fail m
  | Ok sql ->
      Alcotest.(check bool) "group by" true (contains sql "GROUP BY Model");
      Alcotest.(check bool) "having" true
        (contains sql "HAVING count(*) >= 1");
      Alcotest.(check bool) "aggregate alias" true
        (contains sql "avg(Price) AS ap");
      let rel = Sql_executor.run_exn (catalog ()) sql in
      (* the sheet repeats group values per row; collapse to compare *)
      let collapsed = Rel_algebra.distinct (Session.materialized s) in
      Alcotest.(check bool) "same groups" true
        (Relation.equal_unordered_data
           (Relation.normalize rel)
           (Relation.normalize collapsed))

let test_formula_inlining () =
  let s =
    session_with
      {|formula rev = Price - Mileage / 10
select rev > 8000
hide rev|}
  in
  match compile_current s with
  | Error m -> Alcotest.fail m
  | Ok sql ->
      (* the formula column does not exist in SQL; its definition is
         inlined into the predicate *)
      Alcotest.(check bool) "inlined" true
        (contains sql "WHERE Price - Mileage / 10 > 8000");
      let rel = Sql_executor.run_exn (catalog ()) sql in
      Alcotest.(check int) "rows agree"
        (Relation.cardinality (Session.materialized s))
        (Relation.cardinality rel)

let test_distinct_state () =
  let s = session_with "hide ID\nhide Price\nhide Year\nhide Mileage\ndedup" in
  match compile_current s with
  | Error m -> Alcotest.fail m
  | Ok sql ->
      Alcotest.(check bool) "distinct" true (contains sql "SELECT DISTINCT");
      let rel = Sql_executor.run_exn (catalog ()) sql in
      Alcotest.(check int) "3 distinct model-condition pairs" 3
        (Relation.cardinality rel)

let test_order_groups_emitted () =
  let s =
    session_with
      {|group Model asc
agg sum Price level 2 as total
order-groups total desc
hide ID
hide Price
hide Year
hide Mileage
hide Condition|}
  in
  match compile_current s with
  | Error m -> Alcotest.fail m
  | Ok sql ->
      Alcotest.(check bool) "ORDER BY the aggregate" true
        (contains sql "ORDER BY sum(Price) DESC");
      let rel = Sql_executor.run_exn (catalog ()) sql in
      (match Relation.rows rel with
      | first :: _ ->
          Alcotest.(check bool) "jetta first (sum 98000 > 44500)" true
            (Sheet_rel.Value.equal (Sheet_rel.Row.get first 0)
               (Sheet_rel.Value.String "Jetta"))
      | [] -> Alcotest.fail "no rows")

let test_not_single_block_reasons () =
  (* the paper's introduction example: compare each row against its
     group's average — needs a nested query *)
  let s =
    session_with
      {|group Model asc
agg avg Price level 2
select Price <= Avg_Price
hide ID
hide Price
hide Year
hide Mileage
hide Condition|}
  in
  (match compile_current s with
  | Error reason ->
      Alcotest.(check bool) "mentions nested query" true
        (contains reason "nested")
  | Ok sql -> Alcotest.failf "unexpectedly compiled: %s" sql);
  (* visible non-grouped base column *)
  let s2 = session_with "group Model asc\nagg count as n" in
  (match compile_current s2 with
  | Error reason ->
      Alcotest.(check bool) "mentions collapse/projection" true
        (contains reason "project")
  | Ok sql -> Alcotest.failf "unexpectedly compiled: %s" sql);
  (* intermediate-level aggregate *)
  let s3 =
    session_with
      {|group Model asc
group Year asc
agg avg Price level 2 as ap
hide ID
hide Price
hide Mileage
hide Condition|}
  in
  (match compile_current s3 with
  | Error reason ->
      Alcotest.(check bool) "mentions level" true (contains reason "level")
  | Ok sql -> Alcotest.failf "unexpectedly compiled: %s" sql);
  (* duplicates go before computed columns: a visible formula over a
     hidden column, or any aggregate, sees rows SELECT DISTINCT keeps *)
  let refused ~says script =
    match compile_current (session_with script) with
    | Error reason ->
        Alcotest.(check bool) ("mentions " ^ says) true (contains reason says)
    | Ok sql -> Alcotest.failf "unexpectedly compiled: %s" sql
  in
  refused ~says:"hidden"
    "formula k = Mileage / 1000\nhide ID\nhide Price\nhide Mileage\ndedup";
  refused ~says:"aggregating"
    "hide ID\nhide Price\nhide Year\nhide Mileage\nhide Condition\ndedup\n\
     group Model asc\nagg count as n"

(* with every column hidden the sheet shows no column, while an empty
   select list would print as SELECT * and return all six *)
let test_all_hidden_refused () =
  let hide_but keep =
    List.filter (fun c -> c <> keep)
      [ "ID"; "Model"; "Price"; "Year"; "Mileage"; "Condition" ]
    |> List.map (( ^ ) "hide ")
    |> String.concat "\n"
  in
  (match compile_current (session_with (hide_but "Model" ^ "\nhide Model")) with
  | Error reason ->
      Alcotest.(check bool) "mentions hidden" true (contains reason "hidden")
  | Ok sql -> Alcotest.failf "unexpectedly compiled: %s" sql);
  match compile_current (session_with (hide_but "Model")) with
  | Error m -> Alcotest.fail m
  | Ok sql -> Alcotest.(check string) "one column" "SELECT Model\nFROM cars" sql

let round_trip sql_text =
  let cat = catalog () in
  let q = Sql_parser.parse_exn sql_text in
  let plan =
    match Sql_to_sheet.translate cat q with
    | Ok p -> p
    | Error m -> Alcotest.failf "translate failed: %s" m
  in
  let session =
    match Sql_to_sheet.session_of_plan cat plan with
    | Ok s -> s
    | Error m -> Alcotest.failf "plan failed: %s" m
  in
  match
    Sql_of_sheet.compile ~table:"cars" (Session.current session)
  with
  | Error (`Not_single_block m) ->
      Alcotest.failf "%s: not single block: %s" sql_text m
  | Ok q2 ->
      let expected = Sql_executor.run_exn cat sql_text in
      let actual =
        match Sql_executor.run cat q2 with
        | Ok rel -> rel
        | Error m -> Alcotest.failf "recompiled query failed: %s" m
      in
      (* align the recompiled output to the original's columns via the
         plan's output mapping (sheet column names) *)
      let projected =
        Rel_algebra.project plan.Sql_to_sheet.output actual
      in
      Alcotest.(check bool)
        (Printf.sprintf "round trip: %s" sql_text)
        true
        (List.sort compare
           (List.map Row.to_list (Relation.rows projected))
        = List.sort compare
            (List.map Row.to_list (Relation.rows expected)))

let test_round_trips () =
  List.iter round_trip
    [ "SELECT Model, Price FROM cars WHERE Year = 2005";
      "SELECT Model, avg(Price) AS ap FROM cars GROUP BY Model";
      "SELECT Model, Year, count(*) AS n FROM cars GROUP BY Model, Year \
       HAVING count(*) >= 2";
      "SELECT Condition, min(Price) AS lo, max(Price) AS hi FROM cars \
       WHERE Year >= 2005 GROUP BY Condition" ]

let () =
  Alcotest.run "sheet_sql_inverse"
    [ ( "compile",
        [ Alcotest.test_case "plain state" `Quick test_plain_state;
          Alcotest.test_case "grouped state" `Quick test_grouped_state;
          Alcotest.test_case "formula inlining" `Quick test_formula_inlining;
          Alcotest.test_case "distinct" `Quick test_distinct_state;
          Alcotest.test_case "refusal reasons" `Quick
            test_not_single_block_reasons;
          Alcotest.test_case "every column hidden" `Quick
            test_all_hidden_refused;
          Alcotest.test_case "order-groups to ORDER BY" `Quick
            test_order_groups_emitted ] );
      ( "round-trip",
        [ Alcotest.test_case "sql -> sheet -> sql" `Quick test_round_trips ]
      ) ]
