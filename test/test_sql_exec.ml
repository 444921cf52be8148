(* The SQL executor against naive references.

   - Aggregate accumulators: folding a value list through [acc_add]
     gives the list fold of [Oracle.apply_agg] bit for bit, or raises
     the same [Eval_error].
   - [Sql_executor.run] equals [Oracle.sql_run] — rows, order and
     float bits — on random queries, grouped or not, over small
     NULL-heavy relations with mixed Int/Float columns, and on fixed
     query shapes: two-column GROUP BY, a key column mixing Int and
     Float (the group's first row gives the key), aggregates only in
     HAVING or only in ORDER BY, one aggregate in SELECT and HAVING,
     aggregates without GROUP BY over an empty WHERE result, DISTINCT,
     and ORDER BY ties (which check stability). Some relations hold
     an ill-typed cell, where both must fail alike.
   - Execution errors come back as [Error], never as exceptions;
     aggregates are computed for every group, so an error in one is
     [Error] even where HAVING drops its group or a CASE branch skips
     it. *)

open Sheet_rel
open Sheet_sql

(* ---------- bit-identical values ---------- *)

let same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Float _, _ | _, Value.Float _ -> false
  | a, b -> a = b

let same_relation a b =
  Schema.names (Relation.schema a) = Schema.names (Relation.schema b)
  && List.equal (List.equal same_value)
       (List.map Row.to_list (Relation.rows a))
       (List.map Row.to_list (Relation.rows b))

let show_relation r =
  String.concat "\n"
    (String.concat "," (Schema.names (Relation.schema r))
    :: List.map
         (fun row ->
           String.concat "|"
             (List.map
                (function
                  | Value.Float f -> Printf.sprintf "%h" f
                  | v -> Value.to_string v)
                (Row.to_list row)))
         (Relation.rows r))

(* ---------- accumulators == the list fold ---------- *)

let all_aggs =
  Expr.[ Count_star; Count; Count_distinct; Sum; Avg; Min; Max ]

let gen_agg_values =
  let open QCheck.Gen in
  let numeric =
    frequency
      [ (3, return Value.Null);
        (3, map (fun i -> Value.Int i) (int_range (-3) 3));
        (3, map (fun f -> Value.Float f) (float_range (-4.) 4.));
        (1, return (Value.Int 1));
        (1, return (Value.Float 1.));
        (1, return (Value.Float Float.nan));
        (1, return (Value.Float (-0.)));
        (1, return (Value.Int max_int));
        (1, return (Value.Float 1e16)) ]
  in
  let* values = list_size (int_range 0 10) numeric in
  let* odd =
    frequency [ (4, return None); (1, map Option.some (int_range 0 10)) ]
  in
  let* bad =
    oneofl [ Value.String "s"; Value.Bool true; Value.Date 3 ]
  in
  (* sometimes one non-numeric value among the numbers *)
  return
    (match odd with
    | None -> values
    | Some at ->
        let at = min at (List.length values) in
        List.filteri (fun i _ -> i < at) values
        @ (bad :: List.filteri (fun i _ -> i >= at) values))

let outcome f =
  match f () with
  | v -> Ok v
  | exception Expr_eval.Eval_error msg -> Error msg

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> same_value x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let accumulators_match_list_fold =
  QCheck.Test.make ~count:2000
    ~name:"acc_add fold == list-fold apply_agg (bit-identical, same errors)"
    QCheck.(
      make
        ~print:(fun vs -> String.concat "; " (List.map Value.to_string vs))
        gen_agg_values)
    (fun values ->
      List.for_all
        (fun fn ->
          let want = outcome (fun () -> Oracle.apply_agg fn values) in
          let folded =
            outcome (fun () ->
                Expr_eval.acc_result
                  (List.fold_left
                     (fun a v ->
                       Expr_eval.acc_add a v;
                       a)
                     (Expr_eval.acc_create fn) values))
          in
          let applied =
            outcome (fun () -> Expr_eval.apply_agg fn values)
          in
          same_outcome want folded && same_outcome want applied)
        all_aggs)

let test_accumulator_edges () =
  let check name fn values want =
    match outcome (fun () -> Expr_eval.apply_agg fn values) with
    | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "%s = %s (got %s)" name (Value.to_string want)
             (Value.to_string v))
          true (same_value v want)
    | Error msg -> Alcotest.failf "%s raised %s" name msg
  in
  check "count distinct Int 1 / Float 1." Expr.Count_distinct
    [ Value.Int 1; Value.Float 1.; Value.Null ] (Value.Int 1);
  check "sum over max_int wraps" Expr.Sum
    [ Value.Int max_int; Value.Int 1 ] (Value.Int min_int);
  check "sum of -0. alone is 0." Expr.Sum [ Value.Float (-0.) ]
    (Value.Float 0.);
  check "empty sum is NULL" Expr.Sum [] Value.Null;
  check "all-null avg is NULL" Expr.Avg [ Value.Null ] Value.Null;
  check "count(*) counts NULLs" Expr.Count_star [ Value.Null; Value.Null ]
    (Value.Int 2);
  Alcotest.(check bool) "non-numeric sum raises the list fold's message" true
    (same_outcome
       (outcome (fun () ->
            Oracle.apply_agg Expr.Sum [ Value.Int 1; Value.String "x" ]))
       (outcome (fun () ->
            Expr_eval.apply_agg Expr.Sum [ Value.Int 1; Value.String "x" ])))

(* ---------- the executor == the naive SQL oracle ---------- *)

let schema =
  Schema.of_list
    [ ("g", Value.TInt); ("h", Value.TString); ("x", Value.TInt);
      ("y", Value.TFloat) ]

let gen_relation =
  let open QCheck.Gen in
  let nullable g = frequency [ (1, return Value.Null); (2, g) ] in
  let row =
    let* g = nullable (map (fun i -> Value.Int i) (int_range 0 2)) in
    let* h = nullable (map (fun s -> Value.String s) (oneofl [ "a"; "b" ])) in
    let* x = nullable (map (fun i -> Value.Int i) (int_range (-3) 3)) in
    (* a float column holding ints and floats *)
    let* y =
      nullable
        (oneof
           [ map (fun i -> Value.Int i) (int_range (-2) 2);
             map (fun f -> Value.Float f)
               (oneofl [ 0.5; -0.; 1.; 2.5; 0.1; 1e16 ]) ])
    in
    return (Row.of_list [ g; h; x; y ])
  in
  let* rows = list_size (int_range 0 12) row in
  (* in some relations, a String in the Int column [x] (a relation
     built without validation): both sides must then fail alike *)
  let* ill_typed = frequency [ (1, return true); (3, return false) ] in
  let* rows =
    if not ill_typed then return rows
    else
      flatten_l
        (List.map
           (fun row ->
             map
               (fun bad ->
                 if bad then Row.of_list [ row.(0); row.(1); Value.String "bad"; row.(3) ]
                 else row)
               (frequency [ (1, return true); (5, return false) ]))
           rows)
  in
  return (Relation.unsafe_of_array schema (Array.of_list rows))

let gen_query =
  let open QCheck.Gen in
  let agg =
    oneofl
      Expr.
        [ Agg (Count_star, None);
          Agg (Count, Some (Col "x"));
          Agg (Count_distinct, Some (Col "y"));
          Agg (Sum, Some (Col "x"));
          Agg (Sum, Some (Col "y"));
          Agg (Avg, Some (Col "y"));
          Agg (Min, Some (Col "y"));
          Agg (Max, Some (Col "x"));
          Agg (Sum, Some (Arith (Mul, Col "x", Col "y"))) ]
  in
  let item e = { Sql_ast.expr = e; alias = None } in
  let* where =
    oneofl
      Expr.
        [ None;
          Some (Cmp (Ge, Col "x", Const (Value.Int 0)));
          Some (Cmp (Lt, Col "y", Const (Value.Float 1.)));
          Some (Cmp (Gt, Col "x", Const (Value.Int 100))) ]
  in
  let* grouped = frequency [ (3, return true); (1, return false) ] in
  if grouped then
    (* grouping on [y] puts Int 1 beside Float 1. (and Int 0 beside
       Float -0.) in one group, whose first row must give the key *)
    let* group_by =
      oneofl [ []; [ "g" ]; [ "h" ]; [ "y" ]; [ "g"; "h" ]; [ "h"; "y" ] ]
    in
    (* some of the grouping columns, in any order *)
    let* shuffled = shuffle_l group_by in
    let* n = int_range 0 (List.length group_by) in
    let keys = List.filteri (fun i _ -> i < n) shuffled in
    let* aggs = list_size (int_range 0 3) agg in
    let select =
      match List.map (fun c -> Expr.Col c) keys @ aggs with
      | [] -> [ Expr.Agg (Expr.Count_star, None) ]
      | s -> s
    in
    let* having =
      option
        (let* a =
           if aggs = [] then agg
           else frequency [ (1, agg); (1, oneofl aggs) ]
         in
         let* op = oneofl Expr.[ Ge; Lt; Ne ] in
         let* c = int_range (-1) 3 in
         return (Expr.Cmp (op, a, Expr.Const (Value.Int c))))
    in
    let* order_by =
      list_size (int_range 0 2)
        (let* e =
           if group_by = [] then agg
           else
             frequency
               [ (2, map (fun c -> Expr.Col c) (oneofl group_by)); (1, agg) ]
         in
         let* dir = oneofl [ `Asc; `Desc ] in
         return { Sql_ast.expr = e; dir })
    in
    let* distinct = bool in
    return
      { Sql_ast.distinct;
        select = List.map item select;
        from = [ { Sql_ast.rel = "t"; alias = None } ];
        where;
        group_by;
        having;
        order_by }
  else
    let* cols = list_size (int_range 1 3) (oneofl [ "g"; "h"; "x"; "y" ]) in
    let* order_by =
      list_size (int_range 0 2)
        (let* c = oneofl [ "g"; "h"; "x"; "y" ] in
         let* dir = oneofl [ `Asc; `Desc ] in
         return { Sql_ast.expr = Expr.Col c; dir })
    in
    let* distinct = bool in
    return
      { Sql_ast.distinct;
        select = List.map (fun c -> item (Expr.Col c)) cols;
        from = [ { Sql_ast.rel = "t"; alias = None } ];
        where;
        group_by = [];
        having = None;
        order_by }

let agrees rel q =
  let catalog = Catalog.of_list [ ("t", rel) ] in
  match (Sql_executor.run catalog q, Oracle.sql_run catalog q) with
  | Ok got, Ok want ->
      same_relation got want
      || QCheck.Test.fail_reportf "executor:\n%s\noracle:\n%s"
           (show_relation got) (show_relation want)
  | Error _, Error _ -> true
  | Ok _, Error msg -> QCheck.Test.fail_reportf "only the oracle failed: %s" msg
  | Error msg, Ok _ ->
      QCheck.Test.fail_reportf "only the executor failed: %s" msg

let executor_matches_oracle =
  QCheck.Test.make ~count:1000
    ~name:"Sql_executor.run == Oracle.sql_run (rows, order, float bits)"
    QCheck.(
      make
        ~print:(fun (r, q) -> Sql_ast.to_string q ^ "\n" ^ show_relation r)
        Gen.(pair gen_relation gen_query))
    (fun (r, q) -> agrees r q)

let shapes =
  [ (* two-column GROUP BY *)
    "SELECT g, h, count(*), sum(y), avg(y) FROM t GROUP BY g, h";
    (* a key whose group mixes Int 1 and Float 1. *)
    "SELECT y, count(*), sum(x) FROM t GROUP BY y";
    "SELECT h, y, min(x) FROM t GROUP BY h, y";
    (* an aggregate only in HAVING *)
    "SELECT g, sum(x) FROM t GROUP BY g HAVING avg(y) > 0";
    (* an aggregate only in ORDER BY *)
    "SELECT h, count(*) FROM t GROUP BY h ORDER BY max(y) DESC";
    (* one aggregate in SELECT and HAVING *)
    "SELECT g, sum(y) FROM t GROUP BY g HAVING sum(y) >= 1";
    (* aggregates without GROUP BY over an empty WHERE result *)
    "SELECT count(*), count(x), sum(x), avg(y), min(y), max(x), \
     count(DISTINCT y) FROM t WHERE x > 100";
    "SELECT count(*) FROM t WHERE x > 100 HAVING count(*) = 0";
    (* DISTINCT and ORDER BY ties *)
    "SELECT DISTINCT g, h FROM t ORDER BY g";
    "SELECT h, x, y FROM t ORDER BY h DESC";
    "SELECT DISTINCT count(*) FROM t GROUP BY g ORDER BY count(*)";
    "SELECT g, h, sum(x * y) FROM t WHERE y IS NOT NULL GROUP BY g, h \
     ORDER BY g, sum(x * y) DESC";
    "SELECT h, count(DISTINCT y), min(y) FROM t GROUP BY h ORDER BY \
     count(DISTINCT y) DESC" ]

let shapes_match_oracle =
  let queries =
    List.map
      (fun sql ->
        match Sql_parser.parse sql with
        | Ok q -> q
        | Error msg -> failwith (sql ^ ": " ^ msg))
      shapes
  in
  QCheck.Test.make ~count:300
    ~name:"fixed query shapes: executor == oracle (rows, order, float bits)"
    QCheck.(make ~print:show_relation gen_relation)
    (fun r -> List.for_all (agrees r) queries)

(* ---------- errors are values ---------- *)

(* An ill-typed cell (a String in an Int column) that only a relation
   built without validation can hold: the aggregate's [Eval_error]
   comes back as [Error]. *)
let test_eval_error_is_a_value () =
  let t =
    Relation.unsafe_of_array
      (Schema.of_list [ ("x", Value.TInt) ])
      [| [| Value.Int 1 |]; [| Value.String "two" |] |]
  in
  let catalog = Catalog.of_list [ ("t", t) ] in
  let run sql =
    match Sql_executor.run_string catalog sql with
    | r -> r
    | exception e ->
        Alcotest.failf "%s raised %s" sql (Printexc.to_string e)
  in
  (match run "SELECT sum(x) FROM t" with
  | Error msg ->
      Alcotest.(check string) "message" "sum over non-numeric value two" msg
  | Ok _ -> Alcotest.fail "SELECT sum(x) over a String cell succeeded");
  (match run "SELECT x FROM t WHERE x + 1 > 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arithmetic over a String cell succeeded");
  (match run "SELECT * FROM nowhere" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an unknown relation was found");
  (* aggregates are computed before HAVING and CASE: the bad cell's
     group is dropped, or its sum is never chosen, and still fails *)
  let t =
    Relation.unsafe_of_array
      (Schema.of_list [ ("g", Value.TInt); ("x", Value.TInt) ])
      [| [| Value.Int 1; Value.Int 1 |]; [| Value.Int 1; Value.Int 2 |];
         [| Value.Int 2; Value.String "two" |] |]
  in
  let catalog = Catalog.of_list [ ("t", t) ] in
  let parse sql =
    match Sql_parser.parse sql with
    | Ok q -> q
    | Error msg -> failwith (sql ^ ": " ^ msg)
  in
  let case =
    let q = parse "SELECT g, sum(x) FROM t GROUP BY g" in
    let never =
      Expr.(
        Case
          ( [ (Cmp (Gt, Agg (Count_star, None), Const (Value.Int 5)),
               Agg (Sum, Some (Col "x"))) ],
            Some (Const (Value.Int 0)) ))
    in
    { q with
      Sql_ast.select =
        [ List.hd q.Sql_ast.select; { Sql_ast.expr = never; alias = None } ]
    }
  in
  List.iter
    (fun (name, q) ->
      match (Sql_executor.run catalog q, Oracle.sql_run catalog q) with
      | Error _, Error _ -> ()
      | Ok _, _ -> Alcotest.failf "%s: the executor succeeded" name
      | _, Ok _ -> Alcotest.failf "%s: the oracle succeeded" name
      | exception e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e))
    [ ( "aggregate of a group HAVING drops",
        parse
          "SELECT g FROM t GROUP BY g HAVING count(*) > 5 ORDER BY sum(x)" );
      ("aggregate in a CASE branch not taken", case) ]

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "sheet_sql_exec"
    [ ( "accumulators",
        [ q accumulators_match_list_fold;
          Alcotest.test_case "edge values" `Quick test_accumulator_edges ] );
      ("executor", [ q executor_matches_oracle; q shapes_match_oracle ]);
      ( "errors",
        [ Alcotest.test_case "evaluation errors are values" `Quick
            test_eval_error_is_a_value ] ) ]
