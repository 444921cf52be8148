(* Sheetcol: the columnar substrate.

   The image tests use *structural* equality strict enough to notice a
   constructor swap (Int 1 vs Float 1.) and a NaN payload change —
   Value.equal would accept both, which is exactly the laxity the
   cell law must not inherit.

   The differential tests pin the compiled selection-vector path to
   the row interpreter on random predicates. *)

open Sheet_rel
open Sheet_core


(* bit-exact value equality: same constructor, NaN = NaN by bits *)
let value_exact a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

(* ---------- generators ---------- *)

let gen_value : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [ (3, return Value.Null);
      (3, map (fun b -> Value.Bool b) bool);
      (4, map (fun i -> Value.Int i) (int_range (-1000) 1000));
      ( 4,
        map
          (fun f -> Value.Float f)
          (oneof
             [ float; return Float.nan; return (0. /. 0.); return (-0.0);
               return Float.infinity ]) );
      (4, map (fun s -> Value.String s) (string_size (int_range 0 6)));
      (2, map (fun d -> Value.Date d) (int_range (-10000) 10000)) ]

(* one column's worth of cells, biased toward the uniform cases the
   specializer targets *)
let gen_column_cells n : Value.t array QCheck.Gen.t =
  let open QCheck.Gen in
  let with_nulls g =
    let* nullp = float_range 0. 0.9 in
    array_repeat n
      (let* p = float_range 0. 1. in
       if p < nullp then return Value.Null else g)
  in
  oneof
    [ with_nulls (map (fun i -> Value.Int i) (int_range (-1000) 1000));
      with_nulls
        (map
           (fun f -> Value.Float f)
           (oneof [ float; return Float.nan; return (-0.0) ]));
      with_nulls
        (map (fun s -> Value.String s) (string_size (int_range 0 4)));
      with_nulls (map (fun b -> Value.Bool b) bool);
      with_nulls (map (fun d -> Value.Date d) (int_range 0 20000));
      array_repeat n gen_value (* mixed: must fall back to Boxed *) ]

let gen_uniform_rows : (int * Row.t array) QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 0 60 in
  let* w = int_range 0 5 in
  let* cols = list_repeat w (gen_column_cells n) in
  let cols = Array.of_list cols in
  return
    ( w,
      Array.init n (fun i ->
          Row.of_list (List.init w (fun j -> cols.(j).(i)))) )

let gen_ragged_rows : (int * Row.t array) QCheck.Gen.t =
  let open QCheck.Gen in
  let* width = int_range 0 6 in
  let* n = int_range 0 40 in
  let* rows =
    array_repeat n
      (let* w = int_range 0 6 in
       let* cells = list_repeat w gen_value in
       return (Row.of_list cells))
  in
  return (width, rows)

(* ---------- the image of rectangular rows ---------- *)

let image_cells_exact =
  QCheck.Test.make ~count:300 ~name:"rectangular rows: Some, cells exact"
    (QCheck.make gen_uniform_rows) (fun (width, rows) ->
      let img = Columnar.of_rows ~width rows in
      Array.for_all
        (fun i ->
          List.for_all
            (fun j ->
              value_exact
                (Column.get (Columnar.column img j) i)
                (Row.get rows.(i) j))
            (List.init width Fun.id))
        (Array.init (Array.length rows) Fun.id))

let ragged_no_image =
  QCheck.Test.make ~count:300 ~name:"ragged rows: Invalid_argument"
    (QCheck.make gen_ragged_rows) (fun (width, rows) ->
      (match Columnar.of_rows ~width rows with
      | _ -> false
      | exception Invalid_argument _ -> true)
      = Array.exists (fun row -> Row.width row <> width) rows)

(* ---------- specialization ---------- *)

let test_specialization () =
  let col vs = Column.of_values (Array.of_list vs) in
  Alcotest.(check string)
    "ints" "int"
    (Column.kind_name (col [ Value.Int 1; Value.Null; Value.Int 3 ]));
  Alcotest.(check string)
    "floats" "float"
    (Column.kind_name (col [ Value.Float 1.5; Value.Float Float.nan ]));
  Alcotest.(check string)
    "strings" "string"
    (Column.kind_name (col [ Value.String "a"; Value.String "a" ]));
  (* Int next to Float must stay boxed: specializing would lose the
     constructor distinction the codec promises to keep. *)
  Alcotest.(check string)
    "mixed int/float stays boxed" "boxed"
    (Column.kind_name (col [ Value.Int 1; Value.Float 1. ]));
  Alcotest.(check string)
    "all-null stays boxed" "boxed"
    (Column.kind_name (col [ Value.Null; Value.Null ]));
  Alcotest.(check string)
    "empty stays boxed" "boxed" (Column.kind_name (col []));
  let c = col [ Value.String "x"; Value.String "y"; Value.String "x" ] in
  Alcotest.(check int) "dict size" 2 (Column.dict_size c)

(* A relation holding a mixed-constructor column: the engine must fall
   back to the row path and produce identical select results. *)
let test_mixed_column_fallback () =
  let schema =
    Schema.of_list [ ("K", Value.TInt); ("V", Value.TFloat) ]
  in
  let rows =
    Array.init 200 (fun i ->
        Row.of_list
          [ Value.Int i;
            (if i mod 3 = 0 then Value.Int i else Value.Float (float i)) ])
  in
  let r = Relation.of_array schema rows in
  Alcotest.(check string)
    "V column boxed" "boxed"
    (Column.kind_name (Columnar.column (Relation.columnar_view r) 1));
  let pred = Expr.(Cmp (Lt, Col "V", Const (Value.Int 100))) in
  let out, path = Rel_algebra.select_path pred r in
  Alcotest.(check bool)
    "a boxed comparison takes the row path" false (path = `Columnar);
  let index = Schema.compile_index schema in
  let expected =
    Array.to_list rows
    |> List.filter (fun row ->
           Expr_eval.eval_pred
             ~lookup:(fun name -> Row.get row (index name))
             pred)
  in
  Alcotest.(check bool)
    "row-path result identical" true
    (List.equal Row.equal expected (Relation.rows out))

let test_ragged_relation_has_no_view () =
  let schema =
    Schema.of_list [ ("A", Value.TInt); ("B", Value.TInt) ]
  in
  let r =
    Relation.unsafe_make schema
      [ Row.of_list [ Value.Int 1; Value.Int 2 ];
        Row.of_list [ Value.Int 3 ] ]
  in
  Alcotest.check_raises "ragged => no columnar view"
    (Invalid_argument "Columnar.of_rows: ragged rows") (fun () ->
      ignore (Relation.columnar_view r))

(* ---------- compiled predicates vs the row interpreter ---------- *)

let cars_schema = Sample_cars.schema

let gen_cars_pred : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_leaf =
    let num_col = oneofl [ "Price"; "Year"; "Mileage"; "ID" ] in
    let cmp = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    oneof
      [ (let* c = num_col in
         let* op = cmp in
         let* v =
           oneof
             [ map (fun i -> Value.Int i) (int_range 0 40000);
               map (fun f -> Value.Float f) (float_range 0. 40000.);
               return Value.Null ]
         in
         return (Expr.Cmp (op, Expr.Col c, Expr.Const v)));
        (let* op = cmp in
         return (Expr.Cmp (op, Expr.Col "Price", Expr.Col "Mileage")));
        (let* op = cmp in
         let* s = oneofl [ "Jetta"; "Civic"; "nope" ] in
         return
           (Expr.Cmp (op, Expr.Col "Model", Expr.Const (Value.String s))));
        (let* lo = int_range 8000 20000 in
         let* hi = int_range 15000 30000 in
         return
           (Expr.Between
              ( Expr.Col "Price",
                Expr.Const (Value.Int lo),
                Expr.Const (Value.Int hi) )));
        (let* vs =
           list_size (int_range 0 3)
             (map (fun i -> Value.Int (2000 + i)) (int_range 0 9))
         in
         return (Expr.In_list (Expr.Col "Year", vs)));
        map (fun c -> Expr.Is_null (Expr.Col c))
          (oneofl [ "Price"; "Model" ]);
        (let* p = oneofl [ "J%"; "%vic"; "%c%"; "_etta"; "zzz" ] in
         return (Expr.Like (Expr.Col "Model", p))) ]
  in
  let rec gen_pred depth =
    if depth = 0 then gen_leaf
    else
      oneof
        [ gen_leaf;
          (let* a = gen_pred (depth - 1) in
           let* b = gen_pred (depth - 1) in
           oneofl [ Expr.And (a, b); Expr.Or (a, b) ]);
          map (fun a -> Expr.Not a) (gen_pred (depth - 1)) ]
  in
  gen_pred 2

let gen_cars_rows n : Row.t array QCheck.Gen.t =
  let open QCheck.Gen in
  array_repeat n
    (let* id = int_range 1 999 in
     let* model =
       oneof
         [ map (fun s -> Value.String s)
             (oneofl [ "Jetta"; "Civic"; "Accord" ]);
           return Value.Null ]
     in
     let* price =
       oneof [ map (fun i -> Value.Int i) (int_range 8000 30000);
               return Value.Null ]
     in
     let* year = int_range 2000 2008 in
     let* mileage = int_range 0 150000 in
     let* cond = oneofl [ "Excellent"; "Good"; "Fair" ] in
     return
       (Row.of_list
          [ Value.Int id; model; price; Value.Int year;
            Value.Int mileage; Value.String cond ]))

(* Typed columns at their edges, which the cars generator never
   reaches: floats with NaN, [-0.] and the infinities, dates, ints at
   [min_int]/[max_int] (where a bound's [k - 1] or [k + 1] would wrap),
   compared with constants of the same edges, and bands on one column
   with every mix of strict and non-strict bounds, [lo > hi] among
   them. A case's columns carry a validity bitmap or not, and its
   input vector is the base's own or a sorted, non-ascending one. *)
let edge_schema =
  Schema.of_list
    [ ("I", Value.TInt); ("F", Value.TFloat); ("D", Value.TDate);
      ("row", Value.TInt) ]

let edge_ints = [ min_int; min_int + 1; -2; -1; 0; 1; 2; max_int - 1; max_int ]

let edge_floats =
  [ Float.nan; -0.; 0.; Float.infinity; Float.neg_infinity; 1.5; -1.5; 2.;
    Float.max_float; -.Float.max_float; 4.9e-324 ]

let edge_dates = [ -730; -1; 0; 1; 9_000; 9_001; 10_957 ]

let edge_value = function
  | "I" -> QCheck.Gen.map (fun i -> Value.Int i) (QCheck.Gen.oneofl edge_ints)
  | "F" ->
      QCheck.Gen.map (fun f -> Value.Float f) (QCheck.Gen.oneofl edge_floats)
  | _ -> QCheck.Gen.map (fun d -> Value.Date d) (QCheck.Gen.oneofl edge_dates)

let gen_edge_rows n ~nulls : Row.t array QCheck.Gen.t =
  let open QCheck.Gen in
  let cell c =
    if nulls then frequency [ (1, return Value.Null); (4, edge_value c) ]
    else edge_value c
  in
  let* cells =
    array_repeat n
      (let* i = cell "I" in
       let* f = cell "F" in
       let* d = cell "D" in
       return (i, f, d))
  in
  return (Array.mapi (fun k (i, f, d) -> [| i; f; d; Value.Int k |]) cells)

let gen_edge_pred : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let col = oneofl [ "I"; "F"; "D" ] in
  let const c =
    frequency
      ((6, edge_value c) :: (1, return Value.Null)
      ::
      (* across numeric types: an int constant against floats, a float
         one against ints *)
      (if c = "D" then []
       else
         [ (1, map (fun f -> Value.Float f) (oneofl edge_floats));
           (1, map (fun i -> Value.Int i) (oneofl edge_ints)) ]))
  in
  let cmp c =
    let* op = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    let* v = const c in
    oneofl
      [ Expr.Cmp (op, Expr.Col c, Expr.Const v);
        Expr.Cmp (op, Expr.Const v, Expr.Col c) ]
  in
  let band =
    let* c = col in
    let* lo = const c in
    let* hi = const c in
    let* lo_op = oneofl Expr.[ Gt; Ge ] in
    let* hi_op = oneofl Expr.[ Lt; Le ] in
    oneofl
      [ Expr.And
          ( Expr.Cmp (lo_op, Expr.Col c, Expr.Const lo),
            Expr.Cmp (hi_op, Expr.Col c, Expr.Const hi) );
        Expr.And
          ( Expr.Cmp (hi_op, Expr.Col c, Expr.Const hi),
            Expr.Cmp (lo_op, Expr.Col c, Expr.Const lo) );
        Expr.Between (Expr.Col c, Expr.Const lo, Expr.Const hi) ]
  in
  let leaf =
    oneof
      [ col >>= cmp;
        band;
        (let* c = col in
         let* vs = list_size (int_range 0 3) (const c) in
         return (Expr.In_list (Expr.Col c, vs)));
        map (fun c -> Expr.Is_null (Expr.Col c)) col ]
  in
  oneof
    [ leaf;
      (let* a = leaf in
       let* b = leaf in
       oneofl [ Expr.And (a, b); Expr.Or (a, b); Expr.Not a ]) ]

let gen_edge_case =
  let open QCheck.Gen in
  let* n = int_range 0 60 in
  let* nulls = bool in
  let* rows = gen_edge_rows n ~nulls in
  let* pred = gen_edge_pred in
  let* order =
    oneofl
      [ []; [ ("row", `Desc) ]; [ ("F", `Asc); ("row", `Desc) ]; [ ("I", `Desc) ] ]
  in
  return (edge_schema, rows, pred, order)

let gen_cars_case =
  let open QCheck.Gen in
  let* n = int_range 0 80 in
  let* rows = gen_cars_rows n in
  let* pred = gen_cars_pred in
  return (cars_schema, rows, pred, [])

let print_case (schema, rows, pred, order) =
  Printf.sprintf "%s over %d rows of (%s), sorted by [%s]" (Expr.to_string pred)
    (Array.length rows)
    (String.concat ", " (Schema.names schema))
    (String.concat ", " (List.map fst order))

(* The selection over a base (or over its sorted batch) keeps exactly
   the rows the row interpreter keeps, in their order; it runs compiled
   whenever the predicate compiles against the image; and the vector
   it read is left as it was. *)
let compiled_vs_row =
  QCheck.Test.make ~count:1000
    ~name:"compiled selection vector = row interpreter"
    (QCheck.make ~print:print_case
       (QCheck.Gen.oneof [ gen_cars_case; gen_edge_case ]))
    (fun (schema, rows, pred, order) ->
      let base = Relation.of_array schema rows in
      let r = if order = [] then base else Rel_algebra.sort order base in
      let index = Schema.compile_index schema in
      let expected =
        Relation.rows r
        |> List.filter (fun row ->
               Expr_eval.eval_pred
                 ~lookup:(fun name -> Row.get row (index name))
                 pred)
      in
      let input = Relation.batch r in
      let before = Array.copy input.Relation.sel in
      let got, path = Rel_algebra.select_path pred r in
      (* the image is built by the scan itself; whenever the predicate
         compiles against it, the compiled path is the one that ran *)
      let compiles =
        let v = Relation.columnar_view base in
        Result.is_ok
          (Col_pred.compile
             ~column:(fun name ->
               Option.map
                 (fun (j, _) ->
                   { Col_pred.col = Columnar.column v j; through = None })
                 (Schema.find schema name))
             pred)
      in
      (path = `Columnar) = compiles
      && input.Relation.sel = before
      && (List.equal Row.equal expected (Relation.rows got)
         || QCheck.Test.fail_reportf "got %d rows, want %d"
              (Relation.cardinality got) (List.length expected)))

(* ---------- observability ---------- *)

module Obs = Sheet_obs.Obs

let test_columnar_metrics () =
  let before = Obs.Metrics.value_of Obs.k_col_columns in
  let r = Sample_cars.scaled ~rows:1_000 ~seed:5 in
  ignore (Relation.columnar_view r);
  let after = Obs.Metrics.value_of Obs.k_col_columns in
  Alcotest.(check int) "6 columns materialized" 6 (after - before);
  Alcotest.(check bool)
    "dict entries counted" true
    (Obs.Metrics.value_of Obs.k_col_dict_entries > 0);
  let in0 = Obs.Metrics.value_of Obs.k_col_sel_rows_in in
  let out0 = Obs.Metrics.value_of Obs.k_col_sel_rows_out in
  let pred = Expr.(Cmp (Lt, Col "Price", Const (Value.Int 15000))) in
  let sel = Rel_algebra.select pred r in
  let in1 = Obs.Metrics.value_of Obs.k_col_sel_rows_in in
  let out1 = Obs.Metrics.value_of Obs.k_col_sel_rows_out in
  Alcotest.(check int) "sel rows in" 1_000 (in1 - in0);
  Alcotest.(check int)
    "sel rows out" (Relation.cardinality sel) (out1 - out0)

(* Scans run in one pass and feed no [par.*] series: the two names
   stay for readers that still ask for them, unregistered, reading
   0 after a scan *)
let test_par_metrics () =
  let r = Sample_cars.scaled ~rows:40_000 ~seed:5 in
  ignore
    (Rel_algebra.select Expr.(Cmp (Lt, Col "Price", Const (Value.Int 15000))) r);
  let names = List.map fst (Obs.Metrics.snapshot ()) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " unregistered") false (List.mem k names);
      Alcotest.(check int) (k ^ " reads 0") 0 (Obs.Metrics.value_of k))
    [ Obs.k_par_scans; Obs.k_par_morsels ]

(* ---------- memoization ---------- *)

(* Which path a query's nodes take is a function of the query and the
   data, not of what ran before: the same plan over a fresh base
   leaves the same profile on its first and second run, at 500 rows
   and at 6, and its selection and formula compile on the first. *)
let test_same_profile_every_run () =
  let parse = Expr_parse.parse_string_exn in
  let plan base =
    Plan.Sort
      ( [ ("Model", `Asc); ("Price", `Desc) ],
        Plan.Extend_aggregate
          ( { Plan.agg_name = "avg_m"; agg_ty = Value.TFloat; fn = Expr.Avg;
              arg = Some (Expr.Col "Mileage"); basis = [ "Model" ] },
            Plan.Extend_formula
              ( { Plan.name = "twice"; ty = Value.TInt; expr = parse "Price * 2" },
                Plan.Filter (parse "Price < 15000", Plan.Scan base) ) ) )
  in
  let uid = ref 2_000_000 in
  let profile base =
    incr uid;
    ignore (Plan.execute ~uid:!uid (plan base));
    match Obs.Profile.find ~uid:!uid with
    | None -> Alcotest.fail "no profile recorded"
    | Some p ->
        ( List.map
            (fun n -> (n.Obs.Profile.n_kind, n.Obs.Profile.n_path))
            p.Obs.Profile.p_nodes,
          p.Obs.Profile.p_compiled,
          p.Obs.Profile.p_fallbacks )
  in
  let shape =
    Alcotest.(
      triple (list (pair string string)) (list string)
        (list (pair string string)))
  in
  List.iter
    (fun rows ->
      let base = Sample_cars.scaled ~rows ~seed:9 in
      let ((nodes, compiled, fallbacks) as first) = profile base in
      Alcotest.check shape
        (Printf.sprintf "%d rows: second run, same profile" rows)
        first (profile base);
      Alcotest.(check (list string))
        (Printf.sprintf "%d rows: the selection compiled" rows)
        [ "Price < 15000" ] compiled;
      Alcotest.(check int) (Printf.sprintf "%d rows: no fallback" rows) 0
        (List.length fallbacks);
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "%d rows: node paths" rows)
        [ ("filter", "columnar"); ("extend", "columnar");
          ("extend-agg", "columnar"); ("sort", "batch") ]
        nodes)
    [ 500; 6 ]

let test_rows_memoized () =
  let r = Sample_cars.scaled ~rows:100 ~seed:1 in
  Alcotest.(check bool)
    "rows physically equal across calls" true
    (Relation.rows r == Relation.rows r);
  let v1 = Relation.columnar_view r in
  let v2 = Relation.columnar_view r in
  Alcotest.(check bool)
    "columnar view built once" true (v1 == v2)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "sheet_columnar"
    [ ( "codec",
        [ q image_cells_exact; q ragged_no_image ] );
      ( "columns",
        [ Alcotest.test_case "specialization" `Quick test_specialization;
          Alcotest.test_case "mixed column fallback" `Quick
            test_mixed_column_fallback;
          Alcotest.test_case "ragged relation" `Quick
            test_ragged_relation_has_no_view ] );
      ("predicates", [ q compiled_vs_row ]);
      ( "observability",
        [ Alcotest.test_case "columnar metrics" `Quick test_columnar_metrics;
          Alcotest.test_case "par metrics" `Quick test_par_metrics ] );
      ( "memoization",
        [ Alcotest.test_case "same profile every run" `Quick
            test_same_profile_every_run;
          Alcotest.test_case "rows memoized" `Quick test_rows_memoized ] ) ]
