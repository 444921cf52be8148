(* Benchmark harness: regenerates every table and figure of the paper
   (printing the same rows/series the paper reports) and times each
   regeneration plus the core-operator scaling and the ablations
   called out in DESIGN.md, with Bechamel.

   Run with:  dune exec bench/main.exe            (everything)
              dune exec bench/main.exe -- quick   (skip microbenchmarks)
              dune exec bench/main.exe -- --json BENCH_sheetmusiq.json
              dune exec bench/main.exe -- --trace trace.json
              dune exec bench/main.exe -- --only table/sort
                 (only the rows whose name starts with the prefix; skips
                  the artifacts, so takes neither quick nor --trace, and
                  writes JSON only with --json)

   Microbenchmark runs also write a machine-readable baseline
   (benchmark name -> ns/run mean, exact p50/p90/p99/max sample
   percentiles, and rows/s where the workload has a known input
   cardinality — schema sheetmusiq-bench/v2) so future PRs have a
   perf trajectory to compare against with tools/bench_diff.exe;
   --trace records a Chrome trace_event file of the artifact
   regenerations through Sheetscope (lib/obs). *)

open Sheet_rel
open Sheet_core
open Bechamel
open Bechamel.Toolkit

(* ------------------------------------------------------------------ *)
(* Paper-artifact regenerations (the workloads under test)            *)
(* ------------------------------------------------------------------ *)

let run_script_exn session script =
  match Script.run_silent session script with
  | Ok s -> s
  | Error msg -> failwith ("script failed: " ^ msg)

let cars_session () = Session.create ~name:"cars" Sample_cars.relation

let table1_workload () =
  Render.to_string (Session.current (cars_session ()))

let table2_workload () =
  let s =
    run_script_exn (cars_session ())
      "group Model desc\ngroup Year asc\norder Price asc\ngroup Year, \
       Model, Condition asc"
  in
  Render.to_string (Session.current s)

let table3_workload () =
  let s =
    run_script_exn (cars_session ())
      "group Model desc\ngroup Year asc\norder Price asc\nagg avg Price \
       level 3\nhide Condition"
  in
  Render.to_string (Session.current s)

let table45_workload () =
  let s =
    run_script_exn (cars_session ())
      "select Year = 2005\nselect Model = 'Jetta'\nselect Mileage < \
       80000\ngroup Condition asc\norder Price asc"
  in
  let id =
    (List.hd (Session.selections_on s "Year")).Query_state.id
  in
  let s = run_script_exn s (Printf.sprintf "replace %d Year = 2006" id) in
  Render.to_string (Session.current s)

let study_report () =
  Sheet_study.Report.of_observations (Sheet_study.Simulator.run ())

let tpch_catalog =
  lazy
    (Sheet_tpch.Tpch_views.install
       (Sheet_tpch.Tpch_gen.generate
          { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 }))

let theorem1_workload () =
  let catalog = Lazy.force tpch_catalog in
  List.iter
    (fun task ->
      match Sheet_tpch.Tpch_tasks.verify catalog task with
      | Ok () -> ()
      | Error msg -> failwith msg)
    Sheet_tpch.Tpch_tasks.all

(* ------------------------------------------------------------------ *)
(* Printing the paper's rows/series                                   *)
(* ------------------------------------------------------------------ *)

let print_artifacts () =
  print_endline "============================================================";
  print_endline " Paper artifacts (same rows/series as the paper reports)";
  print_endline "============================================================";
  Printf.printf "\n--- Table I ---\n%s" (table1_workload ());
  Printf.printf "\n--- Table II ---\n%s" (table2_workload ());
  Printf.printf "\n--- Table III ---\n%s" (table3_workload ());
  Printf.printf "\n--- Tables IV/V (after modification) ---\n%s"
    (table45_workload ());
  let report = study_report () in
  Printf.printf "\n--- Figures 3-5, Table VI, significance ---\n\n%s"
    (Sheet_study.Report.render report);
  Printf.printf "\n--- Theorem 1 (all 10 TPC-H tasks, sheet == SQL) ---\n";
  (try
     theorem1_workload ();
     print_endline "all 10 tasks verified"
   with Failure msg -> print_endline ("FAILED: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Operator-scaling and ablation workloads                            *)
(* ------------------------------------------------------------------ *)

let scaled_sheet n =
  Spreadsheet.of_relation ~name:"cars_n"
    (Sample_cars.scaled ~rows:n ~seed:7)

let apply_exn sheet op =
  match Engine.apply sheet op with
  | Ok s -> s
  | Error e -> failwith (Errors.to_string e)

let pred = Expr_parse.parse_string_exn "Price < 20000 AND Year >= 2003"

let selection_workload sheet () =
  let s = apply_exn sheet (Op.Select pred) in
  ignore (Materialize.full s)

let grouping_workload sheet () =
  let s =
    apply_exn sheet (Op.Group { basis = [ "Model" ]; dir = Grouping.Asc })
  in
  let s =
    apply_exn s (Op.Group { basis = [ "Year" ]; dir = Grouping.Asc })
  in
  ignore (Materialize.full s)

let aggregation_workload sheet () =
  let s =
    apply_exn sheet (Op.Group { basis = [ "Model" ]; dir = Grouping.Asc })
  in
  let s =
    apply_exn s
      (Op.Aggregate
         { fn = Expr.Avg; col = Some "Price"; level = 2; as_name = None })
  in
  ignore (Materialize.full s)

let dedup_workload sheet () =
  let s = apply_exn sheet (Op.Project "ID") in
  let s = apply_exn s Op.Dedup in
  ignore (Materialize.full s)

(* Ablation 1: precedence-stratified replay with k separate selections
   versus one merged conjunction (the cost of modifiability). *)
let replay_ablation sheet ~k ~merged () =
  let preds =
    List.init k (fun i ->
        Expr_parse.parse_string_exn
          (Printf.sprintf "Mileage < %d" (150000 - (i * 1000))))
  in
  let s =
    if merged then
      apply_exn sheet
        (Op.Select
           (List.fold_left
              (fun acc p -> Expr.And (acc, p))
              (List.hd preds) (List.tl preds)))
    else List.fold_left (fun s p -> apply_exn s (Op.Select p)) sheet preds
  in
  ignore (Materialize.full s)

(* Ablation 2: computed-column recomputation cost as columns pile up. *)
let computed_ablation sheet ~k () =
  let s =
    apply_exn sheet (Op.Group { basis = [ "Model" ]; dir = Grouping.Asc })
  in
  let s =
    List.fold_left
      (fun s i ->
        apply_exn s
          (Op.Aggregate
             { fn = Expr.Avg; col = Some "Price"; level = 2;
               as_name = Some (Printf.sprintf "avg_%d" i) }))
      s
      (List.init k Fun.id)
  in
  ignore (Materialize.full s)

(* Ablation 3: incremental materialization (Session seeds the cache
   from the parent sheet) vs full stratified replay at every step. *)
let pipeline_ops =
  [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
    Op.Select (Expr_parse.parse_string_exn "Year >= 2003");
    Op.Aggregate
      { fn = Expr.Avg; col = Some "Price"; level = 2; as_name = Some "ap" };
    Op.Select (Expr_parse.parse_string_exn "Price <= ap");
    Op.Formula
      { name = Some "d";
        expr = Expr_parse.parse_string_exn "ap - Price" };
    Op.Order { attr = "d"; dir = Grouping.Desc; level = 2 };
    Op.Project "Condition" ]

let incremental_pipeline rel () =
  let session = Session.create ~name:"cars_n" rel in
  ignore
    (List.fold_left
       (fun session op ->
         match Session.apply session op with
         | Ok session ->
             (* redisplay after each step, as the interface would *)
             ignore (Session.materialized session);
             session
         | Error e -> failwith (Errors.to_string e))
       session pipeline_ops)

let full_replay_pipeline rel () =
  ignore
    (List.fold_left
       (fun sheet op ->
         match Engine.apply sheet op with
         | Ok sheet ->
             ignore (Materialize.full sheet);
             sheet
         | Error e -> failwith (Errors.to_string e))
       (Spreadsheet.of_relation ~name:"cars_n" rel)
       pipeline_ops)

(* Ablation 5: the compiled plan of a selective pipeline, executed. *)
let plan_sheet =
  lazy
    (let rel = Sample_cars.scaled ~rows:4000 ~seed:7 in
     List.fold_left apply_exn
       (Spreadsheet.of_relation ~name:"cars_n" rel)
       [ Op.Formula
           { name = Some "f1";
             expr = Expr_parse.parse_string_exn "Price * 2" };
         Op.Formula
           { name = Some "f2";
             expr = Expr_parse.parse_string_exn "Mileage / 1000" };
         Op.Select (Expr_parse.parse_string_exn "Year >= 2006");
         Op.Select (Expr_parse.parse_string_exn "Price < 18000");
         Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
         Op.Project "Condition" ])

let plan_workload () =
  ignore (Plan.execute (Plan.of_sheet (Lazy.force plan_sheet)))

(* ------------------------------------------------------------------ *)
(* Relation-core scaling benchmarks (table/<op>-<n>)                  *)
(* ------------------------------------------------------------------ *)

(* Raw Rel_algebra operators at 1k/10k/100k rows, timed directly on
   prebuilt relations so only the operator is measured. Named under
   the "table" prefix so tools/bench_diff.exe guards them (alongside
   the paper-table regenerations) against >25% regressions. *)

let scaling_sizes = [ 1_000; 10_000; 100_000 ]

let scaling_rels =
  List.map (fun n -> (n, Sample_cars.scaled ~rows:n ~seed:11)) scaling_sizes

let scaling_rel n = List.assoc n scaling_rels

let scaling_pred = Expr_parse.parse_string_exn "Price < 20000 AND Year >= 2003"

(* A one-row-per-model dimension table keeps the equijoin output at
   exactly n rows whatever the input size. *)
let model_dim =
  Relation.make
    (Schema.of_list [ ("M", Value.TString); ("Origin", Value.TString) ])
    (List.map
       (fun m -> Row.of_list [ Value.String m; Value.String "de" ])
       [ "Jetta"; "Civic"; "Accord"; "Camry"; "Focus"; "Mazda3" ])

let scaling_workloads =
  List.concat_map
    (fun n ->
      let rel = scaling_rel n in
      let label op = Printf.sprintf "table/%s-%dk" op (n / 1000) in
      [ (label "select", Some n,
         fun () -> ignore (Rel_algebra.select scaling_pred rel));
        (label "project", Some n,
         fun () ->
           ignore (Rel_algebra.project [ "Model"; "Price"; "Year" ] rel));
        (label "sort", Some n,
         fun () ->
           ignore
             (Rel_algebra.sort [ ("Price", `Asc); ("Mileage", `Desc) ] rel));
        (label "equijoin", Some n,
         fun () ->
           ignore (Rel_algebra.equijoin ~on:("Model", "M") rel model_dim));
        (label "distinct", Some n,
         fun () ->
           ignore
             (Rel_algebra.distinct
                (Rel_algebra.project [ "Model"; "Year"; "Condition" ] rel)))
      ])
    scaling_sizes

(* Sorting on a float formula column (a typed [Floats] computed
   column): the float-key ranking under the sort. The extended relation
   is built once, so only the sort is timed. At 5k rows, the size of
   an explore view, the float key follows a string key, as an
   explore ordering within a grouping does. *)
let net_rel rel =
  lazy
    (Rel_algebra.extend
       { Schema.name = "Net"; ty = Value.TFloat }
       (Expr_parse.parse_string_exn "Price * 0.93 + Mileage * 0.001")
       (Lazy.force rel))

let sort_float_workloads =
  List.map
    (fun n ->
      let rel = net_rel (lazy (scaling_rel n)) in
      ( Printf.sprintf "table/sort-float-%dk" (n / 1000),
        Some n,
        fun () -> ignore (Rel_algebra.sort [ ("Net", `Asc) ] (Lazy.force rel)) ))
    [ 10_000; 100_000 ]
  @
  let rel = net_rel (lazy (Sample_cars.scaled ~rows:5_000 ~seed:11)) in
  [ ( "table/sort-float-5k",
      Some 5_000,
      fun () ->
        ignore
          (Rel_algebra.sort [ ("Model", `Asc); ("Net", `Asc) ] (Lazy.force rel))
    ) ]

(* A computed column over a narrow selection, the shape of an explore
   session after its bands: a ~2 % band of a 30k-row relation, narrowed
   once, then a formula (extend) or a grouped sum (a two-node plan: the
   scan of the narrowed relation and its aggregate). Only those are
   timed; their cost follows the ~600 rows the band keeps. *)
let narrow_30k =
  lazy
    (Rel_algebra.select
       (Expr_parse.parse_string_exn "Price >= 15000 AND Price < 15300")
       (Sample_cars.scaled ~rows:30_000 ~seed:11))

let narrow_workloads =
  let formula = Expr_parse.parse_string_exn "Price * 0.93 + Mileage * 0.001" in
  let agg =
    lazy
      (Plan.Extend_aggregate
         ( { Plan.agg_name = "sum_price"; agg_ty = Value.TFloat;
             fn = Expr.Sum; arg = Some (Expr.Col "Price"); basis = [ "Model" ] },
           Plan.Scan (Lazy.force narrow_30k) ))
  in
  [ ( "table/extend-narrow-30k",
      Some 30_000,
      fun () ->
        ignore
          (Rel_algebra.extend
             { Schema.name = "Net"; ty = Value.TFloat }
             formula (Lazy.force narrow_30k)) );
    ( "table/agg-narrow-30k",
      Some 30_000,
      fun () -> ignore (Plan.execute (Lazy.force agg)) ) ]

(* Sheetcol: the columnar substrate itself (col/) and the 1M-row
   scans (table/*-1m). The 1M relation is lazy so the paper-artifact
   runs never pay for it; "quick" mode skips these with the other
   microbenchmarks. col/build times the row→column codec from
   scratch; table/select-* time the compiled selection-vector path
   over the memoized columnar image the first scan builds, which is
   what the engine's steady state looks like. *)

let rel_1m = lazy (Sample_cars.scaled ~rows:1_000_000 ~seed:11)

(* A band on one column, the shape of an explore selection. *)
let band_pred = Expr_parse.parse_string_exn "Price >= 12000 AND Price < 20000"

let columnar_workloads =
  [ ("table/select-1m", Some 1_000_000,
     fun () ->
       ignore (Rel_algebra.select scaling_pred (Lazy.force rel_1m)));
    ("table/band-1m", Some 1_000_000,
     fun () -> ignore (Rel_algebra.select band_pred (Lazy.force rel_1m)));
    ("table/project-1m", Some 1_000_000,
     fun () ->
       ignore
         (Rel_algebra.project [ "Model"; "Price"; "Year" ]
            (Lazy.force rel_1m)));
    ("col/build-100k", Some 100_000,
     fun () ->
       ignore
         (Columnar.of_rows ~width:(Schema.arity Sample_cars.schema)
            (Relation.to_array (scaling_rel 100_000))))
  ]

(* Sheetscope record path, sinks off: 100k counter increments and
   100k histogram records on the calling thread, the way the engine
   and the plan nodes write them. Guarded under the "obs/" prefix so
   tools/bench_diff.exe fails the build if a record ever grows a lock
   or an allocation. *)

let obs_record_workload =
  let h = Sheet_obs.Obs.Histogram.histogram "bench.obs_record" in
  let c = Sheet_obs.Obs.Metrics.counter "bench.obs_record" in
  fun () ->
    for i = 1 to 100_000 do
      Sheet_obs.Obs.Metrics.incr c;
      Sheet_obs.Obs.Histogram.record h (i land 1023)
    done

(* Sheetdoctor profile collection on the materialization hot path:
   one full replay of a 4-selection + computed-column sheet with the
   per-query profile ring recording (its default state). The gate
   (tools/doctor_gate.exe) bounds collection overhead relative to a
   disabled run; this entry guards the absolute cost under the "obs/"
   prefix so a profile hook that starts allocating per row fails
   bench_diff. *)

let profile_sheet_4k =
  lazy
    (let s = scaled_sheet 4000 in
     let s = apply_exn s (Op.Select (Expr_parse.parse_string_exn "Price < 15000")) in
     let s =
       apply_exn s
         (Op.Formula
            { name = Some "Markup";
              expr = Expr_parse.parse_string_exn "Price * 0.1" })
     in
     let s = apply_exn s (Op.Select (Expr_parse.parse_string_exn "Year >= 2001")) in
     apply_exn s (Op.Order { attr = "Price"; dir = Grouping.Desc; level = 1 }))

let profile_overhead_workload () =
  ignore (Materialize.full (Lazy.force profile_sheet_4k));
  Sheet_obs.Obs.Profile.clear ()

(* Semantic materialization cache: answering a tightened selection
   from a warm subsuming state (re-filter + proof) vs replaying the
   100k base cold. Named under the "cache/" prefix so
   tools/bench_diff.exe guards the win. Each iteration resets the
   cache so neither thunk accumulates entries across runs. *)

let cache_parent_100k =
  lazy
    (apply_exn
       (Spreadsheet.of_relation ~name:"cars-cache" (scaling_rel 100_000))
       (Op.Select (Expr_parse.parse_string_exn "Price < 12000")))

let cache_parent_rel = lazy (Materialize.full (Lazy.force cache_parent_100k))

let cache_child =
  lazy
    (apply_exn
       (Lazy.force cache_parent_100k)
       (Op.Select (Expr_parse.parse_string_exn "Year >= 2003")))

let cache_subsumed_workload () =
  Materialize.reset_cache ();
  Materialize.seed_cache
    (Lazy.force cache_parent_100k)
    (Lazy.force cache_parent_rel);
  ignore (Materialize.full_cached (Lazy.force cache_child))

let cache_cold_workload () =
  Materialize.reset_cache ();
  ignore (Materialize.full_cached (Lazy.force cache_child))

(* The redisplay after a gesture (render/, wire/): the text of a page
   and the answer that carries it, over the 30k-row explore view
   (TPC-H sf 0.005, v_lineitem_orders). Each run reads a cached
   materialization, so only the page, its text and the codec are
   timed. render/print-grouped-30k prints the whole view grouped on a
   near-unique key: a group break on most rows. *)

let explore_view =
  lazy
    (let catalog =
       Sheet_tpch.Tpch_views.install
         (Sheet_tpch.Tpch_gen.generate
            { Sheet_tpch.Tpch_gen.sf = 0.005; seed = 42 })
     in
     Option.get (Sheet_sql.Catalog.find catalog "v_lineitem_orders"))

let view_sheet script =
  lazy
    (Session.current
       (run_script_exn
          (Session.create ~name:"v_lineitem_orders" (Lazy.force explore_view))
          script))

let page_sheet =
  view_sheet
    "select l_quantity >= 10 AND l_quantity <= 34\n\
     select o_totalprice >= 50000 AND o_totalprice < 200000\n\
     formula revenue = l_extendedprice * (1 - l_discount)\n\
     order l_extendedprice desc\n\
     group l_shipmode asc\n\
     agg avg l_extendedprice as avg_price"

let grouped_30k_sheet = view_sheet "group l_orderkey asc"

let page_answer =
  lazy
    (let sheet = Lazy.force page_sheet in
     Sheet_serve.Protocol.Applied
       { uid = sheet.Spreadsheet.uid;
         output = Some (Render.to_string ~max_rows:20 sheet) })

let render_workloads =
  [ ("render/page-20", Some 20,
     fun () -> ignore (Render.to_string ~max_rows:20 (Lazy.force page_sheet)));
    ("render/print-grouped-30k", Some 30_000,
     fun () -> ignore (Render.to_string (Lazy.force grouped_30k_sheet)));
    ("wire/page-answer", Some 20,
     fun () ->
       let open Sheet_serve.Protocol in
       ignore (decode_response (encode_response (Lazy.force page_answer)))) ]

(* Ablation 4: group-tree presentation vs flat-sort emulation
   (Sec. II-A: recursive grouping can be emulated by one ordering). *)
let grouping_vs_sort sheet ~tree () =
  if tree then begin
    let s =
      apply_exn sheet
        (Op.Group { basis = [ "Model"; "Year" ]; dir = Grouping.Asc })
    in
    Materialize.reset_cache ();
    ignore (Render.page s)
  end
  else
    ignore
      (Rel_algebra.sort
         [ ("Model", `Asc); ("Year", `Asc) ]
         (Sample_cars.scaled ~rows:2000 ~seed:7))

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                    *)
(* ------------------------------------------------------------------ *)

(* Each entry: benchmark name, input cardinality when the workload has
   one (for rows/s in the JSON baseline), thunk. *)
let workloads =
  let sheet_1k = scaled_sheet 1000 in
  let sheet_4k = scaled_sheet 4000 in
  let sheet_10k = scaled_sheet 10000 in
  [ (* one bench per paper table/figure *)
    ("table1/base-spreadsheet", None, fun () -> ignore (table1_workload ()));
    ("table2/grouping", None, fun () -> ignore (table2_workload ()));
    ("table3/aggregation", None, fun () -> ignore (table3_workload ()));
    ("table45/query-modification", None,
     fun () -> ignore (table45_workload ()));
    ("fig3-5+table6/study-simulation", None,
     fun () -> ignore (study_report ()));
    ("theorem1/tpch-task-equivalence", None, theorem1_workload);
    (* operator scaling *)
    ("op/selection-1k", Some 1000, selection_workload sheet_1k);
    ("op/selection-4k", Some 4000, selection_workload sheet_4k);
    ("op/selection-10k", Some 10000, selection_workload sheet_10k);
    ("op/grouping-1k", Some 1000, grouping_workload sheet_1k);
    ("op/grouping-4k", Some 4000, grouping_workload sheet_4k);
    ("op/aggregation-1k", Some 1000, aggregation_workload sheet_1k);
    ("op/aggregation-4k", Some 4000, aggregation_workload sheet_4k);
    ("op/aggregation-10k", Some 10000, aggregation_workload sheet_10k);
    ("op/dedup-1k", Some 1000, dedup_workload sheet_1k);
    ("op/dedup-10k", Some 10000, dedup_workload sheet_10k);
    (* relation-core scaling (guarded under the "table" prefix) *)
  ]
  @ scaling_workloads
  @ sort_float_workloads
  @ narrow_workloads
  @ columnar_workloads
  @ [ (* semantic cache (guarded under the "cache/" prefix) *)
    ("cache/cold-100k", Some 100_000, cache_cold_workload);
    ("cache/subsumed-hit-100k", Some 100_000, cache_subsumed_workload);
    ("obs/record", Some 100_000, obs_record_workload);
    ("obs/profile-overhead", Some 4000, profile_overhead_workload)
  ]
  @ render_workloads
  @ [ (* ablations *)
    ("ablation/replay-8-selections", Some 1000,
     replay_ablation sheet_1k ~k:8 ~merged:false);
    ("ablation/replay-merged-conjunction", Some 1000,
     replay_ablation sheet_1k ~k:8 ~merged:true);
    ("ablation/computed-1-column", Some 1000,
     computed_ablation sheet_1k ~k:1);
    ("ablation/computed-8-columns", Some 1000,
     computed_ablation sheet_1k ~k:8);
    ("ablation/incremental-pipeline", Some 1000,
     incremental_pipeline (Sample_cars.scaled ~rows:1000 ~seed:7));
    ("ablation/full-replay-pipeline", Some 1000,
     full_replay_pipeline (Sample_cars.scaled ~rows:1000 ~seed:7));
    ("ablation/plan-raw", Some 4000, plan_workload);
    ("ablation/group-tree", Some 1000, grouping_vs_sort sheet_1k ~tree:true);
    ("ablation/flat-sort-emulation", Some 2000,
     grouping_vs_sort sheet_1k ~tree:false)
  ]

(* Tail-latency sampling: a direct timing loop alongside Bechamel's
   OLS mean, because interactive latency is a percentile problem
   (ISSUE 4 / DESIGN.md §8). Exact sample percentiles — rank
   ceil(phi*n) of the sorted run times — not histogram estimates. *)
let sample_percentiles f =
  ignore (f ());
  (* warmup *)
  let budget_ns = 250_000_000 in
  let t_start = Sheet_obs.Obs.now_ns () in
  let samples = ref [] in
  let n = ref 0 in
  while
    !n < 5
    || (!n < 40 && Sheet_obs.Obs.now_ns () - t_start < budget_ns)
  do
    let t0 = Sheet_obs.Obs.now_ns () in
    ignore (f ());
    samples := (Sheet_obs.Obs.now_ns () - t0) :: !samples;
    incr n
  done;
  let arr = Array.of_list !samples in
  Array.sort compare arr;
  let len = Array.length arr in
  let pct phi =
    let rank = max 1 (int_of_float (ceil (phi *. float_of_int len))) in
    arr.(min (len - 1) (rank - 1))
  in
  (pct 0.5, pct 0.9, pct 0.99, arr.(len - 1), len)

let json_of_results results =
  let open Sheet_obs in
  Obs_json.Obj
    [ ("schema", Obs_json.String "sheetmusiq-bench/v2");
      ("unit", Obs_json.String "ns/run");
      ("results",
       Obs_json.Obj
         (List.map
            (fun (name, rows, ns, (p50, p90, p99, mx, samples)) ->
              ( name,
                Obs_json.Obj
                  (("ns_per_run", Obs_json.Float ns)
                   :: ("p50_ns", Obs_json.Int p50)
                   :: ("p90_ns", Obs_json.Int p90)
                   :: ("p99_ns", Obs_json.Int p99)
                   :: ("max_ns", Obs_json.Int mx)
                   :: ("samples", Obs_json.Int samples)
                  ::
                  (match rows with
                  | Some r when ns > 0. ->
                      [ ("rows",  Obs_json.Int r);
                        ("rows_per_s",
                         Obs_json.Float (float_of_int r /. (ns /. 1e9))) ]
                  | _ -> []))))
            results)) ]

let write_json ~path results =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Sheet_obs.Obs_json.to_string ~pretty:true (json_of_results results));
      output_char oc '\n');
  Printf.printf "\nbaseline written to %s\n" path

let run_benchmarks ~workloads ~json_path =
  print_endline "\n============================================================";
  print_endline " Microbenchmarks (Bechamel, monotonic clock)";
  print_endline "============================================================\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  Printf.printf "%-40s %14s %14s %12s %12s\n" "benchmark" "time/run"
    "rows/s" "p50" "p99";
  let pretty_ns ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
    else Printf.sprintf "%8.0f ns" ns
  in
  let measure (name, _rows, f) =
    let test = Test.make ~name (Staged.stage f) in
    let raw = Benchmark.all cfg instances test in
    let analyzed = Analyze.all ols Instance.monotonic_clock raw in
    let estimate = ref nan in
    Hashtbl.iter
      (fun _ ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> estimate := x
        | _ -> ())
      analyzed;
    (!estimate, sample_percentiles f)
  in
  (* Best of three separated passes: on a shared single-core box a
     scheduler burst can outlast one entry's whole measurement
     window, inflating whichever statistic it touches; it would have
     to hit the same entry in all three passes — minutes apart — to
     survive the min. A real regression moves every pass. *)
  let passes = 3 in
  let best : (string, float * (int * int * int * int * int)) Hashtbl.t =
    Hashtbl.create 64
  in
  for pass = 1 to passes do
    Printf.printf "-- pass %d/%d --\n%!" pass passes;
    List.iter
      (fun ((name, _, _) as w) ->
        let ((est, _) as m) = measure w in
        (match Hashtbl.find_opt best name with
        | Some (e0, _) when (not (Float.is_nan e0)) && (Float.is_nan est || e0 <= est)
          ->
            ()
        | _ -> Hashtbl.replace best name m);
        Printf.printf "%-40s %14s\n%!" name (pretty_ns est))
      workloads
  done;
  print_newline ();
  let results =
    List.map
      (fun (name, rows, _f) ->
        let estimate, ((p50, _, p99, _, _) as pcts) =
          Hashtbl.find best name
        in
        let throughput =
          match rows with
          | Some r when (not (Float.is_nan estimate)) && estimate > 0. ->
              Printf.sprintf "%12.3e" (float_of_int r /. (estimate /. 1e9))
          | _ -> "-"
        in
        Printf.printf "%-40s %14s %14s %12s %12s\n%!" name
          (pretty_ns estimate) throughput
          (pretty_ns (float_of_int p50))
          (pretty_ns (float_of_int p99));
        (name, rows, estimate, pcts))
      workloads
  in
  Option.iter
    (fun path ->
      write_json ~path
        (List.filter (fun (_, _, ns, _) -> not (Float.is_nan ns)) results))
    json_path

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "quick" argv in
  let arg_value flag =
    let rec go = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  let trace_path = arg_value "--trace" in
  match arg_value "--only" with
  | Some _ when quick || Option.is_some trace_path ->
      prerr_endline "bench: --only runs no artifacts; drop quick and --trace";
      exit 2
  | Some prefix ->
      (* a subset never overwrites the committed baseline by default *)
      let workloads =
        List.filter
          (fun (name, _, _) -> String.starts_with ~prefix name)
          workloads
      in
      if List.is_empty workloads then begin
        prerr_endline ("bench: no benchmark name starts with " ^ prefix);
        exit 2
      end;
      run_benchmarks ~workloads ~json_path:(arg_value "--json")
  | None ->
      let json_path =
        Option.value (arg_value "--json") ~default:"BENCH_sheetmusiq.json"
      in
      (* a trace covers the whole run: room for every record *)
      if Option.is_some trace_path then begin
        Sheet_obs.Obs.Profile.set_capacity 1_000_000;
        Sheet_obs.Obs.set_sink Sheet_obs.Obs.Memory
      end;
      print_artifacts ();
      (match trace_path with
      | Some path ->
          Sheet_obs.Obs.save_chrome_trace ~path;
          Printf.printf "\ntrace written to %s (%d records, %d dropped)\n"
            path
            (Sheet_obs.Obs.Profile.length ())
            (Sheet_obs.Obs.Profile.dropped ())
      | None -> ());
      if not quick then run_benchmarks ~workloads ~json_path:(Some json_path)
