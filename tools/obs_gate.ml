(* Observability gate: run every bundled TPC-H task script under full
   tracing and fail the build when the instrumentation itself is
   broken: records in the ring that overlap without nesting, a
   dropped record, negative counters, a sheet
   result that disagrees with the task's SQL result (an oracle
   independent of the plan executor), an EXPLAIN ANALYZE that is not
   the profile record of its own run, task-stamped op records that do
   not add up to the engine's op count, cache outcomes, plan nodes, full replays or
   derivations that the profile ring does not account for,
   a JSON export that does not parse back, an incremental session
   whose rows or order differ from a full replay, or a pinned script's
   fallback derivation that the counters and the ring disagree on.
   Run via [dune build @obs], next to [@lint]. *)

open Sheet_core
module Obs = Sheet_obs.Obs

let failures = ref 0

let check label ok detail =
  if not ok then begin
    Printf.printf "FAIL %s: %s\n" label detail;
    incr failures
  end

let task_labels (task : Sheet_tpch.Tpch_tasks.t) =
  Obs.Labels.v [ ("task", string_of_int task.id) ]

let run_task catalog (task : Sheet_tpch.Tpch_tasks.t) =
  let label what = Printf.sprintf "task %2d %s" task.id what in
  (* deterministic per-task baseline: empty ring, zero metrics, cold
     materialization cache, this task's ambient label *)
  Obs.Profile.clear ();
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  Obs.Profile.clear ();
  Materialize.reset_cache ();
  Obs.set_ambient_labels (task_labels task);
  match Sheet_sql.Catalog.find catalog task.base with
  | None -> check (label "base") false ("no base relation " ^ task.base)
  | Some base -> (
      let session = Session.create ~name:task.base base in
      match Script.run_silent session task.script with
      | Error msg -> check (label "script") false msg
      | Ok session ->
          let sheet = Session.current session in
          let uid = sheet.Spreadsheet.uid in
          (* the sheet's rows agree with the task's SQL result *)
          (match Sheet_tpch.Tpch_tasks.verify catalog task with
          | Ok () -> ()
          | Error msg -> check (label "result") false msg);
          (* EXPLAIN ANALYZE renders the profile record its run wrote *)
          let rel, text = Plan.explain_analyze ~uid (Plan.of_sheet sheet) in
          (match Obs.Profile.find ~uid with
          | Some r ->
              check (label "explain analyze")
                (text = Obs.Profile.render_record r
                && r.Obs.Profile.p_rows_out
                   = Sheet_rel.Relation.cardinality rel)
                "EXPLAIN ANALYZE is not the profile record of its run"
          | None ->
              check (label "explain analyze") false
                (Printf.sprintf "no profile record for sheet #%d" uid));
          (* spans and records nest: overlapping intervals in the
             ring lie one inside the other *)
          check (label "nesting")
            (Obs.Profile.well_nested (Obs.Profile.records ()))
            "overlapping records do not nest";
          (* counters never go negative *)
          List.iter
            (fun (name, v) ->
              check (label ("metric " ^ name)) (v >= 0)
                (Printf.sprintf "negative value %d" v))
            (Obs.Metrics.snapshot ());
          (* every engine op recorded exactly one latency sample *)
          check (label "histogram")
            (Obs.Histogram.count (Obs.Histogram.histogram Obs.h_engine_apply)
            = Obs.Metrics.value_of Obs.k_engine_ops)
            (Printf.sprintf "engine.apply histogram has %d samples, %s = %d"
               (Obs.Histogram.count
                  (Obs.Histogram.histogram Obs.h_engine_apply))
               Obs.k_engine_ops
               (Obs.Metrics.value_of Obs.k_engine_ops));
          (* hit-kind accounting: every materialization request is
             exactly one of exact hit, subsumed hit, or miss, and each
             left one record in the profile ring saying which *)
          let v = Obs.Metrics.value_of in
          let ring = Obs.Profile.records () in
          (* ... and one op record stamped with this task per engine
             op: the per-session accounting lives on the tape *)
          let stamped_ops =
            List.length
              (List.filter
                 (fun r -> r.Obs.Profile.p_kind = "op")
                 (Obs.Profile.records
                    ~session:(Obs.Labels.to_string (task_labels task))
                    ()))
          in
          check (label "stamped ops")
            (stamped_ops = v Obs.k_engine_ops)
            (Printf.sprintf "%d op record(s) stamped %s, %s = %d"
               stamped_ops
               (Obs.Labels.to_string (task_labels task))
               Obs.k_engine_ops (v Obs.k_engine_ops));
          let noted outcome =
            List.length
              (List.filter (fun r -> r.Obs.Profile.p_cache = outcome) ring)
          in
          (* the ring was never truncated mid-task — a dropped record
             means the trace silently under-reports *)
          check (label "ring drops") (Obs.Profile.dropped () = 0)
            (Printf.sprintf "%d record(s) dropped from the profile ring"
               (Obs.Profile.dropped ()));
          check (label "cache accounting")
            (v Obs.k_cache_requests
             = v Obs.k_cache_hits
               + v Obs.k_cache_hits_subsumed
               + v Obs.k_cache_misses
            && v Obs.k_cache_hits = noted "exact"
            && v Obs.k_cache_hits_subsumed = noted "subsumed"
            && v Obs.k_cache_misses = noted "miss")
            (Printf.sprintf
               "requests %d, exact %d (ring %d), subsumed %d (ring %d), \
                miss %d (ring %d)"
               (v Obs.k_cache_requests) (v Obs.k_cache_hits) (noted "exact")
               (v Obs.k_cache_hits_subsumed) (noted "subsumed")
               (v Obs.k_cache_misses) (noted "miss"));
          (* the rest of what a materialization record says is counted
             off it too: its nodes, and its kind and strategy *)
          let materializations =
            List.filter (fun r -> not (Obs.Profile.is_event r)) ring
          in
          let records keep = List.length (List.filter keep materializations) in
          let nodes =
            List.fold_left
              (fun n r -> n + List.length r.Obs.Profile.p_nodes)
              0 materializations
          in
          check (label "node accounting")
            (v Obs.k_plan_nodes = nodes)
            (Printf.sprintf "%s %d, nodes over the ring's records %d"
               Obs.k_plan_nodes (v Obs.k_plan_nodes) nodes);
          let replays =
            records (fun r -> r.Obs.Profile.p_strategy = "full-replay")
          and incremental strategy =
            records (fun r ->
                r.Obs.Profile.p_kind = "incremental"
                && r.Obs.Profile.p_strategy = strategy)
          in
          check (label "strategy accounting")
            (v Obs.k_full_replays = replays
            && v Obs.k_incremental_derivations = incremental "incremental"
            && v Obs.k_incremental_fallbacks = incremental "full-replay")
            (Printf.sprintf
               "full replays %d (ring %d), derivations %d (ring %d), \
                fallbacks %d (ring %d)"
               (v Obs.k_full_replays) replays
               (v Obs.k_incremental_derivations) (incremental "incremental")
               (v Obs.k_incremental_fallbacks) (incremental "full-replay"));
          (* columnar selection accounting: a selection vector can
             only shrink, so survivors never exceed candidates *)
          check (label "columnar sel")
            (v Obs.k_col_sel_rows_out <= v Obs.k_col_sel_rows_in)
            (Printf.sprintf "%s = %d > %s = %d" Obs.k_col_sel_rows_out
               (v Obs.k_col_sel_rows_out) Obs.k_col_sel_rows_in
               (v Obs.k_col_sel_rows_in));
          (* and the cache's own view agrees with the registry *)
          let cs = Materialize.cache_stats () in
          check (label "cache stats")
            (cs.Materialize.requests
             = cs.Materialize.hits + cs.Materialize.subsumed_hits
               + cs.Materialize.misses
            && cs.Materialize.requests = v Obs.k_cache_requests)
            (Printf.sprintf
               "cache_stats requests %d, hits %d, subsumed %d, misses %d"
               cs.Materialize.requests cs.Materialize.hits
               cs.Materialize.subsumed_hits cs.Materialize.misses);
          (* the ring's JSON parses, one entry per record *)
          (match
             Sheet_obs.Obs_json.parse
               (Sheet_obs.Obs_json.to_string (Obs.Profile.to_json ()))
           with
          | Error msg -> check (label "ring json") false ("invalid JSON: " ^ msg)
          | Ok parsed -> (
              match Sheet_obs.Obs_json.member "profiles" parsed with
              | Some (Sheet_obs.Obs_json.List l) ->
                  check (label "ring json")
                    (List.length l = List.length ring)
                    (Printf.sprintf "%d JSON entries for %d records"
                       (List.length l) (List.length ring))
              | _ -> check (label "ring json") false "no profiles list"));
          (* the SLO report round-trips through the bundled JSON
             parser *)
          let slo = Sheet_obs.Obs_json.to_string (Obs.Slo.to_json ()) in
          (match Sheet_obs.Obs_json.parse slo with
          | Error msg -> check (label "slo") false ("invalid JSON: " ^ msg)
          | Ok parsed ->
              check (label "slo")
                (Sheet_obs.Obs_json.equal parsed (Obs.Slo.to_json ()))
                "SLO JSON does not round-trip");
          (* the Chrome trace of this task round-trips through the
             bundled JSON parser *)
          let trace = Obs.chrome_trace_string () in
          (match Sheet_obs.Obs_json.parse trace with
          | Error msg -> check (label "trace") false ("invalid JSON: " ^ msg)
          | Ok parsed ->
              check (label "trace")
                (Sheet_obs.Obs_json.equal parsed
                   (Sheet_obs.Obs_json.parse
                      (Sheet_obs.Obs_json.to_string ~pretty:true parsed)
                   |> Result.get_ok))
                "trace JSON does not round-trip");
          (* the incremental chain (each step derived from its parent's
             cached batch) agrees with a full replay, rows and order *)
          check (label "session")
            (List.equal Sheet_rel.Row.equal
               (Sheet_rel.Relation.rows (Session.materialized session))
               (Sheet_rel.Relation.rows
                  (Sheet_rel.Rel_algebra.project
                     (Spreadsheet.visible_columns sheet)
                     (Materialize.full sheet))))
            "Session.materialized differs from Materialize.full's visible \
             columns")

(* No bundled task script takes a fallback derivation, so every
   task's [strategy accounting] compares the fallbacks at 0 = 0. This
   pinned script over the sample cars relation takes one — a rename
   derives nothing from its cached parent — so the fallback count is
   also checked where it is not 0. *)
let fallback_accounting () =
  let label what = "cars script " ^ what in
  Obs.Profile.clear ();
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  Materialize.reset_cache ();
  let session = Session.create ~name:"cars" Sheet_rel.Sample_cars.relation in
  match
    Script.run_silent session
      "select Price > 5000\nformula p2 = Price * 2\nrename Year Built"
  with
  | Error msg -> check (label "script") false msg
  | Ok _ ->
      let fallbacks = Obs.Metrics.value_of Obs.k_incremental_fallbacks in
      let ring =
        List.length
          (List.filter
             (fun r ->
               r.Obs.Profile.p_kind = "incremental"
               && r.Obs.Profile.p_strategy = "full-replay")
             (Obs.Profile.records ()))
      in
      check (label "fallback accounting")
        (fallbacks >= 1 && fallbacks = ring)
        (Printf.sprintf "fallbacks %d (ring %d), want at least 1" fallbacks
           ring)

let () =
  Obs.set_sink Obs.Memory;
  let tasks = Sheet_tpch.Tpch_tasks.all @ Sheet_tpch.Tpch_tasks.extensions in
  let catalog =
    Sheet_tpch.Tpch_views.install
      (Sheet_tpch.Tpch_gen.generate
         { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 })
  in
  List.iter (run_task catalog) tasks;
  Obs.set_ambient_labels Obs.Labels.empty;
  fallback_accounting ();
  if !failures > 0 then begin
    Printf.eprintf "obs gate: %d failure(s)\n" !failures;
    exit 1
  end
  else
    Printf.printf "obs gate: %d task(s) traced clean\n" (List.length tasks)
