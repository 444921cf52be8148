(* Sheetdoctor gate: replay every bundled TPC-H task with profile
   collection on and fail the build when the profiler itself lies —
   a profile whose row counts disagree with the materializer, an
   EXPLAIN ANALYZE that is not the rendered profile record of its
   run, path attributions inconsistent with the columnar
   selection counters, unbalanced profile regions, a profile JSON
   export that does not parse to one entry per record, or a doctor
   pass that raises.
   A final micro-benchmark asserts that collection itself (sink off,
   profiles on vs off) costs at most 5 % plus 1 ms over a batch of 20
   full materializations, and bounds the bytes it allocates per
   materialization. Run via
   [dune build @doctor], folded into [dune build @gates]. *)

open Sheet_core
module Obs = Sheet_obs.Obs
module Obs_json = Sheet_obs.Obs_json
module Profile = Sheet_obs.Obs.Profile

let failures = ref 0

let check label ok detail =
  if not ok then begin
    Printf.printf "FAIL %s: %s\n" label detail;
    incr failures
  end

let task_labels (task : Sheet_tpch.Tpch_tasks.t) =
  Obs.Labels.v [ ("task", string_of_int task.id) ]

let fresh_catalog () =
  Sheet_tpch.Tpch_views.install
    (Sheet_tpch.Tpch_gen.generate { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 })

let reset_all task =
  Obs.Profile.clear ();
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  Materialize.reset_cache ();
  Profile.clear ();
  Obs.set_ambient_labels (task_labels task)

let run_task catalog (task : Sheet_tpch.Tpch_tasks.t) =
  let label what = Printf.sprintf "task %2d %s" task.id what in
  reset_all task;
  match Sheet_sql.Catalog.find catalog task.base with
  | None -> check (label "base") false ("no base relation " ^ task.base)
  | Some base -> (
      let session = Session.create ~name:task.base base in
      match Script.run_silent session task.script with
      | Error msg -> check (label "script") false msg
      | Ok session ->
          let sheet = Session.current session in
          let uid = sheet.Spreadsheet.uid in
          let expected = Materialize.full sheet in
          let rows = Sheet_rel.Relation.cardinality expected in
          (* the replay itself profiled: the materialize-kind record
             for the final sheet agrees with the relation it built *)
          (match Profile.find ~uid with
          | None ->
              check (label "recorded") false
                (Printf.sprintf "no profile for sheet #%d" uid)
          | Some r ->
              check (label "rows")
                (r.Profile.p_rows_out = rows)
                (Printf.sprintf "profile says %d rows, materializer %d"
                   r.Profile.p_rows_out rows);
              check (label "session label")
                (r.Profile.p_session
                = Obs.Labels.to_string (task_labels task))
                (Printf.sprintf "profile stamped %S" r.Profile.p_session));
          (* EXPLAIN ANALYZE: the text is the plan-kind record its run
             pushed, rendered *)
          let _rel, text = Plan.explain_analyze ~uid (Plan.of_sheet sheet) in
          (match Profile.last () with
          | None -> check (label "plan recorded") false "no profile pushed"
          | Some r ->
              check (label "plan kind")
                (r.Profile.p_kind = "plan" && r.Profile.p_uid = uid)
                (Printf.sprintf "last record is %s #%d" r.Profile.p_kind
                   r.Profile.p_uid);
              check (label "plan rows")
                (r.Profile.p_rows_out = rows)
                (Printf.sprintf "profile %d, materializer %d"
                   r.Profile.p_rows_out rows);
              check (label "explain analyze")
                (text = Profile.render_record r)
                "EXPLAIN ANALYZE text is not the rendered profile record");
          (* region discipline and attribution consistency over every
             materialization record in the ring *)
          let materializations =
            List.filter (fun r -> not (Profile.is_event r)) (Profile.records ())
          in
          check (label "regions") (Profile.open_regions () = 0)
            (Printf.sprintf "%d profile region(s) left open"
               (Profile.open_regions ()));
          List.iter
            (fun (r : Profile.t) ->
              let where = Printf.sprintf "#%d/%s" r.p_uid r.p_kind in
              check (label ("sel monotone " ^ where))
                (0 <= r.p_sel_rows_out && r.p_sel_rows_out <= r.p_sel_rows_in)
                (Printf.sprintf "sel %d -> %d" r.p_sel_rows_in
                   r.p_sel_rows_out);
              check (label ("sel attributed " ^ where))
                (r.p_sel_rows_in = 0 || r.p_compiled <> [])
                (Printf.sprintf
                   "%d rows went through selection vectors but no \
                    predicate was noted compiled"
                   r.p_sel_rows_in);
              check (label ("totals " ^ where))
                (r.p_total_ns >= 0 && r.p_alloc_bytes >= 0.)
                "negative time or allocation delta")
            materializations;
          (* the global columnar counters agree in spirit: if any
             region saw selection-vector rows, the registry did too *)
          let v = Obs.Metrics.value_of in
          check (label "columnar counters")
            (List.for_all
               (fun (r : Profile.t) ->
                 r.Profile.p_sel_rows_in <= v Obs.k_col_sel_rows_in)
               materializations)
            "a region's selection delta exceeds the global counter";
          (* the ring's JSON parses, one entry per record *)
          (match
             Obs_json.parse (Obs_json.to_string (Profile.to_json ()))
           with
          | Error msg -> check (label "json") false msg
          | Ok parsed ->
              check (label "json")
                (Obs_json.member "profiles" parsed
                = Some
                    (Obs_json.List
                       (List.map Profile.record_to_json (Profile.records ()))))
                "profile JSON is not one entry per record");
          (* the doctor reads all of it without raising *)
          (match Sheet_analysis.Doctor.run () with
          | _diags -> ignore (Sheet_analysis.Doctor.render ())
          | exception e ->
              check (label "doctor") false (Printexc.to_string e)))

(* ---- overhead: collection on vs off, sink off, <= 5 % + 1 ms
   over a batch of [reps] materializations ---- *)

let reps = 20

(* 20,896 B per materialization of the workload below, measured the
   same way on the code this bound was introduced against (identical
   over five runs), plus 5 %. *)
let alloc_limit_bytes = 21_940.

let overhead_check () =
  Obs.set_sink Obs.Off;
  let catalog = fresh_catalog () in
  let base = Sheet_sql.Catalog.find_exn catalog "lineitem" in
  let sheet =
    match
      Script.run_silent
        (Session.create ~name:"lineitem" base)
        (String.concat "\n"
           [ "select l_quantity > 25";
             "formula gross = l_extendedprice * (1 - l_discount)";
             "select gross > 1000";
             "order l_shipdate desc" ])
    with
    | Ok session -> Session.current session
    | Error msg -> failwith ("overhead workload: " ^ msg)
  in
  let batch () =
    let t0 = Obs.now_ns () in
    for _ = 1 to reps do
      ignore (Materialize.full sheet)
    done;
    Obs.now_ns () - t0
  in
  ignore (batch ());
  (* warm-up *)
  (* Off and on batches alternate, and so does which of a pair runs
     first, so a phase of host-speed drift lands on both sides; each
     side keeps its fastest batch. *)
  let off = ref infinity and on = ref infinity in
  for i = 1 to 9 do
    List.iter
      (fun enabled ->
        Profile.set_enabled enabled;
        let dt = float_of_int (batch ()) in
        let best = if enabled then on else off in
        best := Float.min !best dt)
      (if i mod 2 = 1 then [ false; true ] else [ true; false ])
  done;
  (* The deterministic companion of the timing bound: bytes that
     collection allocates per materialization, on minus off. A minor
     collection before each reading settles the heap counters, so the
     figure repeats exactly from run to run. *)
  let alloc_per_full enabled =
    Profile.set_enabled enabled;
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to reps do
      ignore (Materialize.full sheet)
    done;
    Gc.minor ();
    (Gc.allocated_bytes () -. a0) /. float_of_int reps
  in
  let alloc_off = alloc_per_full false in
  let alloc = alloc_per_full true -. alloc_off in
  Profile.set_enabled true;
  Profile.clear ();
  let pct = 100. *. ((!on /. !off) -. 1.) in
  check "overhead"
    (!on <= (!off *. 1.05) +. 1e6)
    (Printf.sprintf
       "profile collection costs %.1f%% over %d materializations \
        (limit: 5%% + 1 ms over the %d)"
       pct reps reps);
  check "overhead alloc"
    (alloc <= alloc_limit_bytes)
    (Printf.sprintf
       "profile collection allocates %.0f B per materialization (limit \
        %.0f B)"
       alloc alloc_limit_bytes);
  (pct, alloc)

let () =
  Obs.set_sink Obs.Memory;
  let tasks = Sheet_tpch.Tpch_tasks.all @ Sheet_tpch.Tpch_tasks.extensions in
  let catalog = fresh_catalog () in
  List.iter (run_task catalog) tasks;
  (* collection is cheap enough to stay always-on *)
  let overhead, alloc = overhead_check () in
  Obs.set_ambient_labels Obs.Labels.empty;
  Obs.set_sink Obs.Off;
  if !failures > 0 then begin
    Printf.eprintf "doctor gate: %d failure(s)\n" !failures;
    exit 1
  end
  else
    Printf.printf
      "doctor gate: %d task(s) profiled clean; collection overhead \
       %+.1f%% (limit: 5%% + 1 ms over %d materializations), %.0f B per \
       materialization (limit %.0f B)\n"
      (List.length tasks) overhead reps alloc alloc_limit_bytes
