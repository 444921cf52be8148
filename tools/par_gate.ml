(* Parallel-determinism gate: replay every bundled TPC-H task script
   once on a single domain and once morsel-parallel on four, with the
   cutover threshold and morsel size forced low enough that the
   sf-0.001 relations genuinely split. Each config gets a FRESH
   catalog (columnar memoization would otherwise make the second run
   artificially warm) and per-task zeroed telemetry. Fail the build
   when any task diverges between the two runs:

   - rows of Materialize.full (the plan executor), in content *or
     order*;
   - rows of Session.materialized after the task script — the
     incremental chain, where every step derives from its parent's
     cached batch — in content or order, and against the visible
     columns of Materialize.full in the same run;
   - counter totals (Sheetscope v3 shards per domain and merges on
     read — totals must be exactly those of the single-writer run);
   - histogram sample counts (the duration-free slice; durations are
     wall time and legitimately differ);
   - the span multiset — every (name, kind, depth, rows_in, rows_out)
     recorded under the Memory sink, with workers recording morsel
     spans live. Only the ring order may differ (workers interleave);
     sorted, the two runs must be identical.

   The worker domains persist across scans, so the 4-domain replay
   runs twice in the process — the second on workers the first
   spawned — and once more at 2 domains, on a pool larger than the
   count asks for; each replay must match the 1-domain one the same
   way.

   Also fails when a parallel run left spans unbalanced or when no
   scan ever split into morsels (a silently sequential "parallel" run
   would make the comparison vacuous). Run via [dune build @par],
   part of [@gates]. *)

open Sheet_core
module Obs = Sheet_obs.Obs
module Relation = Sheet_rel.Relation
module Row = Sheet_rel.Row
module Par = Sheet_rel.Par

let failures = ref 0

let check label ok detail =
  if not ok then begin
    Printf.printf "FAIL %s: %s\n" label detail;
    incr failures
  end

let with_config ~domains f =
  Par.set_domain_count domains;
  Par.set_parallel_threshold 64;
  Par.set_morsel_rows 128;
  Fun.protect
    ~finally:(fun () ->
      Par.set_domain_count 1;
      Par.set_parallel_threshold Par.default_parallel_threshold;
      Par.set_morsel_rows Par.default_morsel_rows)
    f

(* everything a task run leaves behind, minus wall time *)
type observation = {
  o_rows : Row.t list;
  o_session : Row.t list;  (* Session.materialized after the script *)
  o_counters : (string * int) list;  (* nonzero counters, sorted *)
  o_hists : (string * int) list;  (* nonzero sample counts, sorted *)
  o_spans : (string * string * int * int * int) list;
      (* (name, kind, depth, rows_in, rows_out), sorted multiset *)
}

let nonzero = List.filter (fun (_, v) -> v <> 0)

let observe catalog (task : Sheet_tpch.Tpch_tasks.t) =
  Obs.clear_events ();
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  Materialize.reset_cache ();
  match Sheet_sql.Catalog.find catalog task.base with
  | None -> Error ("no base relation " ^ task.base)
  | Some base -> (
      let session = Session.create ~name:task.base base in
      match Script.run_silent session task.script with
      | Error msg -> Error msg
      | Ok session ->
          let sheet = Session.current session in
          let session_rows = Relation.rows (Session.materialized session) in
          let full = Materialize.full sheet in
          let rows = Relation.rows full in
          check
            (Printf.sprintf "task %2d session" task.id)
            (List.equal Row.equal session_rows
               (Relation.rows
                  (Sheet_rel.Rel_algebra.project
                     (Spreadsheet.visible_columns sheet) full)))
            "Session.materialized differs from Materialize.full's visible \
             columns";
          check
            (Printf.sprintf "task %2d balance" task.id)
            (Obs.open_spans () = 0 && Obs.nesting_ok ())
            (Printf.sprintf "%d unclosed span(s), nesting_ok %b"
               (Obs.open_spans ()) (Obs.nesting_ok ()));
          Ok
            { o_rows = rows;
              o_session = session_rows;
              o_counters = nonzero (Obs.Metrics.counters_snapshot ());
              o_hists = nonzero (Obs.Histogram.counts_snapshot ());
              o_spans =
                List.map
                  (fun (e : Obs.event) ->
                    (e.name, e.kind, e.depth, e.rows_in, e.rows_out))
                  (Obs.events ())
                |> List.sort compare })

(* one full pass over every task under a fixed domain count, against
   a fresh catalog *)
let collect ~domains tasks =
  let catalog =
    Sheet_tpch.Tpch_views.install
      (Sheet_tpch.Tpch_gen.generate
         { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 })
  in
  with_config ~domains (fun () ->
      List.map (fun task -> observe catalog task) tasks)

let pp_assoc l =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)

let diff_assoc a b =
  List.filter (fun kv -> not (List.mem kv b)) a
  @ List.filter (fun kv -> not (List.mem kv a)) b

let run_task ~run (task : Sheet_tpch.Tpch_tasks.t) seq par =
  let label what = Printf.sprintf "%s: task %2d %s" run task.id what in
  match (seq, par) with
  | Error msg, _ | _, Error msg -> check (label "script") false msg
  | Ok s, Ok p ->
      check (label "rows")
        (List.equal Row.equal s.o_rows p.o_rows)
        "row list diverges from the 1-domain replay";
      check (label "session rows")
        (List.equal Row.equal s.o_session p.o_session)
        "Session.materialized diverges from the 1-domain replay";
      check (label "counters")
        (s.o_counters = p.o_counters)
        (Printf.sprintf "sharded totals diverge: %s"
           (pp_assoc (diff_assoc s.o_counters p.o_counters)));
      check (label "histograms")
        (s.o_hists = p.o_hists)
        (Printf.sprintf "sample counts diverge: %s"
           (pp_assoc (diff_assoc s.o_hists p.o_hists)));
      check (label "spans")
        (s.o_spans = p.o_spans)
        (Printf.sprintf "span multiset diverges (%d vs %d events)"
           (List.length s.o_spans) (List.length p.o_spans))

let () =
  Obs.set_sink Obs.Memory;
  let tasks = Sheet_tpch.Tpch_tasks.all @ Sheet_tpch.Tpch_tasks.extensions in
  let seq = collect ~domains:1 tasks in
  let par = collect ~domains:4 tasks in
  let replays =
    [ ("4 domains", par);
      ("4 domains again", collect ~domains:4 tasks);
      ("2 domains", collect ~domains:2 tasks) ]
  in
  List.iter
    (fun (run, replay) ->
      List.iter2 (fun (t, s) p -> run_task ~run t s p)
        (List.combine tasks seq) replay)
    replays;
  (* the runs must have actually split scans into morsels — and since
     morselization is domain-count independent, both configs report
     the same counts *)
  let total key obs =
    List.fold_left
      (fun acc -> function
        | Ok o ->
            acc
            + Option.value (List.assoc_opt key o.o_counters) ~default:0
        | Error _ -> acc)
      0 obs
  in
  let morsels = total Obs.k_par_morsels par in
  check "par.morsels" (morsels > 0) "no morsel was ever scheduled";
  check "par.scans"
    (total Obs.k_par_scans par > 0)
    "no scan ever took the multi-morsel path";
  if !failures > 0 then begin
    Printf.eprintf "par gate: %d failure(s)\n" !failures;
    exit 1
  end
  else
    Printf.printf
      "par gate: %d task(s) bit-identical across 1 and 4 domains, 4 \
       again on reused workers, and 2 — rows, order (full replay and \
       incremental chain), counters, histogram counts, span multisets \
       (%d morsels)\n"
      (List.length tasks) morsels
