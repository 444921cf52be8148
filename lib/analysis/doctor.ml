module Obs = Sheet_obs.Obs
module Materialize = Sheet_core.Materialize

(* Row count below which a row-path fallback is noise rather than a
   finding: scanning a few hundred rows costs about as much as
   building the selection vector would. *)
let hot_rows = 512

(* A sort must eat more than half of a region at least this long
   before it is worth reporting; below that the measurement is mostly
   timer and allocator jitter. *)
let sort_min_ns = 1_000_000

let pct num den = 100. *. float_of_int num /. float_of_int (max 1 den)

let rows_touched (p : Obs.Profile.t) =
  List.fold_left
    (fun acc (n : Obs.Profile.node) -> max acc (max n.n_rows_in n.n_rows_out))
    (max 0 p.p_rows_out) p.p_nodes

let examine (p : Obs.Profile.t) =
  let where = Printf.sprintf "profile #%d (%s)" p.p_uid p.p_kind in
  let fallbacks =
    List.map
      (fun (pred, reason) ->
        let msg =
          Printf.sprintf
            "%s: predicate %s fell back to the row path (%s) over %d rows"
            where pred reason (rows_touched p)
        in
        if rows_touched p >= hot_rows then
          Diagnostic.warning ~code:"row-path-fallback" ~loc:Diagnostic.Query
            msg
        else
          Diagnostic.hint ~code:"row-path-fallback" ~loc:Diagnostic.Query msg)
      p.p_fallbacks
  in
  let sort =
    if p.p_total_ns >= sort_min_ns then
      List.filter_map
        (fun (n : Obs.Profile.node) ->
          if n.n_kind = "sort" && 2 * n.n_time_ns > p.p_total_ns then
            Some
              (Diagnostic.hint ~code:"sort-dominated" ~loc:Diagnostic.Ordering
                 (Printf.sprintf "%s: %s takes %.0f%% of the region"
                    where n.n_label
                    (pct n.n_time_ns p.p_total_ns)))
          else None)
        p.p_nodes
    else []
  in
  fallbacks @ sort

let cache_diagnostics () =
  let s = Materialize.cache_stats () in
  if s.Materialize.evictions > 0 && s.Materialize.subsumed_hits = 0 then
    [ Diagnostic.warning ~code:"cache-thrash" ~loc:Diagnostic.Query
        (Printf.sprintf
           "materialization cache evicted %d time%s without a single \
            subsumed hit — entries die before they can answer anything"
           s.Materialize.evictions
           (if s.Materialize.evictions = 1 then "" else "s")) ]
  else []

let slo_diagnostics () =
  List.filter_map
    (fun (v : Obs.Slo.verdict) ->
      if (not v.Obs.Slo.v_ok) && v.Obs.Slo.v_count > 0 then
        Some
          (Diagnostic.error ~code:"slo-burn" ~loc:Diagnostic.Query
             (Printf.sprintf "%s on %s: observed %.3f over limit %.3f"
                v.Obs.Slo.v_slo v.Obs.Slo.v_series v.Obs.Slo.v_observed
                v.Obs.Slo.v_limit))
      else None)
    (Obs.Slo.evaluate Obs.Slo.defaults)

let run () =
  (* the doctor observes, it must never bring the patient down *)
  let guard f = try f () with _ -> [] in
  Diagnostic.sort
    (guard (fun () ->
         List.concat_map examine
           (List.filter
              (fun r -> not (Obs.Profile.is_event r))
              (Obs.Profile.records ())))
    @ guard cache_diagnostics
    @ guard slo_diagnostics)

let render () = Diagnostic.render (run ())

let summary () =
  let ds = run () in
  let count sev = List.length (List.filter (fun d -> d.Diagnostic.severity = sev) ds) in
  let errors = count Diagnostic.Error
  and warnings = count Diagnostic.Warning
  and hints = count Diagnostic.Hint in
  if errors = 0 && warnings = 0 && hints = 0 then "doctor: ok"
  else
    let part n what = if n = 0 then [] else [ Printf.sprintf "%d %s" n what ] in
    "doctor: "
    ^ String.concat ", "
        (part errors "error" @ part warnings "warn" @ part hints "hint")
