(* bench_diff — the consumer of BENCH_sheetmusiq.json (ISSUE 4).

   Usage:
     dune exec tools/bench_diff.exe -- [--json] <baseline.json> <candidate.json>

   Reads two bench baselines (schema sheetmusiq-bench/v1 or /v2 —
   v1 has only ns_per_run means, v2 adds exact sample percentiles),
   prints a per-benchmark delta table, and exits non-zero when any
   guarded entry — a name starting with "op/", "table" (the paper's
   operator-scaling and table-regeneration workloads, including the
   1M-row "table/*-1m" scans), "cache/" (the semantic-cache win),
   "col/" (the Sheetcol columnar substrate), "obs/" (the Sheetscope
   record path and profile collection), "serve/" (the Sheetserve load
   replay), "render/" (a page's text) or "wire/" (the protocol codec
   on a page's answer) — regressed by more than 25 % on
   ns_per_run. This is the required check for every perf-claiming PR:
   regenerate a fresh baseline, diff against the committed one, and
   only commit the new file if the gate is green.

   With [--json] the same delta table is emitted machine-readably
   (schema "sheetmusiq-bench-diff/v1"): one entry per benchmark with
   its status — ok / regression / faster / slower-unguarded / added /
   removed — plus explicit regression/added/removed name lists, so CI
   and future PRs consume the verdict without scraping text. Exit
   codes are identical in both modes.

   Exit codes: 0 ok, 1 regression, 2 usage / unreadable input. *)

module J = Sheet_obs.Obs_json

let threshold_pct = 25.

(* the regression-guarded benchmark families; also emitted in the
   --json report so consumers know what the gate covered *)
let guarded_prefixes =
  [ "op/"; "table"; "cache/"; "col/"; "obs/"; "serve/"; "render/"; "wire/" ]

let guarded name =
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.exists (fun prefix -> starts_with prefix name) guarded_prefixes

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> contents
  | exception Sys_error msg -> die "bench_diff: %s" msg

type entry = { ns : float; p50 : float option; p99 : float option }

let number = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

(* Both schema versions land in the same shape; v1 entries simply have
   no percentile fields. *)
let load path =
  let json =
    match J.parse (read_file path) with
    | Ok j -> j
    | Error msg -> die "bench_diff: %s: %s" path msg
  in
  (match J.member "schema" json with
  | Some (J.String ("sheetmusiq-bench/v1" | "sheetmusiq-bench/v2")) -> ()
  | Some (J.String other) ->
      die "bench_diff: %s: unsupported schema %S" path other
  | _ -> die "bench_diff: %s: missing \"schema\" field" path);
  match J.member "results" json with
  | Some (J.Obj entries) ->
      List.filter_map
        (fun (name, v) ->
          match number (J.member "ns_per_run" v) with
          | Some ns ->
              Some
                ( name,
                  { ns;
                    p50 = number (J.member "p50_ns" v);
                    p99 = number (J.member "p99_ns" v) } )
          | None -> None)
        entries
  | _ -> die "bench_diff: %s: missing \"results\" object" path

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let pct_delta ~old ~new_ =
  if old <= 0. then 0. else (new_ -. old) /. old *. 100.

(* the per-benchmark verdict, shared by the text and JSON renderers *)
type row = {
  r_name : string;
  r_baseline : entry option;
  r_candidate : entry option;
  r_status : string;  (* ok | regression | faster | slower-unguarded
                         | added | removed *)
  r_delta_pct : float option;
  r_p99_delta_pct : float option;
}

let classify name baseline candidate =
  match (baseline, candidate) with
  | Some b, Some c ->
      let delta = pct_delta ~old:b.ns ~new_:c.ns in
      let status =
        if guarded name && delta > threshold_pct then "regression"
        else if delta > threshold_pct then "slower-unguarded"
        else if delta < -.threshold_pct then "faster"
        else "ok"
      in
      { r_name = name;
        r_baseline = baseline;
        r_candidate = candidate;
        r_status = status;
        r_delta_pct = Some delta;
        r_p99_delta_pct =
          (match (b.p99, c.p99) with
          | Some bp, Some cp -> Some (pct_delta ~old:bp ~new_:cp)
          | _ -> None) }
  | Some _, None ->
      { r_name = name;
        r_baseline = baseline;
        r_candidate = None;
        r_status = "removed";
        r_delta_pct = None;
        r_p99_delta_pct = None }
  | None, Some _ ->
      { r_name = name;
        r_baseline = None;
        r_candidate = candidate;
        r_status = "added";
        r_delta_pct = None;
        r_p99_delta_pct = None }
  | None, None ->
      { r_name = name;
        r_baseline = None;
        r_candidate = None;
        r_status = "ok";
        r_delta_pct = None;
        r_p99_delta_pct = None }

let names_with status rows =
  List.filter_map
    (fun r -> if r.r_status = status then Some r.r_name else None)
    rows

let print_text rows =
  Printf.printf "%-40s %12s %12s %9s %8s  %s\n" "benchmark" "baseline"
    "candidate" "delta" "p99" "";
  List.iter
    (fun r ->
      let ns = function
        | Some e -> pretty_ns e.ns
        | None -> "-"
      in
      match r.r_delta_pct with
      | Some delta ->
          let p99 =
            match r.r_p99_delta_pct with
            | Some d -> Printf.sprintf "%+7.1f%%" d
            | None -> "-"
          in
          let flag =
            match r.r_status with
            | "regression" -> "REGRESSION"
            | "slower-unguarded" -> "slower (unguarded)"
            | "faster" -> "faster"
            | _ -> ""
          in
          Printf.printf "%-40s %12s %12s %+8.1f%% %8s  %s\n" r.r_name
            (ns r.r_baseline) (ns r.r_candidate) delta p99 flag
      | None ->
          Printf.printf "%-40s %12s %12s %9s %8s  %s\n" r.r_name
            (ns r.r_baseline) (ns r.r_candidate) "-" "-" r.r_status)
    rows;
  match names_with "regression" rows with
  | [] ->
      Printf.printf "\nok: no guarded benchmark regressed by more than %.0f%%\n"
        threshold_pct
  | offenders ->
      Printf.printf "\nFAIL: %d benchmark(s) regressed by more than %.0f%%:\n"
        (List.length offenders) threshold_pct;
      List.iter (fun n -> Printf.printf "  - %s\n" n) offenders

let print_json ~baseline_path ~candidate_path rows =
  let opt_float = function
    | Some f -> J.Float f
    | None -> J.Null
  in
  let json =
    J.Obj
      [ ("schema", J.String "sheetmusiq-bench-diff/v1");
        ("baseline", J.String baseline_path);
        ("candidate", J.String candidate_path);
        ("threshold_pct", J.Float threshold_pct);
        ("guarded_prefixes",
         J.List (List.map (fun p -> J.String p) guarded_prefixes));
        ("ok", J.Bool (names_with "regression" rows = []));
        ("entries",
         J.List
           (List.map
              (fun r ->
                J.Obj
                  (List.concat
                     [ [ ("name", J.String r.r_name);
                         ("status", J.String r.r_status);
                         ("guarded", J.Bool (guarded r.r_name)) ];
                       (match r.r_baseline with
                       | Some e ->
                           [ ("baseline_ns", J.Float e.ns);
                             ("baseline_p99_ns", opt_float e.p99) ]
                       | None -> []);
                       (match r.r_candidate with
                       | Some e ->
                           [ ("candidate_ns", J.Float e.ns);
                             ("candidate_p99_ns", opt_float e.p99) ]
                       | None -> []);
                       [ ("delta_pct", opt_float r.r_delta_pct);
                         ("p99_delta_pct", opt_float r.r_p99_delta_pct) ] ]))
              rows));
        ("regressions",
         J.List (List.map (fun n -> J.String n) (names_with "regression" rows)));
        ("added", J.List (List.map (fun n -> J.String n) (names_with "added" rows)));
        ("removed",
         J.List (List.map (fun n -> J.String n) (names_with "removed" rows))) ]
  in
  print_endline (J.to_string ~pretty:true json)

let () =
  let json_mode, baseline_path, candidate_path =
    match Sys.argv with
    | [| _; a; b |] -> (false, a, b)
    | [| _; "--json"; a; b |] -> (true, a, b)
    | _ -> die "usage: bench_diff [--json] <baseline.json> <candidate.json>"
  in
  let baseline = load baseline_path in
  let candidate = load candidate_path in
  let names =
    List.sort_uniq compare
      (List.map fst baseline @ List.map fst candidate)
  in
  let rows =
    List.map
      (fun name ->
        classify name (List.assoc_opt name baseline)
          (List.assoc_opt name candidate))
      names
  in
  if json_mode then print_json ~baseline_path ~candidate_path rows
  else print_text rows;
  if names_with "regression" rows = [] then exit 0 else exit 1
