(* Exit-code and --json contract of tools/bench_diff.exe.

   The gate's whole value is its exit code — CI branches on it — so
   each verdict class gets an end-to-end run of the real executable
   over synthetic baselines: clean (0), guarded regression (1),
   unguarded slowdown (0), added / removed entries (0, but listed in
   the JSON report), unreadable input (2). The JSON report must parse
   with the bundled parser and carry the guarded-prefix list. *)

module J = Sheet_obs.Obs_json

let exe = Filename.concat (Filename.concat ".." "tools") "bench_diff.exe"

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let tmp name contents =
  let path = Filename.temp_file ("bench_diff_" ^ name) ".json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents);
  path

let baseline_of entries =
  J.to_string
    (J.Obj
       [ ("schema", J.String "sheetmusiq-bench/v1");
         ( "results",
           J.Obj
             (List.map
                (fun (name, ns) ->
                  (name, J.Obj [ ("ns_per_run", J.Float ns) ]))
                entries) ) ])

let run ?(json = false) a b =
  let out = Filename.temp_file "bench_diff_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s %s %s > %s 2>&1" exe
      (if json then "--json" else "")
      (Filename.quote a) (Filename.quote b) (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let flat = [ ("op/select", 100.); ("misc/x", 100.); ("obs/record", 50.) ]

let clean () =
  let a = tmp "clean" (baseline_of flat) in
  let code, text = run a a in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports ok" true (contains ~affix:"ok:" text)

let regression () =
  let a = tmp "base" (baseline_of flat) in
  let b =
    tmp "worse"
      (baseline_of
         [ ("op/select", 200.); ("misc/x", 100.); ("obs/record", 50.) ])
  in
  let code, text = run a b in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "names the offender" true
    (contains ~affix:"op/select" text)

let unguarded_slowdown () =
  let a = tmp "base" (baseline_of flat) in
  let b =
    tmp "slower"
      (baseline_of
         [ ("op/select", 100.); ("misc/x", 300.); ("obs/record", 50.) ])
  in
  let code, _text = run a b in
  Alcotest.(check int) "exit 0 — misc/* is unguarded" 0 code

let added_removed () =
  let a = tmp "base" (baseline_of flat) in
  let b =
    tmp "moved"
      (baseline_of
         [ ("op/select", 100.); ("misc/x", 100.); ("obs/profile", 80.) ])
  in
  let code, text = run ~json:true a b in
  Alcotest.(check int) "exit 0 — added/removed are not failures" 0 code;
  match J.parse text with
  | Error msg -> Alcotest.failf "report does not parse: %s" msg
  | Ok report ->
      let names field =
        match J.member field report with
        | Some (J.List l) ->
            List.filter_map (function J.String s -> Some s | _ -> None) l
        | _ -> []
      in
      Alcotest.(check (list string))
        "added" [ "obs/profile" ] (names "added");
      Alcotest.(check (list string))
        "removed" [ "obs/record" ] (names "removed");
      Alcotest.(check (list string))
        "guarded prefixes"
        [ "op/"; "table"; "cache/"; "col/"; "obs/"; "serve/"; "render/";
          "wire/" ]
        (names "guarded_prefixes");
      Alcotest.(check bool) "ok flag" true
        (J.member "ok" report = Some (J.Bool true))

let json_regression_flag () =
  let a = tmp "base" (baseline_of [ ("cache/hit", 100.) ]) in
  let b = tmp "worse" (baseline_of [ ("cache/hit", 1000.) ]) in
  let code, text = run ~json:true a b in
  Alcotest.(check int) "exit 1 in json mode too" 1 code;
  match J.parse text with
  | Error msg -> Alcotest.failf "report does not parse: %s" msg
  | Ok report ->
      Alcotest.(check bool) "ok flag false" true
        (J.member "ok" report = Some (J.Bool false))

let unreadable () =
  let a = tmp "garbage" "this is not json" in
  let code, _ = run a a in
  Alcotest.(check int) "exit 2" 2 code;
  let code, _ =
    run a (Filename.concat (Filename.get_temp_dir_name ()) "missing.json")
  in
  Alcotest.(check int) "missing file also exit 2" 2 code

let () =
  Alcotest.run "bench_diff"
    [ ( "exit codes",
        [ Alcotest.test_case "clean" `Quick clean;
          Alcotest.test_case "guarded regression" `Quick regression;
          Alcotest.test_case "unguarded slowdown" `Quick unguarded_slowdown;
          Alcotest.test_case "added and removed" `Quick added_removed;
          Alcotest.test_case "json regression flag" `Quick
            json_regression_flag;
          Alcotest.test_case "unreadable input" `Quick unreadable ] ) ]
