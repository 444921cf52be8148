(* Unit tests for the benchmark's pure pieces: the percentile rule, the
   seed -> stream determinism, that every generated explore stream is
   served without a refusal, and the metric catalogue. *)

module B = Perfbench_core.Bench_core
module J = Sheet_obs.Obs_json
open Sheet_serve

let test_percentile () =
  let a = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let check phi want =
    Alcotest.(check (float 0.)) (Printf.sprintf "p%g of 1..10" (phi *. 100.))
      want (B.percentile a phi)
  in
  (* rank ceil(phi * n): the 5th, 9th, 10th smallest *)
  check 0.5 5.;
  check 0.9 9.;
  check 0.99 10.;
  check 1.0 10.;
  check 0.01 1.;
  Alcotest.(check (float 0.)) "p50 of 3 is the 2nd" 2. (B.percentile [| 1.; 2.; 3. |] 0.5);
  Alcotest.(check (float 0.)) "unsorted input is sorted first" 2.
    (B.pct [ 3.; 1.; 2. ] 0.5);
  Alcotest.(check (float 0.)) "no samples read 0" 0. (B.pct [] 0.5)

let test_slices () =
  let samples = [ (0.5, 1.); (1.5, 2.); (1.7, 3.); (2.9, 4.); (3.0, 5.) ] in
  let groups = B.slices ~k:3 ~t0:0. ~t1:3. samples in
  Alcotest.(check (list (list (float 0.)))) "equal time slices; the end falls in the last"
    [ [ 1. ]; [ 3.; 2. ]; [ 5.; 4. ] ]
    groups;
  Alcotest.(check (float 0.)) "the calm figure is the lower quartile" 2.
    (B.calm [ 4.; 1.; 3.; 2.; 5.; 6.; 7.; 8. ]);
  Alcotest.(check (float 0.)) "empty slices are skipped" 1.
    (B.calm_over [ []; [ 1. ]; [] ] List.hd)

let test_scaling () =
  Alcotest.(check (float 1e-9)) "a kernel at its nominal time leaves a time alone" 7.
    (B.scale ~cal:B.nominal_cal_ms 7.);
  Alcotest.(check (float 1e-9)) "a host half as fast halves the time" 5.
    (B.scale ~cal:(2. *. B.nominal_cal_ms) 10.);
  let nominal = B.nominal_cal_ms in
  let cals = [ (0.2, nominal); (1.2, 2. *. nominal); (1.4, 2. *. nominal); (1.6, 4. *. nominal) ] in
  let samples = [ (0.5, 1.); (1.5, 8.); (2.5, 3.) ] in
  Alcotest.(check (list (list (float 1e-9))))
    "each slice by the median of its calibrations, or of all of them"
    [ [ 1. ]; [ 4. ]; [ 1.5 ] ]
    (B.scaled_slices ~k:3 ~t0:0. ~t1:3. ~cals samples)

let test_determinism () =
  let explore seed session = B.explore_session ~seed ~session in
  Alcotest.(check (list string)) "explore: same seed, same stream"
    (explore 7 3) (explore 7 3);
  Alcotest.(check bool) "explore: another seed, another stream" false
    (explore 7 3 = explore 8 3);
  Alcotest.(check bool) "explore: another session, another stream" false
    (explore 7 3 = explore 7 4);
  Alcotest.(check int) "explore: every session makes the same number of states"
    B.explore_states_per_session
    (1 + List.length (List.filter (( <> ) "undo") (B.explore_gestures ~seed:9 ~session:5)));
  let ids seed pass =
    List.map (fun t -> t.Sheet_tpch.Tpch_tasks.id) (B.theorem1_pass ~seed ~pass)
  in
  Alcotest.(check (list int)) "theorem1: same seed, same order" (ids 7 2) (ids 7 2);
  Alcotest.(check (list int)) "theorem1: every task once"
    (List.init 12 (fun i -> i + 1))
    (List.sort compare (ids 7 2))

let test_explore_served () =
  let catalog =
    Sheet_tpch.Tpch_views.install
      (Sheet_tpch.Tpch_gen.generate { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 })
  in
  let server = Server.create (Server.config (Sheet_sql.Catalog.find catalog)) in
  List.iter
    (fun seed ->
      for session = 0 to 9 do
        let conn = Server.connect server in
        let ask req =
          match Server.handle_request server conn req with
          | Protocol.Refused { reason; _ } ->
              Alcotest.failf "seed %d session %d: %s refused: %s" seed session
                (Protocol.encode_request req) reason
          | _ -> ()
        in
        ask (Protocol.Hello (Printf.sprintf "t%d-%d" seed session));
        ask (Protocol.Open B.explore_base);
        List.iter (fun l -> ask (Protocol.Line l)) (B.explore_session ~seed ~session);
        ask Protocol.Quit
      done)
    [ 1; 2 ]

let benchmark_json () =
  match J.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let names_of field j =
  match J.member field j with
  | Some (J.List items) ->
      List.filter_map
        (fun item ->
          match J.member "name" item with Some (J.String s) -> Some s | _ -> None)
        items
  | _ -> Alcotest.failf "BENCHMARK.json: no %s list" field

let test_names () =
  let all = B.workloads @ List.map fst B.end_to_end @ List.map fst B.per_layer in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (B.valid_name n))
    all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "a name may not start with a dot" false (B.valid_name ".x");
  Alcotest.(check bool) "a name may not hold a space" false (B.valid_name "a b");
  let j = benchmark_json () in
  Alcotest.(check (list string)) "workloads match BENCHMARK.json" B.workloads
    (names_of "workloads" j);
  Alcotest.(check (list string)) "end_to_end matches BENCHMARK.json"
    (List.map fst B.end_to_end) (names_of "end_to_end" j);
  Alcotest.(check (list string)) "per_layer matches BENCHMARK.json"
    (List.map fst B.per_layer) (names_of "per_layer" j)

let () =
  Alcotest.run "perfbench"
    [
      ( "bench_core",
        [
          Alcotest.test_case "percentile rank" `Quick test_percentile;
          Alcotest.test_case "time slices" `Quick test_slices;
          Alcotest.test_case "host-speed scaling" `Quick test_scaling;
          Alcotest.test_case "seed determinism" `Quick test_determinism;
          Alcotest.test_case "explore streams served" `Quick test_explore_served;
          Alcotest.test_case "metric names" `Quick test_names;
        ] );
    ]
