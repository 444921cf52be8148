(* Sheetscope: the instrumentation must never change what a query
   returns, and what it records must be well formed.

   - with the sink off (the default), [Plan.explain_analyze] equals
     [Plan.execute] equals [Materialize.full] on random query states
     (the generator style of test_props.ml), and its text is the
     profile record the run wrote;
   - the same with the Memory sink on, plus: overlapping records in
     the ring (spans included) nest — also when materialization
     raises — and two threads' interleaved spans are caught;
   - the plan telemetry is read off the committed record: one
     [plan.nodes_executed] per profile node, a fixed script's cache,
     strategy and node accounting pinned exactly, and a record's
     selection totals its own columnar filters';
   - counters are monotone across work; gauges are not counters;
   - the Chrome trace export is drawn from the ring (a node's event
     inside its record's), parses back through Obs_json and
     round-trips;
   - the materialization cache's stats are deterministic around
     [reset_cache];
   - Obs_json itself: totality and exact round-trips on awkward
     values. *)

open Sheet_rel
open Sheet_core
module Obs = Sheet_obs.Obs
module J = Sheet_obs.Obs_json
module P = Obs.Profile

let ( let* ) = QCheck.Gen.( let* ) [@@warning "-32"]

(* ---------- random query states over the cars schema ---------- *)

let models = [ "Jetta"; "Civic"; "Accord" ]
let conditions = [ "Excellent"; "Good"; "Fair" ]

let gen_base_relation : Relation.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 0 30 in
  let* rows =
    list_repeat n
      (let* id = int_range 1 999 in
       let* model = oneofl models in
       let* price = int_range 8000 30000 in
       let* year = int_range 2000 2008 in
       let* mileage = int_range 0 150000 in
       let* condition = oneofl conditions in
       return
         (Row.of_list
            [ Value.Int id; Value.String model; Value.Int price;
              Value.Int year; Value.Int mileage; Value.String condition ]))
  in
  return (Relation.make Sample_cars.schema rows)

let numeric_cols = [ "Price"; "Year"; "Mileage" ]
let string_cols = [ "Model"; "Condition" ]

let gen_pred : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [ (let* col = oneofl numeric_cols in
       let* op = oneofl [ Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Eq ] in
       let* v = int_range 1990 120000 in
       return (Expr.Cmp (op, Expr.Col col, Expr.Const (Value.Int v))));
      (let* col = oneofl string_cols in
       let* v = oneofl (models @ conditions) in
       return (Expr.Cmp (Expr.Eq, Expr.Col col, Expr.Const (Value.String v))))
    ]

let gen_unary_op ~tag : Op.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [ (let* p = gen_pred in
       return (Op.Select p));
      (let* col = oneofl (numeric_cols @ string_cols) in
       return (Op.Project col));
      (let* fn = oneofl [ Expr.Sum; Expr.Avg; Expr.Min; Expr.Max ] in
       let* col = oneofl numeric_cols in
       return
         (Op.Aggregate
            { fn; col = Some col; level = 1;
              as_name = Some (Printf.sprintf "agg_%s" tag) }));
      (let* a = oneofl numeric_cols in
       let* b = oneofl numeric_cols in
       return
         (Op.Formula
            { name = Some (Printf.sprintf "fc_%s" tag);
              expr = Expr.Arith (Expr.Add, Expr.Col a, Expr.Col b) }));
      return Op.Dedup;
      (let* col = oneofl (string_cols @ [ "Year" ]) in
       let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
       return (Op.Group { basis = [ col ]; dir }));
      (let* col = oneofl (numeric_cols @ string_cols) in
       let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
       return (Op.Order { attr = col; dir; level = 1 })) ]

(* a random sheet: ops that fail a guard are simply skipped, so every
   generated value yields a usable query state *)
let gen_sheet : Spreadsheet.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* rel = gen_base_relation in
  let* ops =
    list_size (int_range 0 6)
      (let* i = int_range 0 999 in
       gen_unary_op ~tag:(string_of_int i))
  in
  return
    (List.fold_left
       (fun sheet op ->
         match Engine.apply sheet op with
         | Ok sheet -> sheet
         | Error _ -> sheet)
       (Spreadsheet.of_relation ~name:"t" rel)
       ops)

let sheet_arbitrary =
  QCheck.make
    ~print:(fun sheet -> Render.status_line sheet)
    gen_sheet

(* ---------- EXPLAIN ANALYZE = plain = materializer ---------- *)

let with_sink sink f =
  let old = Obs.sink () in
  Obs.set_sink sink;
  Fun.protect ~finally:(fun () -> Obs.set_sink old) f

let same_rows a b = List.equal Row.equal (Relation.rows a) (Relation.rows b)

(* EXPLAIN ANALYZE of the sheet's plan: the result, and whether its
   text is the rendered profile record the run wrote for the uid *)
let analyze sheet =
  let uid = sheet.Spreadsheet.uid in
  let rel, text = Plan.explain_analyze ~uid (Plan.of_sheet sheet) in
  let record = Obs.Profile.find ~uid in
  ( rel,
    record,
    match record with
    | Some r ->
        r.Obs.Profile.p_rows_out = Relation.cardinality rel
        && text = Obs.Profile.render_record r
    | None -> false )

let instrumented_equals_plain_off =
  QCheck.Test.make ~count:1000
    ~name:"sink off: explain_analyze = plain execute = Materialize.full"
    sheet_arbitrary
    (fun sheet ->
      with_sink Obs.Off @@ fun () ->
      let plain = Plan.execute (Plan.of_sheet sheet) in
      let rel, _, rendered = analyze sheet in
      same_rows rel plain && same_rows rel (Materialize.full sheet) && rendered)

let instrumented_equals_plain_memory =
  QCheck.Test.make ~count:300
    ~name:"memory sink: same results, spans balanced and nested"
    sheet_arbitrary
    (fun sheet ->
      with_sink Obs.Memory @@ fun () ->
      P.clear ();
      let rel, _, rendered = analyze sheet in
      same_rows rel (Materialize.full sheet)
      && rendered
      && Obs.Profile.open_regions () = 0
      && Obs.Profile.well_nested (Obs.Profile.records ()))

let profile_chain_rows =
  QCheck.Test.make ~count:200
    ~name:"profile chain: every node reports non-negative rows and time"
    sheet_arbitrary
    (fun sheet ->
      match analyze sheet with
      | _, Some r, _ ->
          r.Obs.Profile.p_total_ns >= 0
          && List.for_all
               (fun (n : Obs.Profile.node) ->
                 n.n_rows_in >= 0 && n.n_rows_out >= 0 && n.n_time_ns >= 0
                 && n.n_label <> "")
               r.Obs.Profile.p_nodes
      | _, None, _ -> false)

(* A derivation that raises (a hand-built child whose selection names
   a missing column) must leave no profile region open, and the ring
   nested. *)
let failed_derivation_closes_spans () =
  with_sink Obs.Memory @@ fun () ->
  P.clear ();
  let parent = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  let pred =
    Expr.Cmp (Expr.Lt, Expr.Col "Nope", Expr.Const (Value.Int 1))
  in
  let state, _ = Query_state.add_selection parent.Spreadsheet.state pred in
  let child = { (Spreadsheet.bump parent) with Spreadsheet.state } in
  (match Incremental.materialize_after ~parent ~op:(Op.Select pred) ~child with
  | _ -> Alcotest.fail "a selection on a missing column materialized"
  | exception _ -> ());
  Alcotest.(check bool) "nesting ok" true
    (Obs.Profile.well_nested (Obs.Profile.records ()));
  Alcotest.(check int) "no open region" 0 (Obs.Profile.open_regions ())

(* The plan counters move once per executed unit — exactly the nodes
   the committed profile record lists. *)
let executor_counts_plan_nodes () =
  let sheet = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  let apply sheet op =
    match Engine.apply sheet op with
    | Ok s -> s
    | Error _ -> Alcotest.fail "op refused"
  in
  let sheet =
    apply
      (apply sheet
         (Op.Select
            (Expr.Cmp
               (Expr.Lt, Expr.Col "Price", Expr.Const (Value.Int 20000)))))
      (Op.Order { attr = "Year"; dir = Grouping.Desc; level = 1 })
  in
  let v = Obs.Metrics.value_of in
  let nodes0 = v Obs.k_plan_nodes
  and in0 = v Obs.k_plan_rows_in
  and out0 = v Obs.k_plan_rows_out in
  let rel = Materialize.full sheet in
  match Obs.Profile.find ~uid:sheet.Spreadsheet.uid with
  | None -> Alcotest.fail "no profile record"
  | Some r ->
      let nodes = r.Obs.Profile.p_nodes in
      let sum f = List.fold_left (fun acc n -> acc + f n) 0 nodes in
      Alcotest.(check string) "materialize record" "materialize"
        r.Obs.Profile.p_kind;
      Alcotest.(check int) "filter + sort" 2 (List.length nodes);
      Alcotest.(check int) "plan.nodes_executed" (List.length nodes)
        (v Obs.k_plan_nodes - nodes0);
      Alcotest.(check int) "plan.rows_in"
        (sum (fun (n : Obs.Profile.node) -> n.n_rows_in))
        (v Obs.k_plan_rows_in - in0);
      Alcotest.(check int) "plan.rows_out"
        (sum (fun (n : Obs.Profile.node) -> n.n_rows_out))
        (v Obs.k_plan_rows_out - out0);
      Alcotest.(check int) "record rows" (Relation.cardinality rel)
        r.Obs.Profile.p_rows_out

(* ---------- the accounting of one fixed script ---------- *)

let parse = Expr_parse.parse_string_exn

let step session op =
  match Session.apply session op with
  | Ok s -> s
  | Error _ -> Alcotest.fail ("op refused: " ^ Op.describe op)

(* The derived counters and the plan.node.<kind> sample counts that a
   fixed cars script moves, pinned exactly: a selection derived over a
   missed base (a miss, a full replay, a seed, a derivation), a
   formula derived over the cached selection, a rename that falls back
   to a full replay, an exact hit and a subsumed hit (a filter and a
   sort with no keys, which puts the rows in root order). *)
let pinned_counters =
  [ Obs.k_cache_requests; Obs.k_cache_hits; Obs.k_cache_hits_subsumed;
    Obs.k_cache_misses; Obs.k_cache_seeds; Obs.k_full_replays;
    Obs.k_incremental_derivations; Obs.k_incremental_fallbacks;
    Obs.k_plan_nodes; Obs.k_plan_rows_in; Obs.k_plan_rows_out ]

let pinned_kinds =
  [ "scan"; "project"; "filter"; "distinct"; "extend"; "extend-agg"; "sort" ]

let pinned_accounting () =
  Materialize.reset_cache ();
  let read () =
    List.map Obs.Metrics.value_of pinned_counters
    @ List.map
        (fun kind ->
          Obs.Histogram.count
            (Obs.Histogram.histogram (Obs.h_plan_node_prefix ^ kind)))
        pinned_kinds
  in
  let before = read () in
  let session = Session.create ~name:"cars" Sample_cars.relation in
  let session = step session (Op.Select (parse "Price > 5000")) in
  let session =
    step session (Op.Formula { name = Some "p2"; expr = parse "Price * 2" })
  in
  let session =
    step session (Op.Rename { old_name = "Year"; new_name = "Built" })
  in
  let sheet = Session.current session in
  ignore (Materialize.full_cached sheet);
  (match Engine.apply sheet (Op.Select (parse "Mileage < 50000")) with
  | Ok narrower -> ignore (Materialize.full_cached narrower)
  | Error _ -> Alcotest.fail "narrowing selection refused");
  let s = Materialize.cache_stats () in
  Alcotest.(check (list int)) "cache_stats: requests hits subsumed misses seeds"
    [ 4; 2; 1; 1; 3 ]
    [ s.Materialize.requests; s.hits; s.subsumed_hits; s.misses; s.seeds ];
  Alcotest.(check (list (pair string int)))
    "counter deltas, then plan.node.<kind> samples"
    (List.combine
       (pinned_counters
       @ List.map (fun k -> Obs.h_plan_node_prefix ^ k) pinned_kinds)
       [ 4; 2; 1; 1; 3; 2; 2; 1; 7; 58; 53;
         4; 0; 4; 0; 2; 0; 1 ])
    (List.combine
       (pinned_counters
       @ List.map (fun k -> Obs.h_plan_node_prefix ^ k) pinned_kinds)
       (List.map2 ( - ) (read ()) before));
  Materialize.reset_cache ()

(* A record's selection totals are its own columnar filter nodes'
   rows. The formula step below re-materializes its evicted parent
   inside its own region: the parent's filter belongs to the parent's
   record alone, and the formula step's record filters nothing. *)
let selection_totals_own_nodes () =
  P.clear ();
  let session = Session.create ~name:"cars" Sample_cars.relation in
  let session = step session (Op.Select (parse "Price > 5000")) in
  Materialize.reset_cache ();
  let session =
    step session (Op.Formula { name = Some "p2"; expr = parse "Price * 2" })
  in
  let uid = (Session.current session).Spreadsheet.uid in
  let records = List.filter (fun r -> not (P.is_event r)) (P.records ()) in
  (match
     List.find_opt
       (fun r -> r.P.p_kind = "incremental" && r.P.p_uid = uid)
       records
   with
  | Some r ->
      Alcotest.(check (pair int int)) "formula step: sel 0 -> 0" (0, 0)
        (r.P.p_sel_rows_in, r.P.p_sel_rows_out);
      Alcotest.(check (list string)) "formula step: nothing compiled" []
        r.P.p_compiled
  | None -> Alcotest.fail "no incremental record for the formula step");
  List.iter
    (fun r ->
      let own f =
        List.fold_left
          (fun acc (n : P.node) ->
            if n.n_kind = "filter" && n.n_path = "columnar" then acc + f n
            else acc)
          0 r.P.p_nodes
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "#%d %s: sel = own columnar filters" r.P.p_uid
           r.P.p_kind)
        (own (fun n -> n.n_rows_in), own (fun n -> n.n_rows_out))
        (r.P.p_sel_rows_in, r.P.p_sel_rows_out))
    records;
  Materialize.reset_cache ()

(* ---------- counters ---------- *)

let counter_names =
  [ Obs.k_engine_ops; Obs.k_engine_errors; Obs.k_cache_requests;
    Obs.k_cache_hits; Obs.k_cache_hits_subsumed;
    Obs.k_cache_misses; Obs.k_cache_evictions; Obs.k_cache_seeds;
    Obs.k_full_replays; Obs.k_incremental_derivations;
    Obs.k_incremental_fallbacks; Obs.k_plan_nodes; Obs.k_plan_rows_in;
    Obs.k_plan_rows_out; Obs.k_sql_translations;
    Obs.k_sql_inverse_translations; Obs.k_sql_executions ]

let counters_monotone =
  QCheck.Test.make ~count:200
    ~name:"counters only grow across engine + plan work"
    sheet_arbitrary
    (fun sheet ->
      let before =
        List.map (fun n -> (n, Obs.Metrics.value_of n)) counter_names
      in
      ignore (Plan.execute (Plan.of_sheet sheet));
      ignore (Engine.apply sheet Op.Dedup);
      List.for_all
        (fun (n, v0) -> Obs.Metrics.value_of n >= v0)
        before)

let counters_snapshot () =
  let snap = Obs.Metrics.snapshot () in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " present") true
        (List.mem_assoc n snap))
    counter_names

(* ---------- cache stats ---------- *)

let cache_stats_deterministic () =
  Materialize.reset_cache ();
  let s0 = Materialize.cache_stats () in
  Alcotest.(check int) "hits zero" 0 s0.Materialize.hits;
  Alcotest.(check int) "misses zero" 0 s0.Materialize.misses;
  Alcotest.(check int) "entries zero" 0 s0.Materialize.entries;
  let sheet = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  let r1 = Materialize.full_cached sheet in
  let r2 = Materialize.full_cached sheet in
  Alcotest.(check bool) "same relation" true (Relation.equal r1 r2);
  let s = Materialize.cache_stats () in
  Alcotest.(check int) "one miss" 1 s.Materialize.misses;
  Alcotest.(check int) "one hit" 1 s.Materialize.hits;
  Alcotest.(check int) "one entry" 1 s.Materialize.entries;
  Alcotest.(check int) "no eviction" 0 s.Materialize.evictions;
  Materialize.reset_cache ();
  let s = Materialize.cache_stats () in
  Alcotest.(check int) "reset misses" 0 s.Materialize.misses;
  Alcotest.(check int) "reset entries" 0 s.Materialize.entries

let seed_counts_in_stats () =
  Materialize.reset_cache ();
  let sheet = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  Materialize.seed_cache sheet (Materialize.full sheet);
  let s = Materialize.cache_stats () in
  Alcotest.(check int) "one seed" 1 s.Materialize.seeds;
  Alcotest.(check int) "one entry" 1 s.Materialize.entries;
  (* the seeded value is served back without a miss *)
  ignore (Materialize.full_cached sheet);
  let s = Materialize.cache_stats () in
  Alcotest.(check int) "hit on seeded" 1 s.Materialize.hits;
  Alcotest.(check int) "no miss" 0 s.Materialize.misses

(* [Obs.Metrics.reset] after [reset_cache] zeroes the counters the
   stats are read from; the stats then count from that reset and
   never go negative *)
let cache_stats_after_registry_reset () =
  let cars () = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  for _ = 1 to 3 do
    ignore (Materialize.full_cached (cars ()))
  done;
  Materialize.reset_cache ();
  Obs.Metrics.reset ();
  let sheet = cars () in
  ignore (Materialize.full_cached sheet);
  ignore (Materialize.full_cached sheet);
  let s = Materialize.cache_stats () in
  Alcotest.(check (list int)) "requests, hits, subsumed, misses, evictions"
    [ 2; 1; 0; 1; 0 ]
    [ s.Materialize.requests; s.hits; s.subsumed_hits; s.misses; s.evictions ];
  Materialize.reset_cache ()

(* ---------- chrome trace export ---------- *)

let trace_round_trip () =
  with_sink Obs.Memory @@ fun () ->
  P.clear ();
  let sheet = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  let sheet =
    match
      Engine.apply sheet
        (Op.Select
           (Expr.Cmp (Expr.Lt, Expr.Col "Price", Expr.Const (Value.Int 20000))))
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "select refused"
  in
  ignore (Materialize.full sheet);
  ignore (Plan.explain_analyze (Plan.of_sheet sheet));
  let text = Obs.chrome_trace_string () in
  match J.parse text with
  | Error msg -> Alcotest.fail ("trace does not parse: " ^ msg)
  | Ok v -> (
      (match J.member "traceEvents" v with
      | Some (J.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "no traceEvents");
      match J.parse (J.to_string v) with
      | Ok v' ->
          Alcotest.(check bool) "round-trips" true (J.equal v v')
      | Error msg -> Alcotest.fail ("re-parse failed: " ^ msg))

(* [Obs.clear_events] is the old name of [Profile.clear], kept while
   perfbench calls it; it must still empty the ring *)
let ring_clears () =
  with_sink Obs.Memory @@ fun () ->
  Obs.clear_events ();
  ignore
    (Materialize.full
       (Spreadsheet.of_relation ~name:"cars" Sample_cars.relation));
  Alcotest.(check bool) "recorded" true (P.length () > 0);
  Obs.clear_events ();
  Alcotest.(check int) "empty" 0 (P.length ())

(* ---------- latency histograms ---------- *)

module H = Obs.Histogram

let samples_arbitrary =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      list_size (int_range 1 150)
        (* spread across the whole bucket range, 0 ns .. ~30 s *)
        (oneof
           [ int_range 0 1_000;
             int_range 1_000 1_000_000;
             int_range 1_000_000 1_000_000_000;
             int_range 1_000_000_000 30_000_000_000 ]))

(* a registered histogram no other test has touched *)
let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    H.histogram (Printf.sprintf "test.fresh.%d" !n)

let sum_ns h = (H.snapshot_of h).H.s_sum_ns
let max_ns h = (H.snapshot_of h).H.s_max_ns

let fill xs =
  let h = fresh () in
  List.iter (H.record h) xs;
  h

let boundaries_well_formed () =
  let b = H.boundaries in
  Alcotest.(check int) "33 edges" 33 (Array.length b);
  Alcotest.(check int) "100 ns first" 100 b.(0);
  Alcotest.(check int) "10 s last" 10_000_000_000 b.(32);
  for i = 1 to Array.length b - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "edge %d increases" i)
      true
      (b.(i) > b.(i - 1))
  done

(* the test's own bucket lookup, independent of the binary search *)
let bucket_of v =
  let n = Array.length H.boundaries in
  let rec go i = if i >= n || v <= H.boundaries.(i) then i else go (i + 1) in
  go 0

let hist_exactness =
  QCheck.Test.make ~count:500 ~name:"count/sum/max are exact"
    samples_arbitrary
    (fun xs ->
      let h = fill xs in
      H.count h = List.length xs
      && sum_ns h = List.fold_left ( + ) 0 xs
      && max_ns h = List.fold_left max 0 xs)

let hist_percentile_bounds =
  QCheck.Test.make ~count:500
    ~name:"p50 <= p90 <= p99 <= max, each inside its sample's bucket"
    samples_arbitrary
    (fun xs ->
      let h = fill xs in
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      let in_bucket phi =
        let p = H.percentile h phi in
        let rank =
          max 1 (min n (int_of_float (ceil (phi *. float_of_int n))))
        in
        let b = bucket_of sorted.(rank - 1) in
        let lo = if b = 0 then 0 else H.boundaries.(b - 1) in
        let hi =
          if b < Array.length H.boundaries then H.boundaries.(b) else max_int
        in
        p >= float_of_int lo && p <= float_of_int (min hi (max_ns h))
      in
      let p50 = H.percentile h 0.50 in
      let p90 = H.percentile h 0.90 in
      let p99 = H.percentile h 0.99 in
      in_bucket 0.50 && in_bucket 0.90 && in_bucket 0.99
      && p50 <= p90 && p90 <= p99
      && p99 <= float_of_int (max_ns h))

let hist_clamps_negative () =
  let h = fresh () in
  H.record h (-5);
  Alcotest.(check int) "counted" 1 (H.count h);
  Alcotest.(check int) "sum clamped" 0 (sum_ns h);
  Alcotest.(check int) "max clamped" 0 (max_ns h);
  Alcotest.(check (float 0.)) "percentile zero" 0. (H.percentile h 1.0)

let hist_empty_percentile () =
  Alcotest.(check (float 0.)) "empty is 0" 0. (H.percentile (fresh ()) 0.5)

(* Histograms always record (like counters); the whole point is that
   a sample costs about as much as an int increment, so recording can
   stay on with the sink off. Generous bounds keep this robust on a
   noisy machine: O(1) per record and within 50x of a bare counter. *)
let record_cost_comparable () =
  with_sink Obs.Off @@ fun () ->
  let h = fresh () in
  let c = Obs.Metrics.counter "test.cost_counter" in
  let n = 200_000 in
  let t0 = Obs.now_ns () in
  for _ = 1 to n do
    Obs.Metrics.incr c
  done;
  let t_counter = Obs.now_ns () - t0 in
  let t0 = Obs.now_ns () in
  for i = 1 to n do
    H.record h i
  done;
  let t_record = Obs.now_ns () - t0 in
  Alcotest.(check bool) "record cost comparable to a counter incr" true
    (t_record <= max 1 t_counter * 50 || t_record / n < 1_000)

let hist_snapshot_and_json () =
  H.reset ();
  let h = H.histogram Obs.h_engine_apply in
  List.iter (H.record h) [ 150; 1_500; 150_000; 15_000_000 ];
  let s = H.snapshot_of h in
  Alcotest.(check int) "count" 4 s.H.s_count;
  Alcotest.(check int) "max" 15_000_000 s.H.s_max_ns;
  Alcotest.(check bool) "nonzero buckets only" true
    (List.for_all (fun (_, n) -> n > 0) s.H.s_buckets);
  Alcotest.(check int) "bucket counts total" 4
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.H.s_buckets);
  (match J.parse (J.to_string (H.to_json ())) with
  | Ok j ->
      Alcotest.(check bool) "engine.apply present" true
        (J.member Obs.h_engine_apply j <> None)
  | Error msg -> Alcotest.fail msg);
  H.reset ();
  Alcotest.(check int) "reset zeroes" 0 (H.count h)

(* ---------- the monotone clock ---------- *)

let clock_never_negative () =
  (* pin a test clock 10 s in the future, then step it backwards: the
     clamp must freeze time rather than let a duration go negative *)
  let t = ref (Obs.now_ns () + 10_000_000_000) in
  Obs.set_raw_clock_for_tests (Some (fun () -> !t));
  Fun.protect ~finally:(fun () -> Obs.set_raw_clock_for_tests None)
  @@ fun () ->
  with_sink Obs.Memory @@ fun () ->
  P.clear ();
  let a = Obs.now_ns () in
  t := !t - 5_000_000_000;
  let b = Obs.now_ns () in
  Alcotest.(check bool) "now_ns never decreases" true (b >= a);
  Obs.with_span "backwards" (fun () -> t := !t - 3_000_000_000);
  (match P.records () with
  | [ r ] ->
      Alcotest.(check bool) "duration >= 0" true (r.P.p_total_ns >= 0);
      (* the clamp freezes time, so the duration is not absurd either *)
      Alcotest.(check bool) "duration not absurd" true
        (r.P.p_total_ns <= 1_000_000_000)
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 record, got %d" (List.length rs)));
  (* histogram samples taken across the step are clamped too *)
  let h = fresh () in
  let t0 = Obs.now_ns () in
  t := !t - 1_000_000_000;
  H.record h (Obs.now_ns () - t0);
  Alcotest.(check bool) "sample >= 0" true (max_ns h >= 0)

(* ---------- the flight recorder: a view over the profile ring ---------- *)


let ring_capacity = 512

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* an event record lasting exactly [ns]: the clock stands still while
   it commits *)
let event_lasting ns ?uid ~kind label =
  let t = Obs.now_ns () in
  Obs.set_raw_clock_for_tests (Some (fun () -> t));
  Fun.protect ~finally:(fun () -> Obs.set_raw_clock_for_tests None)
  @@ fun () -> P.event ?uid ~since:(t - ns) ~kind label

let flightrec_ring () =
  P.clear ();
  P.set_capacity 4;
  Fun.protect
    ~finally:(fun () ->
      P.set_capacity ring_capacity;
      P.clear ())
  @@ fun () ->
  for i = 1 to 6 do
    P.event ~kind:"op" (Printf.sprintf "e%d" i)
  done;
  let rs = P.records () in
  Alcotest.(check int) "bounded at capacity" 4 (List.length rs);
  Alcotest.(check int) "two dropped" 2 (P.dropped ());
  Alcotest.(check string) "oldest evicted first" "e3" (List.hd rs).P.p_label;
  Alcotest.(check string) "newest kept" "e6" (List.nth rs 3).P.p_label;
  P.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (P.records ()));
  Alcotest.(check int) "clear resets dropped" 0 (P.dropped ())

let flightrec_json_round_trip () =
  P.clear ();
  event_lasting 123_456 ~uid:7 ~kind:"op" "Select Price < 2";
  P.event ~kind:"undo" "Group Model";
  P.event ~uid:9 ~kind:"cache-eviction" "oldest half";
  let j = P.to_json () in
  (match J.member "schema" j with
  | Some (J.String "sheetscope-profile/v4") -> ()
  | _ -> Alcotest.fail "missing schema tag");
  (match J.member "profiles" j with
  | Some (J.List l) -> Alcotest.(check int) "3 records" 3 (List.length l)
  | _ -> Alcotest.fail "missing profiles");
  (match J.parse (J.to_string j) with
  | Ok j' -> Alcotest.(check bool) "round-trips" true (J.equal j j')
  | Error msg -> Alcotest.fail msg);
  P.clear ()

(* the slow threshold is a constant 100 ms: a record one nanosecond
   under it is unmarked, one at it is marked *)
let flightrec_slow_threshold () =
  P.clear ();
  event_lasting 99_999_999 ~kind:"op" "quick";
  event_lasting 100_000_000 ~kind:"op" "sluggish";
  (match String.split_on_char '\n' (P.render ()) with
  | [ quick; sluggish ] ->
      Alcotest.(check bool) "under 100 ms unmarked" false
        (contains quick "slow");
      Alcotest.(check bool) "100 ms marked slow" true
        (contains sluggish "slow")
  | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines));
  P.clear ()

let flightrec_render_limit () =
  P.clear ();
  for i = 1 to 5 do
    P.event ~kind:"op" (Printf.sprintf "r%d" i)
  done;
  let text = P.render ~limit:2 () in
  Alcotest.(check bool) "newest shown" true
    (String.length text > 0
    && List.length (String.split_on_char '\n' text) = 2
    && contains text "r5");
  P.clear ()

(* One session touches every kind of record the ring holds; each kind
   shows in the flight-recorder text and in the ring's JSON, and the
   EXPLAIN ANALYZE lookups skip the event records. *)
let flightrec_covers_every_kind () =
  Materialize.reset_cache ();
  P.clear ();
  P.set_capacity 4_096;
  Fun.protect
    ~finally:(fun () ->
      P.set_capacity ring_capacity;
      P.clear ();
      Materialize.reset_cache ())
  @@ fun () ->
  let price op v = Expr.Cmp (op, Expr.Col "Price", Expr.Const (Value.Int v)) in
  let s = Session.create ~name:"cars" Sample_cars.relation in
  ignore (Session.materialized s);
  (* miss, then exact hit *)
  ignore (Session.materialized s);
  let s =
    match Session.apply s (Op.Select (price Expr.Gt 10000)) with
    | Ok s -> s
    | Error _ -> Alcotest.fail "select refused"
  in
  (match Session.apply s (Op.Project "NoSuchColumn") with
  | Ok _ -> Alcotest.fail "projecting a missing column should fail"
  | Error _ -> ());
  let s = Option.get (Session.redo (Option.get (Session.undo s))) in
  (* the session's cached sheet subsumes a narrower selection *)
  (match Engine.apply (Session.current s) (Op.Select (price Expr.Gt 20000)) with
  | Ok narrower -> ignore (Materialize.full_cached narrower)
  | Error _ -> Alcotest.fail "narrower select refused");
  (match
     Sheet_sql.Sql_parser.parse "SELECT Model FROM cars WHERE Price > 9000"
   with
  | Ok q ->
      ignore
        (Sheet_sql.Sql_to_sheet.translate
           (Sheet_sql.Catalog.of_list [ ("cars", Sample_cars.relation) ])
           q)
  | Error msg -> Alcotest.fail msg);
  (* past 512 resident entries the cache evicts its oldest half *)
  let base = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  for i = 1 to 520 do
    match Engine.apply base (Op.Select (price Expr.Lt (100_000 + i))) with
    | Ok sheet -> ignore (Materialize.full_cached sheet)
    | Error _ -> Alcotest.fail "select refused"
  done;
  event_lasting 150_000_000 ~kind:"op" "a slow gesture";
  let text = P.render () in
  let json =
    match J.parse (J.to_string (P.to_json ())) with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  let field k =
    match J.member "profiles" json with
    | Some (J.List l) ->
        List.filter_map
          (fun r ->
            match J.member k r with Some (J.String v) -> Some v | _ -> None)
          l
    | _ -> Alcotest.fail "no profiles list"
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " in the text") true
        (contains text ("  " ^ kind ^ " "));
      Alcotest.(check bool) (kind ^ " in the JSON") true
        (List.mem kind (field "kind")))
    [ "op"; "op-rejected"; "undo"; "redo"; "sql-translation";
      "cache-eviction" ];
  List.iter
    (fun outcome ->
      Alcotest.(check bool) (outcome ^ " in the text") true
        (contains text ("cache=" ^ outcome));
      Alcotest.(check bool) (outcome ^ " in the JSON") true
        (List.mem outcome (field "cache")))
    [ "miss"; "exact"; "subsumed" ];
  Alcotest.(check bool) "the subsumed hit names its subsumer" true
    (List.exists (fun l -> contains l "from sheet #") (field "label"));
  Alcotest.(check bool) "the slow record is marked" true
    (List.exists
       (fun line -> contains line "a slow gesture" && contains line "slow")
       (String.split_on_char '\n' text));
  (match P.last () with
  | Some r -> Alcotest.(check bool) "last skips events" false (P.is_event r)
  | None -> Alcotest.fail "no materialization record");
  List.iter
    (fun (r : P.t) ->
      if P.is_event r && r.p_uid <> 0 then
        match P.find ~uid:r.p_uid with
        | Some found ->
            Alcotest.(check bool) "find skips events" false (P.is_event found)
        | None -> ())
    (P.records ())

(* ---------- report surfaces ---------- *)


let trace_other_data_health () =
  with_sink Obs.Memory @@ fun () ->
  P.clear ();
  ignore
    (Materialize.full
       (Spreadsheet.of_relation ~name:"cars" Sample_cars.relation));
  match J.parse (Obs.chrome_trace_string ()) with
  | Error msg -> Alcotest.fail msg
  | Ok j -> (
      match J.member "otherData" j with
      | None -> Alcotest.fail "no otherData"
      | Some od ->
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " present") true
                (J.member k od <> None))
            [ "dropped"; "nesting_ok"; "metrics"; "histograms"; "slo" ];
          Alcotest.(check bool) "no profile block" true
            (J.member "profiles" od = None);
          (match J.member "nesting_ok" od with
          | Some (J.Bool true) -> ()
          | _ -> Alcotest.fail "nesting_ok should be Bool true"))

let metrics_report_surfaces () =
  (* run real work so the well-known histograms hold samples *)
  let sheet = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  (match Engine.apply sheet Op.Dedup with
  | Ok s -> ignore (Plan.execute (Plan.of_sheet s))
  | Error _ -> Alcotest.fail "dedup refused");
  let report = Obs.metrics_report () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in report") true
        (contains report needle))
    [ "engine.apply"; "plan.node.scan"; "p50"; "p99";
      "profile.records"; "profile.dropped"; "profile.nesting_ok" ]

(* ---------- Obs_json ---------- *)

let json_round_trip_values () =
  let cases =
    [ J.Null; J.Bool true; J.Bool false; J.Int 0; J.Int (-42);
      J.Int max_int; J.Float 0.1; J.Float (-1e300); J.Float 1.5;
      J.String ""; J.String "a\"b\\c\nd\te";
      J.String "caf\xc3\xa9";  (* UTF-8 passes through *)
      J.List []; J.Obj [];
      J.Obj
        [ ("k", J.List [ J.Int 1; J.Float 2.5; J.String "x"; J.Null ]);
          ("nested", J.Obj [ ("deep", J.List [ J.Obj [] ]) ]) ] ]
  in
  List.iter
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' ->
          Alcotest.(check bool)
            (J.to_string v ^ " round-trips")
            true (J.equal v v')
      | Error msg -> Alcotest.fail (J.to_string v ^ ": " ^ msg))
    cases;
  (* floats keep their type: 2.0 must not come back as Int 2 *)
  match J.parse (J.to_string (J.Float 2.0)) with
  | Ok (J.Float _) -> ()
  | Ok _ -> Alcotest.fail "float decayed to another constructor"
  | Error msg -> Alcotest.fail msg

let json_parse_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [ ""; "{"; "["; "tru"; "nul"; "{\"a\":}"; "[1,]"; "\"unterminated";
      "{\"a\" 1}"; "01x"; "- 1"; "\xff" ];
  (* escapes and unicode *)
  (match J.parse {|"Aé😀"|} with
  | Ok (J.String s) ->
      Alcotest.(check string) "unicode escapes" "A\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape parse");
  (* depth guard: deeply nested input must fail, not overflow *)
  let deep = String.concat "" (List.init 2000 (fun _ -> "[")) in
  match J.parse deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbounded depth accepted"

(* ---------- labels ---------- *)

let labels_normalize () =
  let l =
    Obs.Labels.v [ ("task", "a"); ("session", "x{y},z=w"); ("task", "b") ]
  in
  Alcotest.(check string) "sorted, deduped, sanitized"
    "{session=x_y__z_w,task=b}"
    (Obs.Labels.to_string l);
  Alcotest.(check bool) "empty renders empty" true
    (Obs.Labels.to_string Obs.Labels.empty = "")

(* the ambient labels stamp the records an engine op commits — the
   op event and, with the sink on, the engine.apply span — and name no
   registry series *)
let ambient_labels_flow_to_engine () =
  P.clear ();
  let stamp = Obs.Labels.v [ ("session", "amb-test") ] in
  Obs.set_ambient_labels stamp;
  Fun.protect ~finally:(fun () -> Obs.set_ambient_labels Obs.Labels.empty)
  @@ fun () ->
  with_sink Obs.Memory @@ fun () ->
  let session = Session.create ~name:"cars" Sample_cars.relation in
  ignore (step session Op.Dedup);
  let mine = P.records ~session:(Obs.Labels.to_string stamp) () in
  let kinds k = List.length (List.filter (fun r -> r.P.p_kind = k) mine) in
  Alcotest.(check int) "one stamped op record" 1 (kinds "op");
  Alcotest.(check int) "one stamped engine.apply span" 1 (kinds "engine.apply");
  Alcotest.(check bool) "no series names the session" false
    (List.exists
       (fun (name, _) -> contains name "amb-test")
       (H.counts_snapshot () @ Obs.Metrics.snapshot ()));
  P.clear ()

(* ---------- SLOs ---------- *)

let slo_latency_and_rate () =
  H.reset ();
  Obs.Metrics.reset ();
  let defs =
    [ Obs.Slo.Latency
        { slo_name = "test-lat"; hist = "test.slo"; phi = 0.99;
          under_ms = 1. };
      Obs.Slo.Error_rate
        { slo_name = "test-rate"; errors = "test.slo.err";
          total = "test.slo.tot"; under = 0.01 } ]
  in
  (* empty series: vacuous pass, reported as no data *)
  let vacuous =
    List.find (fun v -> v.Obs.Slo.v_slo = "test-lat") (Obs.Slo.evaluate defs)
  in
  Alcotest.(check bool) "no data passes" true vacuous.Obs.Slo.v_ok;
  Alcotest.(check int) "no data count" 0 vacuous.Obs.Slo.v_count;
  (* violate the latency target: 5 ms against a 1 ms budget *)
  H.record (H.histogram "test.slo") 5_000_000;
  (* violate the rate target: 5 % against 1 % *)
  let err = Obs.Metrics.counter "test.slo.err" in
  let tot = Obs.Metrics.counter "test.slo.tot" in
  Obs.Metrics.incr ~by:5 err;
  Obs.Metrics.incr ~by:100 tot;
  let verdicts = Obs.Slo.evaluate defs in
  let find name = List.find (fun v -> v.Obs.Slo.v_slo = name) verdicts in
  Alcotest.(check bool) "latency target fails" false (find "test-lat").Obs.Slo.v_ok;
  Alcotest.(check bool) "rate target fails" false (find "test-rate").Obs.Slo.v_ok;
  (* the shipped report: 300 ms against materialize.full's 200 ms *)
  H.record (H.histogram Obs.h_materialize_full) 300_000_000;
  Alcotest.(check bool) "summary says FAILING" true
    (contains (Obs.Slo.summary ()) "FAILING");
  Alcotest.(check bool) "render flags FAIL" true
    (contains (Obs.Slo.render ()) "FAIL");
  (* JSON schema + round-trip *)
  let j = Obs.Slo.to_json () in
  (match J.member "schema" j with
  | Some (J.String "sheetscope-slo/v1") -> ()
  | _ -> Alcotest.fail "missing slo schema tag");
  (match J.member "ok" j with
  | Some (J.Bool false) -> ()
  | _ -> Alcotest.fail "a failing report should say ok: false");
  (match J.parse (J.to_string j) with
  | Ok j' -> Alcotest.(check bool) "slo json round-trips" true (J.equal j j')
  | Error msg -> Alcotest.fail msg);
  H.reset ();
  Obs.Metrics.reset ()

(* a latency verdict reads in ms, a rate in %: the unit comes from
   the target's kind, whatever its series is called *)
let slo_unit_from_def () =
  H.reset ();
  let series = Obs.h_engine_apply in
  H.record (H.histogram series) 2_000_000;
  let line =
    List.find_opt
      (fun l -> String.starts_with ~prefix:"engine-apply-p99" l)
      (String.split_on_char '\n' (Obs.Slo.render ()))
  in
  (match line with
  | None -> Alcotest.fail "latency series not reported"
  | Some l ->
      Alcotest.(check bool) "observed in ms" true (contains l "2.000 ms");
      Alcotest.(check bool) "limit in ms" true (contains l "50.000 ms");
      Alcotest.(check bool) "no percentage" false (contains l "%"));
  (match J.member "slos" (Obs.Slo.to_json ()) with
  | Some (J.List slos) -> (
      match
        List.find_opt
          (fun v -> J.member "series" v = Some (J.String series))
          slos
      with
      | Some v ->
          Alcotest.(check bool) "unit ms" true
            (J.member "unit" v = Some (J.String "ms"))
      | None -> Alcotest.fail "latency series missing from the JSON")
  | _ -> Alcotest.fail "no slos list");
  H.reset ()

let slo_defaults_present () =
  let names =
    List.map
      (function
        | Obs.Slo.Latency { slo_name; _ } | Obs.Slo.Error_rate { slo_name; _ }
          ->
            slo_name)
      Obs.Slo.defaults
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " declared") true (List.mem n names))
    [ "engine-apply-p99"; "materialize-full-p99"; "sql-run-p99";
      "engine-error-rate" ]

(* ---------- deterministic series ordering ---------- *)

let series_ordering_pinned () =
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  (* registration order deliberately scrambled: second name first *)
  Obs.Metrics.incr (Obs.Metrics.counter "zz.order.ops");
  Obs.Metrics.incr (Obs.Metrics.counter "zz.order.aaa");
  let mine =
    List.filter
      (fun n -> n = "zz.order.ops" || n = "zz.order.aaa")
      (List.map fst (Obs.Metrics.snapshot ()))
  in
  Alcotest.(check (list string))
    "counters: families sorted" [ "zz.order.aaa"; "zz.order.ops" ] mine;
  Obs.Histogram.record (Obs.Histogram.histogram "zz.order.lat.b") 10;
  Obs.Histogram.record (Obs.Histogram.histogram "zz.order.lat") 10;
  Obs.Histogram.record (Obs.Histogram.histogram "zz.order.lat.a") 10;
  let mine =
    List.filter
      (fun n -> String.starts_with ~prefix:"zz.order.lat" n)
      (List.map fst (Obs.Histogram.counts_snapshot ()))
  in
  Alcotest.(check (list string))
    "histograms: sorted by name"
    [ "zz.order.lat"; "zz.order.lat.a"; "zz.order.lat.b" ]
    mine;
  Obs.Metrics.reset ();
  Obs.Histogram.reset ()

(* ---------- execution profiles (Sheetdoctor) ---------- *)

let profile_region_basic () =
  P.clear ();
  P.reset_stack_for_tests ();
  Obs.set_ambient_labels (Obs.Labels.v [ ("session", "ptest") ]);
  Fun.protect
    ~finally:(fun () -> Obs.set_ambient_labels Obs.Labels.empty)
  @@ fun () ->
  P.enter ~kind:"materialize" ~uid:42;
  P.note_cache "miss";
  (* a same-uid re-entry (full under a full_cached miss) nests *)
  P.enter ~kind:"materialize" ~uid:42;
  P.note_strategy "full-replay";
  (* a node's path attribution lands on the record *)
  P.note_node ~rows_in:10 ~rows_out:5 ~path:"columnar" ~compiled:"Price > 3"
    ~kind:"filter" ~label:"Filter Price > 3" ~start_ns:(Obs.now_ns ())
    ~time_ns:1_000 ~alloc_bytes:64. ();
  P.note_node ~rows_in:5 ~rows_out:5 ~path:"row"
    ~fallback:("f(Price)", "non-total subtree f(Price)")
    ~kind:"extend" ~label:"Extend g = f(Price)" ~start_ns:(Obs.now_ns ())
    ~time_ns:1_000 ~alloc_bytes:64. ();
  P.commit ~rows_out:5;
  Alcotest.(check int) "nested commit records nothing" 0 (P.length ());
  Alcotest.(check int) "outer region still open" 1 (P.open_regions ());
  P.commit ~rows_out:5;
  Alcotest.(check int) "balanced" 0 (P.open_regions ());
  match P.records () with
  | [ r ] ->
      Alcotest.(check int) "uid" 42 r.P.p_uid;
      Alcotest.(check string) "kind" "materialize" r.P.p_kind;
      Alcotest.(check int) "rows" 5 r.P.p_rows_out;
      Alcotest.(check string) "cache" "miss" r.P.p_cache;
      Alcotest.(check string) "strategy (from the nested enter)"
        "full-replay" r.P.p_strategy;
      Alcotest.(check string) "session stamp" "{session=ptest}" r.P.p_session;
      Alcotest.(check (list string)) "compiled" [ "Price > 3" ] r.P.p_compiled;
      Alcotest.(check (list (pair string string)))
        "fallbacks"
        [ ("f(Price)", "non-total subtree f(Price)") ]
        r.P.p_fallbacks;
      Alcotest.(check (pair int int))
        "sel totals: the columnar filter node's rows" (10, 5)
        (r.P.p_sel_rows_in, r.P.p_sel_rows_out);
      (match r.P.p_nodes with
      | [ f; e ] ->
          Alcotest.(check (list string)) "node labels, in order"
            [ "Filter Price > 3"; "Extend g = f(Price)" ]
            [ f.P.n_label; e.P.n_label ];
          Alcotest.(check int) "node rows out" 5 f.P.n_rows_out
      | ns ->
          Alcotest.failf "expected 2 nodes, got %d" (List.length ns))
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let profile_ring_bounded () =
  P.clear ();
  P.reset_stack_for_tests ();
  P.set_capacity 4;
  Fun.protect
    ~finally:(fun () ->
      P.set_capacity ring_capacity;
      P.clear ())
  @@ fun () ->
  for i = 1 to 10 do
    P.enter ~kind:"plan" ~uid:i;
    P.commit ~rows_out:i
  done;
  Alcotest.(check int) "length capped" 4 (P.length ());
  Alcotest.(check int) "dropped counted" 6 (P.dropped ());
  Alcotest.(check (list int)) "newest survive, oldest first"
    [ 7; 8; 9; 10 ]
    (List.map (fun r -> r.P.p_uid) (P.records ()));
  (match P.last () with
  | Some r -> Alcotest.(check int) "last is newest" 10 r.P.p_uid
  | None -> Alcotest.fail "no last record");
  Alcotest.(check bool) "find hits a survivor" true (P.find ~uid:9 <> None);
  Alcotest.(check bool) "find misses an evictee" true (P.find ~uid:3 = None);
  P.clear ();
  Alcotest.(check int) "clear resets length" 0 (P.length ());
  Alcotest.(check int) "clear resets dropped" 0 (P.dropped ())

let profile_disabled_inert () =
  P.clear ();
  P.reset_stack_for_tests ();
  P.set_enabled false;
  Fun.protect ~finally:(fun () -> P.set_enabled true) @@ fun () ->
  P.enter ~kind:"plan" ~uid:7;
  P.note_cache "exact";
  P.note_node ~kind:"x" ~label:"y" ~start_ns:(Obs.now_ns ()) ~time_ns:1
    ~alloc_bytes:0. ();
  P.commit ~rows_out:1;
  Alcotest.(check int) "no record" 0 (P.length ());
  Alcotest.(check int) "balanced" 0 (P.open_regions ())

let profile_json_round_trip () =
  P.clear ();
  P.reset_stack_for_tests ();
  P.enter ~kind:"materialize" ~uid:1;
  P.note_cache "subsumed";
  P.note_node ~rows_in:100 ~rows_out:7 ~path:"columnar"
    ~compiled:"Price < 9000" ~kind:"filter" ~label:"Filter Price < 9000"
    ~start_ns:(Obs.now_ns ()) ~time_ns:123 ~alloc_bytes:1024.5 ();
  P.commit ~rows_out:7;
  P.event ~uid:2 ~kind:"op" "Select Price < 9000";
  P.enter ~kind:"plan" ~uid:2;
  P.note_node ~rows_in:7 ~rows_out:0 ~path:"row"
    ~fallback:("a / b = 1", "non-total subtree a / b") ~kind:"filter"
    ~label:"Filter a / b = 1" ~start_ns:(Obs.now_ns ()) ~time_ns:5
    ~alloc_bytes:0. ();
  P.commit ~rows_out:(-1);
  (* the attribution the nodes carried is in the export *)
  let attribution r =
    (J.member "compiled" r, J.member "fallbacks" r)
  in
  Alcotest.(check bool) "compiled and (pred, reason) pairs exported" true
    (List.map attribution (List.map P.record_to_json (P.records ()))
    = [ (Some (J.List [ J.String "Price < 9000" ]), Some (J.List []));
        (Some (J.List []), Some (J.List []));
        ( Some (J.List []),
          Some
            (J.List
               [ J.Obj
                   [ ("pred", J.String "a / b = 1");
                     ("reason", J.String "non-total subtree a / b") ] ]) ) ]);
  (* the export parses back through the bundled parser to the value
     it printed, one entry per record, each the record's own JSON *)
  let text = J.to_string (P.to_json ()) in
  (match J.parse text with
  | Error msg -> Alcotest.fail ("export does not parse: " ^ msg)
  | Ok parsed -> (
      Alcotest.(check bool) "round-trips" true (J.equal parsed (P.to_json ()));
      match J.member "profiles" parsed with
      | Some (J.List l) ->
          Alcotest.(check int) "one entry per record" 3 (List.length l);
          Alcotest.(check bool) "entries are the records" true
            (List.for_all2 J.equal l (List.map P.record_to_json (P.records ())))
      | _ -> Alcotest.fail "no profiles list"));
  (* the parser is total on every truncation of the export *)
  for len = 0 to String.length text - 1 do
    match J.parse (String.sub text 0 len) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parse raised %s on a %d-byte prefix"
          (Printexc.to_string e) len
  done;
  P.clear ()

(* ---------- the Chrome trace is drawn from the ring ---------- *)

let trace_events () =
  match J.parse (Obs.chrome_trace_string ()) with
  | Error msg -> Alcotest.fail ("trace does not parse: " ^ msg)
  | Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.List evs) -> evs
      | _ -> Alcotest.fail "no traceEvents")

let str k ev =
  match J.member k ev with Some (J.String s) -> s | _ -> ""

let arg_int k ev =
  match Option.bind (J.member "args" ev) (J.member k) with
  | Some (J.Int i) -> i
  | _ -> Alcotest.failf "event %s has no int arg %s" (str "name" ev) k

let num k ev =
  match J.member k ev with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> Alcotest.failf "event %s has no %s" (str "name" ev) k

let profile_in_chrome_trace () =
  with_sink Obs.Memory @@ fun () ->
  P.clear ();
  P.enter ~kind:"plan" ~uid:3;
  P.commit ~rows_out:0;
  P.event ~uid:3 ~kind:"op" "no duration";
  (match trace_events () with
  | [ record; instant ] ->
      Alcotest.(check (list string)) "record: complete event"
        [ "plan"; "X"; "profile" ]
        [ str "name" record; str "ph" record; str "cat" record ];
      Alcotest.(check int) "record fields as args" 3 (arg_int "uid" record);
      Alcotest.(check (list string)) "event: instant" [ "op"; "i"; "event" ]
        [ str "name" instant; str "ph" instant; str "cat" instant ]
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  P.clear ()

(* Under [trace mem], EXPLAIN ANALYZE's run draws one X event per node
   of its record, each with the node's label and time, inside the
   record's own event. *)
let explain_analyze_nodes_in_trace () =
  let s =
    Session.create ~name:"cars" Sample_cars.relation
    |> fun s ->
    match
      Script.run_silent s
        "select Price < 20000\nformula twice = Price * 2\norder Year desc"
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let run line =
    match Script.run_line s line with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  in
  Fun.protect ~finally:(fun () -> run "trace off") @@ fun () ->
  List.iter run [ "trace mem"; "flightrec clear"; "explain analyze" ];
  let r =
    match P.last () with Some r -> r | None -> Alcotest.fail "no record"
  in
  Alcotest.(check bool) "the run has nodes" true (r.P.p_nodes <> []);
  let evs = trace_events () in
  let record =
    match
      List.filter
        (fun ev -> str "cat" ev = "profile" && str "name" ev = "plan")
        evs
    with
    | [ ev ] -> ev
    | l -> Alcotest.failf "%d plan records in the trace" (List.length l)
  in
  let nodes =
    List.filter (fun ev -> str "cat" ev = "node" && str "ph" ev = "X") evs
  in
  Alcotest.(check int) "one X event per node" (List.length r.P.p_nodes)
    (List.length nodes);
  let start = r.P.p_at_ns - r.P.p_total_ns in
  Alcotest.(check (float 1e-6)) "record ts" (float_of_int start /. 1e3)
    (num "ts" record);
  List.iter2
    (fun (n : P.node) ev ->
      Alcotest.(check string) "node label" n.n_label
        (match Option.bind (J.member "args" ev) (J.member "label") with
        | Some (J.String l) -> l
        | _ -> "");
      Alcotest.(check (float 1e-6)) "dur = time_ns / 1e3"
        (float_of_int n.n_time_ns /. 1e3) (num "dur" ev);
      let n_start = arg_int "start_ns" ev in
      Alcotest.(check bool) "inside its record" true
        (start <= n_start && n_start + n.n_time_ns <= r.P.p_at_ns))
    r.P.p_nodes nodes

(* two threads whose spans interleave (a opens, b opens, a closes, b
   closes) leave records that overlap without nesting. The handshake
   keeps Sheetscope's one-writer contract: a commits before it sets
   [a_closed], and b commits only after seeing it. *)
let interleaved_threads_flagged () =
  with_sink Obs.Memory @@ fun () ->
  P.clear ();
  let b_open = Atomic.make false and a_closed = Atomic.make false in
  let wait flag = while not (Atomic.get flag) do Thread.yield () done in
  let b =
    Thread.create
      (fun () ->
        Unix.sleepf 0.002;
        Obs.with_span "test.b" (fun () ->
            Atomic.set b_open true;
            wait a_closed;
            Unix.sleepf 0.002))
      ()
  in
  Obs.with_span "test.a" (fun () ->
      wait b_open;
      Unix.sleepf 0.002);
  Atomic.set a_closed true;
  Thread.join b;
  Alcotest.(check int) "two records" 2 (P.length ());
  Alcotest.(check bool) "interleaving flagged" false
    (P.well_nested (P.records ()));
  (* the same two spans run one inside the other pass *)
  P.clear ();
  Obs.with_span "test.a" (fun () -> Obs.with_span "test.b" ignore);
  Alcotest.(check bool) "nesting passes" true (P.well_nested (P.records ()));
  P.clear ()

(* [flightrec clear] empties the one tape, so the trace too, and
   resets its drop count; [trace] has no clearing word of its own *)
let flightrec_clear_empties_trace () =
  let s = Session.create ~name:"cars" Sample_cars.relation in
  let run line =
    match Script.run_line s line with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  in
  Fun.protect ~finally:(fun () -> run "trace off") @@ fun () ->
  List.iter run [ "trace mem"; "select Price < 20000"; "explain analyze" ];
  Alcotest.(check bool) "traced" true (trace_events () <> []);
  Alcotest.(check bool) "recorded" true (P.length () > 0);
  run "flightrec clear";
  Alcotest.(check int) "empty ring" 0 (P.length ());
  Alcotest.(check int) "no drops" 0 (P.dropped ());
  Alcotest.(check int) "no events" 0 (List.length (trace_events ()));
  Alcotest.(check bool) "no trace clear" true
    (Result.is_error (Script.run_line s "trace clear"))

(* ---------- GC gauges ---------- *)

(* the gauges are sampled by the exports, not by spans *)
let gc_gauges_sampled () =
  let gauges = [ Obs.k_gc_minor; Obs.k_gc_heap ] in
  let zero () =
    List.iter (fun k -> Obs.Metrics.set (Obs.Metrics.gauge k) 0) gauges
  in
  let sampled what =
    List.iter
      (fun k ->
        Alcotest.(check bool) (k ^ " sampled by " ^ what) true
          (Obs.Metrics.value_of k > 0))
      gauges
  in
  with_sink Obs.Memory @@ fun () ->
  P.clear ();
  zero ();
  Obs.with_span "gc-probe" (fun () ->
      ignore (Sys.opaque_identity (List.init 10_000 string_of_int)));
  List.iter
    (fun k ->
      Alcotest.(check int) (k ^ " untouched by a span") 0
        (Obs.Metrics.value_of k))
    gauges;
  Alcotest.(check bool) "gauge in metrics_report" true
    (contains (Obs.metrics_report ()) Obs.k_gc_heap);
  sampled "metrics_report";
  zero ();
  (match J.parse (Obs.chrome_trace_string ()) with
  | Ok j -> (
      match J.member "otherData" j with
      | Some od -> (
          match J.member "metrics" od with
          | Some m ->
              Alcotest.(check bool) "gauge in trace export" true
                (match J.member Obs.k_gc_heap m with
                | Some (J.Int v) -> v > 0
                | _ -> false)
          | None -> Alcotest.fail "no metrics in otherData")
      | None -> Alcotest.fail "no otherData")
  | Error msg -> Alcotest.fail msg);
  sampled "the trace export";
  P.clear ()

let () =
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "sheet_obs"
    [ ("equivalence",
       [ prop instrumented_equals_plain_off;
         prop instrumented_equals_plain_memory;
         prop profile_chain_rows;
         Alcotest.test_case "failed derivation closes its spans" `Quick
           failed_derivation_closes_spans;
         Alcotest.test_case "executor counts its plan nodes" `Quick
           executor_counts_plan_nodes;
         Alcotest.test_case "a fixed script's accounting, pinned" `Quick
           pinned_accounting;
         Alcotest.test_case "selection totals are the record's own" `Quick
           selection_totals_own_nodes ]);
      ("metrics",
       [ prop counters_monotone;
         Alcotest.test_case "snapshot carries well-known names" `Quick
           counters_snapshot ]);
      ("cache",
       [ Alcotest.test_case "stats deterministic around reset" `Quick
           cache_stats_deterministic;
         Alcotest.test_case "seeding counts and serves hits" `Quick
           seed_counts_in_stats;
         Alcotest.test_case "stats never negative after a registry reset"
           `Quick cache_stats_after_registry_reset ]);
      ("histograms",
       [ Alcotest.test_case "bucket boundaries well formed" `Quick
           boundaries_well_formed;
         prop hist_exactness;
         prop hist_percentile_bounds;
         Alcotest.test_case "negative samples clamp to 0" `Quick
           hist_clamps_negative;
         Alcotest.test_case "empty percentile is 0" `Quick
           hist_empty_percentile;
         Alcotest.test_case "sinks-off record cost" `Quick
           record_cost_comparable;
         Alcotest.test_case "snapshot + JSON export" `Quick
           hist_snapshot_and_json ]);
      ("clock",
       [ Alcotest.test_case "backwards wall clock cannot go negative"
           `Quick clock_never_negative ]);
      ("flightrec",
       [ Alcotest.test_case "bounded ring evicts oldest" `Quick
           flightrec_ring;
         Alcotest.test_case "JSON round-trips" `Quick
           flightrec_json_round_trip;
         Alcotest.test_case "slow threshold knob" `Quick
           flightrec_slow_threshold;
         Alcotest.test_case "render limit keeps newest" `Quick
           flightrec_render_limit;
         Alcotest.test_case "one session's ring covers every kind" `Quick
           flightrec_covers_every_kind ]);
      ("trace",
       [ Alcotest.test_case "chrome export round-trips" `Quick
           trace_round_trip;
         Alcotest.test_case "clear_events empties the ring" `Quick
           ring_clears;
         Alcotest.test_case "otherData carries ring health" `Quick
           trace_other_data_health;
         Alcotest.test_case "metrics_report surfaces everything" `Quick
           metrics_report_surfaces;
         Alcotest.test_case "explain analyze: one event per node" `Quick
           explain_analyze_nodes_in_trace;
         Alcotest.test_case "interleaved threads break nesting" `Quick
           interleaved_threads_flagged;
         Alcotest.test_case "flightrec clear empties the trace" `Quick
           flightrec_clear_empties_trace ]);
      ("labels",
       [ Alcotest.test_case "normalization of the session stamp" `Quick
           labels_normalize;
         Alcotest.test_case "ambient labels reach engine.apply" `Quick
           ambient_labels_flow_to_engine ]);
      ("slo",
       [ Alcotest.test_case "latency and rate verdicts" `Quick
           slo_latency_and_rate;
         Alcotest.test_case "unit comes from the target, not the series"
           `Quick slo_unit_from_def;
         Alcotest.test_case "shipped defaults declared" `Quick
           slo_defaults_present ]);
      ("ordering",
       [ Alcotest.test_case "series sorted by name" `Quick
           series_ordering_pinned ]);
      ("profile",
       [ Alcotest.test_case "region lifecycle and notes" `Quick
           profile_region_basic;
         Alcotest.test_case "bounded ring with drop counter" `Quick
           profile_ring_bounded;
         Alcotest.test_case "disabled collection is inert" `Quick
           profile_disabled_inert;
         Alcotest.test_case "JSON round-trips, parser total" `Quick
           profile_json_round_trip;
         Alcotest.test_case "chrome trace draws each record" `Quick
           profile_in_chrome_trace ]);
      ("gc",
       [ Alcotest.test_case "gauges sampled on export" `Quick
           gc_gauges_sampled ]);
      ("json",
       [ Alcotest.test_case "value round-trips" `Quick
           json_round_trip_values;
         Alcotest.test_case "totality and escapes" `Quick
           json_parse_errors ]) ]
