(* Pure pieces of the SheetMusiq benchmark: the percentile rule, the
   host-speed scaling, the seeded request streams of the two workloads,
   and the metric
   catalogue. Nothing here does I/O or reads a clock, so
   test_bench_core.ml can pin each piece down. *)

module Rng = Sheet_stats.Rng
module Tasks = Sheet_tpch.Tpch_tasks

(* ---- percentiles ---- *)

(* Nearest rank: the ceil(phi * n)-th smallest of n samples, so every
   reported percentile is a latency some request actually had. *)
let percentile sorted phi =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = int_of_float (Float.ceil (phi *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_samples l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* p-th percentile of a sample list, 0 for an empty one (a layer the
   workload never enters) *)
let pct l phi = if l = [] then 0. else percentile (sorted_samples l) phi
let median l = pct l 0.5

(* A run is cut into parts: equal time slices, or the passes over one
   task. Each part yields a time and the calmest (lower) quartile of
   the parts is reported. Load from outside the benchmark only ever
   slows a part, so this reads the program's own speed, while a change
   that slows the program slows every part and still shows. *)
let slices ~k ~t0 ~t1 samples =
  let width = (t1 -. t0) /. float_of_int k in
  let buckets = Array.make k [] in
  List.iter
    (fun (t, v) ->
      let i = int_of_float ((t -. t0) /. width) in
      let i = max 0 (min (k - 1) i) in
      buckets.(i) <- v :: buckets.(i))
    samples;
  Array.to_list buckets

let calm values = pct values 0.25

let calm_over groups f =
  calm (List.filter_map (fun g -> if g = [] then None else Some (f g)) groups)

(* Host speed. A fixed calibration kernel is timed beside the work
   (see sheetbench.ml), and a time measured while the kernel took [cal]
   ms is reported as it would read on a host where the kernel takes
   [nominal_cal_ms]. *)
let nominal_cal_ms = 20.
let scale ~cal x = x *. nominal_cal_ms /. cal

(* [slices] of [samples], each scaled by the median of the calibrations
   ([cals], as (time, ms)) that fell in its slice, or by the median of
   all of them in a slice that has none. *)
let scaled_slices ~k ~t0 ~t1 ~cals samples =
  let all = median (List.map snd cals) in
  List.map2
    (fun c group -> List.map (scale ~cal:(if c = [] then all else median c)) group)
    (slices ~k ~t0 ~t1 cals) (slices ~k ~t0 ~t1 samples)

(* ---- names ---- *)

let valid_name s =
  let ok = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  s <> "" && String.length s <= 64 && String.for_all ok s
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)

(* The workloads BENCHMARK.json guards. *)
let workloads = [ "explore"; "theorem1" ]

(* Reported with tracing off. "op" is one unit of user-visible work:
   a state-changing gesture (explore) or one verified Theorem-1 task
   (theorem1). "view" is a redisplay: [print 20] (explore), the task's
   scripted sheet result (theorem1). *)
let end_to_end =
  [
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("view_p50_ms", "ms");
    ("view_p90_ms", "ms");
    ("throughput_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Gesture kinds with their own server-side latency series. *)
let gesture_kinds =
  [
    "select"; "group"; "agg"; "formula"; "order"; "hide"; "undo"; "replace";
    "print";
  ]

(* Reported by the traced run. A layer a workload never enters reads
   0 there (see README.md for the workload-to-layer map). *)
let per_layer =
  [
    ("net.wait_ms.gesture_p50", "ms");
    ("net.wait_ms.view_p50", "ms");
    ("protocol.encode_ms.view", "ms");
    ("protocol.decode_ms.view", "ms");
    ("protocol.bytes.view", "bytes");
    ("protocol.decode_us.request", "us");
    ("server.handle_ms.gesture_p50", "ms");
    ("server.handle_ms.view_p50", "ms");
  ]
  @ List.map (fun k -> ("server.handle_ms." ^ k, "ms")) gesture_kinds
  @ [
      ("server.busy_rejections", "count");
      ("engine.apply_us.p50", "us");
      ("engine.ops", "count");
      ("engine.errors", "count");
      ("incremental.derive_share", "share");
      ("incremental.derive_ms.p50", "ms");
      ("cache.hit_share", "share");
      ("cache.subsumed_share", "share");
      ("cache.evictions", "count");
      ("materialize.full_replays", "count");
      ("materialize.full_ms.p50", "ms");
      ("render.page_ms.p50", "ms");
      ("plan.rows_in_per_out", "ratio");
      ("columnar.sel_rows_in", "count");
      ("columnar.sel_rows_out", "count");
      ("par.scans", "count");
      ("par.morsels", "count");
      ("sql.parse_ms", "ms");
      ("sql.run_ms", "ms");
      ("sql.translate_ms", "ms");
      ("sheet.execute_ms", "ms");
      ("sheet.script_ms", "ms");
      ("gc.alloc_mb.per_session", "MB");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("trace.overhead_share", "share");
    ]

(* ---- request streams ---- *)

let mix ~seed n = (seed * 1_000_003) + n

(* The first word of a script line: its gesture kind. *)
let kind_of_line line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

(* explore: an ad-hoc exploration of v_lineitem_orders with random
   constants, so sessions share little and the materialization cache
   mostly misses. The three range selections come first, in a random
   order, then the presentation gestures in a random order. Each range
   is a band of fixed width at a random place, so every session keeps
   about the same share of the rows at each step and a run's cost does
   not hinge on a few wide sessions. The closing [replace] moves the
   quantity band (query modification, Sec. V); the mistaken selection
   is undone at once, so selection ids stay put. Every gesture is
   followed by a page view. *)
let explore_base = "v_lineitem_orders"
let explore_view = "print 20"

let explore_gestures ~seed ~session =
  let rng = Rng.create (mix ~seed session) in
  let dir () = if Rng.bool rng then "asc" else "desc" in
  (* half of the quantities 1..50 *)
  let qty_band () =
    let lo = Rng.int_in rng 1 26 in
    Printf.sprintf "l_quantity >= %d AND l_quantity <= %d" lo (lo + 24)
  in
  let qty = qty_band () in
  let price =
    let lo = 1000 * Rng.int_in rng 0 100 in
    Printf.sprintf "select o_totalprice >= %d AND o_totalprice < %d" lo
      (lo + 150_000)
  in
  (* three of the six and a half years of ship dates *)
  let since =
    let y = Rng.int_in rng 1992 1995 in
    let m = Rng.int_in rng 1 12 in
    let d = Rng.int_in rng 1 28 in
    Printf.sprintf
      "select l_shipdate >= DATE '%d-%02d-%02d' AND l_shipdate < DATE \
       '%d-%02d-%02d'"
      y m d (y + 3) m d
  in
  let order_col =
    Rng.pick rng [| "l_extendedprice"; "l_shipdate"; "o_totalprice" |]
  in
  let order_dir = dir () in
  let hidden = Rng.pick rng [| "l_linestatus"; "l_receiptdate"; "l_linenumber" |] in
  let group_col =
    Rng.pick rng [| "c_mktsegment"; "l_shipmode"; "o_orderpriority" |]
  in
  let group_dir = dir () in
  let agg =
    Rng.pick rng
      [|
        "agg sum l_quantity as tot_qty";
        "agg avg l_extendedprice as avg_price";
        "agg count as n_lines";
      |]
  in
  let mistake = Rng.int_in rng 1 9 in
  let selections = Rng.shuffle rng [ "select " ^ qty; price; since ] in
  let presentation =
    Rng.shuffle rng
      [
        [ "formula revenue = l_extendedprice * (1 - l_discount)" ];
        [ Printf.sprintf "order %s %s" order_col order_dir ];
        [ "hide " ^ hidden ];
        [ Printf.sprintf "group %s %s" group_col group_dir; agg ];
        [ Printf.sprintf "select l_discount >= 0.0%d" mistake; "undo" ];
      ]
  in
  (* selection ids count from 1 in creation order *)
  let rec position i = function
    | [] -> invalid_arg "explore_gestures: no quantity band"
    | s :: rest -> if s = "select " ^ qty then i else position (i + 1) rest
  in
  let qty' = qty_band () in
  selections @ List.concat presentation
  @ [ Printf.sprintf "replace %d %s" (position 1 selections) qty' ]

(* Sheet states one explore session creates: the opened sheet and one
   per gesture but [undo], which returns to an earlier state. Every
   session has the same shape, so this does not depend on the seed. *)
let explore_states_per_session =
  1
  + List.length
      (List.filter (( <> ) "undo") (explore_gestures ~seed:1 ~session:0))

let explore_session ~seed ~session =
  List.concat_map
    (fun g -> [ g; explore_view ])
    (explore_gestures ~seed ~session)

(* theorem1: every pass verifies all tasks, in a seeded order. *)
let theorem1_tasks = Tasks.all @ Tasks.extensions

let theorem1_pass ~seed ~pass =
  Rng.shuffle (Rng.create (mix ~seed pass)) theorem1_tasks
