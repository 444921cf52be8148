(* Sheetscope: a metrics registry, labeled per-session series, SLO
   evaluation, and one tape — the profile ring — that spans, events
   and per-query records all commit into, and that the Chrome trace
   is drawn from.

   The metric families survive concurrent writers from any thread or
   domain: a counter or gauge is one atomic cell, a histogram one
   record of atomic cells, and the ring is mutex-protected. The off-sink fast
   path of [with_span] is a single mutable-bool test so instrumented
   code costs nothing when nobody is watching (property-tested
   byte-identical). *)

let src = Logs.Src.create "sheetscope" ~doc:"SheetMusiq instrumentation"

let with_lock m f = Mutex.protect m f

(* atomic max via CAS loop *)
let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

(* ---------- clock ----------

   The wall clock can step backwards (NTP slew, VM migration); a span
   or histogram sample must never report a negative duration. Readings
   are clamped into a monotone timeline: [now_ns] never decreases
   within a process — the watermark is atomic so the guarantee holds
   across domains too. The raw source is swappable so tests can drive
   time backwards and check the clamp. *)

let wall_clock_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let raw_clock = ref wall_clock_ns
let last_ns = Atomic.make 0

let rec now_ns () =
  let t = !raw_clock () in
  let cur = Atomic.get last_ns in
  if t > cur then
    if Atomic.compare_and_set last_ns cur t then t else now_ns ()
  else cur

let set_raw_clock_for_tests = function
  | Some f -> raw_clock := f
  | None ->
      raw_clock := wall_clock_ns;
      (* re-anchor so a test clock set far in the future does not pin
         the timeline there *)
      Atomic.set last_ns (wall_clock_ns ())

let epoch_ns = now_ns ()

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, float_of_int (now_ns () - t0) /. 1e6)

(* ---------- sinks ---------- *)

type sink = Off | Logs | Memory

let current_sink = ref Off

let sink () = !current_sink
let set_sink s = current_sink := s

(* ---------- labels ----------

   A bounded extra dimension on counters and histograms: a labeled
   series is a full registry entry named [base ^ "{k=v,...}"], so
   snapshots, JSON export and SLO evaluation see per-session /
   per-task series with no new machinery. Cardinality is capped per
   base name; past the cap every new label set lands in one shared
   "{__overflow__}" series, so a hostile or buggy labeler can create
   at most cap + 1 entries per family. *)

module Labels = struct
  type t = (string * string) list  (* sorted by key, deduped *)

  let empty = []
  let is_empty l = l = []

  (* keys/values are embedded in series names: strip the four
     characters that would make the encoding ambiguous *)
  let sanitize s =
    String.map (function '{' | '}' | ',' | '=' -> '_' | c -> c) s

  let v pairs =
    List.fold_left
      (fun acc (k, value) ->
        let k = sanitize k and value = sanitize value in
        (k, value) :: List.remove_assoc k acc)
      [] pairs
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let to_string = function
    | [] -> ""
    | ls ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, value) -> k ^ "=" ^ value) ls)
        ^ "}"
end

let overflow_suffix = "{__overflow__}"

let series_base name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Deterministic registry order: sort by (family base, label suffix)
   so a base series is immediately followed by its labeled variants.
   Raw byte order would tear families apart — '{' (0x7b) sorts after
   every letter, so "engine.apply{...}" would land after
   "engine.apply.filter". Gate and doctor output diff stably because
   every snapshot/render/JSON export goes through this order. *)
let series_order a b =
  match String.compare (series_base a) (series_base b) with
  | 0 -> String.compare a b
  | c -> c

let label_cap = 64

(* one mutex guards both registries and the per-family label counts *)
let reg_mutex = Mutex.create ()

(* admitted label sets per histogram family (base name) *)
let label_sets : (string, int) Hashtbl.t = Hashtbl.create 16

(* Resolve the registry key for [name]+[labels]: an existing labeled
   series, a fresh one while the family is under the cap, or the
   overflow series. Caller holds [reg_mutex]; [mem] answers "is this
   key already registered". *)
let labeled_key ~mem name labels =
  if Labels.is_empty labels then name
  else
    let key = name ^ Labels.to_string labels in
    if mem key then key
    else
      let admitted =
        Option.value (Hashtbl.find_opt label_sets name) ~default:0
      in
      if admitted < label_cap then begin
        Hashtbl.replace label_sets name (admitted + 1);
        key
      end
      else name ^ overflow_suffix

(* Ambient labels: the session identity the shells stamp on hot-path
   series (engine.apply, sql.run). Single-writer: Sheetserve sets it
   only on its loop thread. *)
let ambient = ref Labels.empty
let set_ambient_labels ls = ambient := ls
let ambient_labels () = !ambient

(* A reader shown one session's view ([?session], an ambient label
   string) sees the unlabeled series and that session's own, and no
   other session's. *)
let visible_to ?session name =
  match session with
  | None -> true
  | Some s -> (
      match String.index_opt name '{' with
      | None -> true
      | Some i -> String.sub name i (String.length name - i) = s)

(* The two registries intern by name; [find_locked] runs under
   [reg_mutex], and [sorted] lists entries in [series_order]. *)
let find_locked registry make name =
  match Hashtbl.find_opt registry name with
  | Some x -> x
  | None ->
      let x = make name in
      Hashtbl.replace registry name x;
      x

let sorted registry name_of =
  with_lock reg_mutex (fun () ->
      Hashtbl.fold (fun _ x acc -> x :: acc) registry [])
  |> List.sort (fun a b -> series_order (name_of a) (name_of b))

(* ---------- metrics ---------- *)

module Metrics = struct
  type m = { m_name : string; cell : int Atomic.t }

  let registry : (string, m) Hashtbl.t = Hashtbl.create 64
  let make name = { m_name = name; cell = Atomic.make 0 }

  (* a counter and a gauge differ only in how they are written
     ([incr] vs [set]) *)
  let counter name =
    with_lock reg_mutex (fun () -> find_locked registry make name)

  let gauge = counter

  let incr ?(by = 1) m = ignore (Atomic.fetch_and_add m.cell by)
  let set m v = Atomic.set m.cell v
  let get m = Atomic.get m.cell

  let value_of name =
    match with_lock reg_mutex (fun () -> Hashtbl.find_opt registry name) with
    | Some m -> get m
    | None -> 0

  let entries () = sorted registry (fun m -> m.m_name)

  let snapshot () = List.map (fun m -> (m.m_name, get m)) (entries ())

  let reset () = List.iter (fun m -> Atomic.set m.cell 0) (entries ())

  let to_json () =
    Obs_json.Obj
      (List.map (fun (name, v) -> (name, Obs_json.Int v)) (snapshot ()))

  let render ?session () =
    let snap =
      List.filter (fun (name, _) -> visible_to ?session name) (snapshot ())
    in
    if snap = [] then "(no metrics recorded)"
    else
      String.concat "\n"
        (List.map (fun (name, v) -> Printf.sprintf "%-32s %10d" name v) snap)
end

(* ---------- latency histograms ----------

   Third metric family (DESIGN.md §8): log-bucketed latency
   histograms. Bucket boundaries are fixed — four per decade from
   100 ns to 10 s — so recording is O(1) (a binary search over 33
   ints), histograms of the same shape merge by adding bucket counts,
   and two processes' histograms are comparable. Count and sum are
   exact; p50/p90/p99 are bucket estimates (linear interpolation
   inside the bucket holding the rank, never above the observed max);
   max is exact. Like counters — and unlike spans — histograms always
   record, sink or no sink, and from any thread or domain: every cell
   update is atomic, so concurrent totals equal a single-writer run
   exactly. *)

module Histogram = struct
  (* 100 ns * 10^(i/4) for i = 0..32: 100 ns, 178 ns, 316 ns, 562 ns,
     1 us, ... 10 s. Bucket i covers (boundaries[i-1], boundaries[i]]
     (bucket 0 starts at 0); one extra bucket catches > 10 s. *)
  let boundaries =
    Array.init 33 (fun i ->
        int_of_float (Float.round (1e2 *. (10. ** (float_of_int i /. 4.)))))

  let num_buckets = Array.length boundaries + 1

  type h = {
    h_name : string;
    h_counts : int Atomic.t array;
    h_count : int Atomic.t;
    h_sum : int Atomic.t;
    h_max : int Atomic.t;
  }

  let make name =
    { h_name = name;
      h_counts = Array.init num_buckets (fun _ -> Atomic.make 0);
      h_count = Atomic.make 0;
      h_sum = Atomic.make 0;
      h_max = Atomic.make 0 }

  let registry : (string, h) Hashtbl.t = Hashtbl.create 32

  let histogram name =
    with_lock reg_mutex (fun () -> find_locked registry make name)

  let histogram_labeled name labels =
    with_lock reg_mutex (fun () ->
        find_locked registry make
          (labeled_key ~mem:(Hashtbl.mem registry) name labels))

  (* smallest i with v <= boundaries.(i); the overflow bucket past the
     last boundary *)
  let bucket_index v =
    let n = Array.length boundaries in
    if v <= boundaries.(0) then 0
    else if v > boundaries.(n - 1) then n
    else begin
      let lo = ref 1 and hi = ref (n - 1) in
      while !hi > !lo do
        let mid = (!lo + !hi) / 2 in
        if v <= boundaries.(mid) then hi := mid else lo := mid + 1
      done;
      !hi
    end

  (* inclusive upper edge of a bucket; [max_int] for the overflow *)
  let bucket_hi i =
    if i < Array.length boundaries then boundaries.(i) else max_int

  (* exclusive lower edge (0 for the first bucket) *)
  let bucket_lo i = if i = 0 then 0 else boundaries.(i - 1)

  (* a bucket is bumped before the count, and [counts] reads the
     count before the buckets, so a snapshot's buckets always hold at
     least its count — the percentile walk stays in range even under
     concurrent writers *)
  let record h ns =
    let ns = if ns < 0 then 0 else ns in
    ignore (Atomic.fetch_and_add h.h_counts.(bucket_index ns) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum ns);
    atomic_max h.h_max ns

  (* the count and a plain copy of the buckets, read in that order *)
  let counts h =
    let n = Atomic.get h.h_count in
    (n, Array.map Atomic.get h.h_counts)

  let count h = Atomic.get h.h_count

  (* Estimate the [phi]-quantile (0 < phi <= 1): locate the bucket
     holding the ceil(phi*count)-th smallest sample, interpolate
     linearly inside it, and never exceed the exact max. *)
  let percentile_of (n, counts) ~max_ns phi =
    if n = 0 then 0.
    else begin
      let rank =
        max 1 (min n (int_of_float (ceil (phi *. float_of_int n))))
      in
      let i = ref 0 and before = ref 0 in
      while !before + counts.(!i) < rank do
        before := !before + counts.(!i);
        incr i
      done;
      let lo = float_of_int (bucket_lo !i) in
      let hi = Float.max (float_of_int (min (bucket_hi !i) max_ns)) lo in
      let in_bucket = float_of_int counts.(!i) in
      lo +. ((hi -. lo) *. float_of_int (rank - !before) /. in_bucket)
    end

  let percentile h phi =
    percentile_of (counts h) ~max_ns:(Atomic.get h.h_max) phi

  type snapshot = {
    s_name : string;
    s_count : int;
    s_sum_ns : int;
    s_max_ns : int;
    s_p50_ns : float;
    s_p90_ns : float;
    s_p99_ns : float;
    s_buckets : (int * int) list;  (* (inclusive upper edge, count), nonzero only *)
  }

  let snapshot_of h =
    let ((n, counts) as t) = counts h in
    let max_ns = Atomic.get h.h_max in
    { s_name = h.h_name;
      s_count = n;
      s_sum_ns = Atomic.get h.h_sum;
      s_max_ns = max_ns;
      s_p50_ns = percentile_of t ~max_ns 0.50;
      s_p90_ns = percentile_of t ~max_ns 0.90;
      s_p99_ns = percentile_of t ~max_ns 0.99;
      s_buckets =
        List.filter_map
          (fun i ->
            if counts.(i) = 0 then None else Some (bucket_hi i, counts.(i)))
          (List.init num_buckets Fun.id) }

  let entries () = sorted registry (fun h -> h.h_name)

  let snapshots () = List.map snapshot_of (entries ())

  let counts_snapshot () = List.map (fun h -> (h.h_name, count h)) (entries ())

  (* every registered series of one family: the base histogram plus
     its labeled variants, sorted by name — what SLO evaluation walks *)
  let series_of_base base =
    List.filter (fun h -> series_base h.h_name = base) (entries ())

  let reset () =
    List.iter
      (fun h ->
        Array.iter (fun c -> Atomic.set c 0) h.h_counts;
        Atomic.set h.h_count 0;
        Atomic.set h.h_sum 0;
        Atomic.set h.h_max 0)
      (entries ())

  let json_of_snapshot s =
    Obs_json.Obj
      [ ("count", Obs_json.Int s.s_count);
        ("sum_ns", Obs_json.Int s.s_sum_ns);
        ("max_ns", Obs_json.Int s.s_max_ns);
        ("p50_ns", Obs_json.Float s.s_p50_ns);
        ("p90_ns", Obs_json.Float s.s_p90_ns);
        ("p99_ns", Obs_json.Float s.s_p99_ns);
        ("buckets",
         Obs_json.List
           (List.map
              (fun (le, n) ->
                Obs_json.List [ Obs_json.Int le; Obs_json.Int n ])
              s.s_buckets)) ]

  let to_json () =
    Obs_json.Obj
      (List.map (fun s -> (s.s_name, json_of_snapshot s)) (snapshots ()))

  let pp_ns f =
    if f >= 1e9 then Printf.sprintf "%7.2f s " (f /. 1e9)
    else if f >= 1e6 then Printf.sprintf "%7.2f ms" (f /. 1e6)
    else if f >= 1e3 then Printf.sprintf "%7.2f us" (f /. 1e3)
    else Printf.sprintf "%7.0f ns" f

  let render ?session () =
    let snaps =
      List.filter (fun s -> visible_to ?session s.s_name) (snapshots ())
    in
    if snaps = [] then "(no histograms recorded)"
    else
      String.concat "\n"
        (Printf.sprintf "%-28s %8s  %10s %10s %10s %10s" "histogram" "count"
           "p50" "p90" "p99" "max"
        :: List.map
             (fun s ->
               Printf.sprintf "%-28s %8d  %10s %10s %10s %10s" s.s_name
                 s.s_count (pp_ns s.s_p50_ns) (pp_ns s.s_p90_ns)
                 (pp_ns s.s_p99_ns)
                 (pp_ns (float_of_int s.s_max_ns)))
             snaps)
end

(* Well-known metric names: registered up front so a snapshot always
   carries the full record, zeros included. *)
let k_engine_ops = "engine.ops"
let k_engine_errors = "engine.errors"
let k_cache_requests = "materialize.cache_requests"
let k_cache_hits = "materialize.cache_hits"
let k_cache_hits_subsumed = "materialize.cache_hits_subsumed"
let k_cache_misses = "materialize.cache_misses"
let k_cache_evictions = "materialize.cache_evictions"
let k_cache_seeds = "materialize.cache_seeds"
let k_full_replays = "materialize.full_replays"
let k_incremental_derivations = "incremental.derivations"
let k_incremental_fallbacks = "incremental.full_fallbacks"
let k_plan_nodes = "plan.nodes_executed"
let k_plan_rows_in = "plan.rows_in"
let k_plan_rows_out = "plan.rows_out"
let k_undo_depth = "session.undo_depth"
let k_redo_depth = "session.redo_depth"
let k_sql_translations = "sql.translations"
let k_sql_inverse_translations = "sql.inverse_translations"
let k_sql_executions = "sql.executions"

(* Sheetcol names, counters fed by the columnar scan driver. The two
   [par.*] names are not registered and nothing feeds them: scans run
   in one pass on the calling domain, and the names stay only for
   readers that still ask for them (they read 0). *)
let k_par_morsels = "par.morsels"
let k_par_scans = "par.scans"
let k_col_columns = "columnar.columns_materialized"
let k_col_dict_entries = "columnar.dict_entries"
let k_col_sel_rows_in = "columnar.sel_rows_in"
let k_col_sel_rows_out = "columnar.sel_rows_out"

(* Runtime telemetry: GC gauges sampled on every metrics/trace export,
   so an export carries the collector's view of the workload that
   produced it. *)
let k_gc_minor = "gc.minor_collections"
let k_gc_major = "gc.major_collections"
let k_gc_promoted = "gc.promoted_words"
let k_gc_heap = "gc.heap_words"

(* Well-known histogram names. [h_engine_apply] counts every
   [Engine.apply] (per-kind series ride alongside under
   "engine.apply.<kind>", per-session ones under
   "engine.apply{session=...}"); the plan executor records one
   sample per plan node under "plan.node.<kind>". *)
let h_engine_apply = "engine.apply"
let h_materialize_full = "materialize.full"
let h_incremental_derive = "incremental.derive"
let h_plan_node_prefix = "plan.node."
let h_sql_run = "sql.run"

let () =
  List.iter
    (fun k -> ignore (Metrics.counter k))
    [ k_engine_ops; k_engine_errors; k_cache_requests; k_cache_hits;
      k_cache_hits_subsumed; k_cache_misses;
      k_cache_evictions; k_cache_seeds; k_full_replays;
      k_incremental_derivations; k_incremental_fallbacks; k_plan_nodes;
      k_plan_rows_in; k_plan_rows_out; k_sql_translations;
      k_sql_inverse_translations; k_sql_executions; k_col_columns;
      k_col_dict_entries; k_col_sel_rows_in; k_col_sel_rows_out ];
  List.iter
    (fun k -> ignore (Metrics.gauge k))
    [ k_undo_depth; k_redo_depth; k_gc_minor; k_gc_major; k_gc_promoted;
      k_gc_heap ];
  List.iter
    (fun k -> ignore (Histogram.histogram k))
    [ h_engine_apply; h_materialize_full; h_incremental_derive; h_sql_run ];
  List.iter
    (fun kind -> ignore (Histogram.histogram (h_plan_node_prefix ^ kind)))
    [ "scan"; "project"; "filter"; "distinct"; "extend"; "extend-agg";
      "sort" ]

let g_gc_minor = Metrics.gauge k_gc_minor
let g_gc_major = Metrics.gauge k_gc_major
let g_gc_promoted = Metrics.gauge k_gc_promoted
let g_gc_heap = Metrics.gauge k_gc_heap

let sample_gc_gauges () =
  let s = Gc.quick_stat () in
  Metrics.set g_gc_minor s.Gc.minor_collections;
  Metrics.set g_gc_major s.Gc.major_collections;
  Metrics.set g_gc_promoted (int_of_float s.Gc.promoted_words);
  Metrics.set g_gc_heap s.Gc.heap_words

(* ---------- the profile ring (Sheetdoctor, flight recorder, traces) ----------

   The one bounded tape of what ran. A materialization region commits
   one record — the execution black box for one query: which cache
   outcome answered it (exact / subsumed / miss / seed), full replay
   vs incremental derivation, a node-by-node breakdown with start,
   wall time, row counts and allocation deltas, and *path
   attribution*: which filter predicates ran as compiled selection
   vectors and which fell back to the row path (naming the non-total
   subtree), and how many rows entered and left the selection
   vectors. Session and engine events (ops applied and rejected,
   undo/redo, evictions, SQL translations) commit node-less records
   into the same ring, and so does every span while the sink is on,
   so the flight recorder and the Chrome trace are views over it.

   A record with a duration covers [p_at_ns - p_total_ns, p_at_ns];
   both come from the same two clock readings, so containment between
   records is exact and {!well_nested} can demand it.

   Always on (a record is a few small allocations), bounded with a
   drop counter. The region stack is single-writer — only the
   session's driving thread enters/commits regions and notes
   attribution; the counter deltas a region records are snapshotted
   at its boundaries. Event and span commits take only the ring lock
   and are safe from any thread. *)

module Profile = struct
  type node = {
    n_kind : string;
    n_label : string;
    n_rows_in : int;  (* -1 when unknown *)
    n_rows_out : int;  (* -1 when unknown *)
    n_start_ns : int;  (* relative to process start *)
    n_time_ns : int;
    n_alloc_bytes : float;
    n_path : string;  (* "" | "columnar" | "row" | "batch" *)
    n_detail : string;
  }

  type t = {
    p_session : string;  (* ambient labels at commit, "" when none *)
    p_at_ns : int;  (* commit time, relative to process start *)
    p_uid : int;  (* 0 when no sheet is involved *)
    p_kind : string;
        (* "materialize" | "incremental" | "plan" | an event kind | a
           span name *)
    p_label : string;  (* for a span, its kind *)
    p_rows_out : int;  (* -1 when the region failed, or unknown *)
    p_total_ns : int;  (* -1 for an event of unknown duration *)
    p_alloc_bytes : float;
    p_cache : string;  (* "exact" | "subsumed" | "miss" | "seed" | "" *)
    p_strategy : string;  (* "full-replay" | "incremental" | "" *)
    p_sel_rows_in : int;
    p_sel_rows_out : int;
    p_compiled : string list;
    p_fallbacks : (string * string) list;  (* (predicate, reason) *)
    p_nodes : node list;
  }

  let capacity = ref 512
  let set_capacity n = capacity := max 1 n
  let ring : t Queue.t = Queue.create ()
  let dropped_records = ref 0
  let pr_mutex = Mutex.create ()

  (* collection can be switched off entirely (the overhead bench
     measures the difference); regions entered while disabled record
     nothing even if re-enabled before they commit *)
  let enabled_flag = ref true
  let enabled () = !enabled_flag
  let set_enabled b = enabled_flag := b

  type pending = {
    pd_uid : int;
    pd_kind : string;
    pd_t0 : int;
    pd_alloc0 : float;
    pd_sel_in0 : int;
    pd_sel_out0 : int;
    mutable pd_label : string;
    mutable pd_cache : string;
    mutable pd_strategy : string;
    mutable pd_compiled : string list;  (* reversed *)
    mutable pd_fallbacks : (string * string) list;  (* reversed *)
    mutable pd_nodes : node list;  (* reversed *)
  }

  (* [Nested]: a same-uid re-entry (e.g. [Materialize.full] inside a
     [full_cached] miss) — its notes flow to the enclosing region so
     one query yields one record, not two. *)
  type slot = Disabled | Nested | Region of pending

  let stack : slot list ref = ref []

  let c_sel_in = Metrics.counter k_col_sel_rows_in
  let c_sel_out = Metrics.counter k_col_sel_rows_out

  let rec find_region = function
    | [] -> None
    | Region p :: _ -> Some p
    | (Disabled | Nested) :: rest -> find_region rest

  let in_region () =
    match find_region !stack with Some _ -> true | None -> false

  let open_regions () = List.length !stack
  let reset_stack_for_tests () = stack := []

  let slow_ns = 100_000_000

  (* one flight-recorder line: what the [Logs] sink prints per record
     and {!render} lists *)
  let render_line r =
    let part cond s = if cond then s else "" in
    String.concat "  "
      (List.filter
         (fun s -> s <> "")
         [ Printf.sprintf "%10.3f s" (float_of_int r.p_at_ns /. 1e9);
           Printf.sprintf "%-13s" r.p_kind;
           r.p_label;
           part (r.p_cache <> "") ("cache=" ^ r.p_cache);
           part (r.p_uid <> 0) (Printf.sprintf "[sheet #%d]" r.p_uid);
           part (r.p_total_ns >= 0)
             (Printf.sprintf "(%.3f ms)" (float_of_int r.p_total_ns /. 1e6));
           part (r.p_total_ns >= slow_ns) "slow" ])

  (* The [Logs] sink prints outside the ring lock: a reporter may
     yield to another thread, which may commit a record of its own. *)
  let push_record r =
    with_lock pr_mutex (fun () ->
        if Queue.length ring >= !capacity then begin
          ignore (Queue.pop ring);
          incr dropped_records
        end;
        Queue.push r ring);
    if !current_sink = Logs then
      Logs.app ~src (fun m -> m "%s" (render_line r))

  (* a record's end and duration come from the same clock readings *)
  let event ~kind ?(uid = 0) ?since ?(rows_out = -1) label =
    if !enabled_flag then begin
      let t1 = now_ns () in
      push_record
        { p_session = Labels.to_string (ambient_labels ());
          p_at_ns = t1 - epoch_ns;
          p_uid = uid;
          p_kind = kind;
          p_label = label;
          p_rows_out = rows_out;
          p_total_ns = (match since with Some t0 -> t1 - t0 | None -> -1);
          p_alloc_bytes = 0.;
          p_cache = "";
          p_strategy = "";
          p_sel_rows_in = 0;
          p_sel_rows_out = 0;
          p_compiled = [];
          p_fallbacks = [];
          p_nodes = [] }
    end

  let enter ~kind ~uid =
    let slot =
      if not !enabled_flag then Disabled
      else if
        uid <> 0
        && List.exists
             (function Region p -> p.pd_uid = uid | _ -> false)
             !stack
      then Nested
      else
        Region
          { pd_uid = uid;
            pd_kind = kind;
            pd_t0 = now_ns ();
            pd_alloc0 = Gc.allocated_bytes ();
            pd_sel_in0 = Metrics.get c_sel_in;
            pd_sel_out0 = Metrics.get c_sel_out;
            pd_label = "";
            pd_cache = "";
            pd_strategy = "";
            pd_compiled = [];
            pd_fallbacks = [];
            pd_nodes = [] }
    in
    stack := slot :: !stack

  let commit ~rows_out =
    match !stack with
    | [] -> ()  (* unbalanced commit: tolerated *)
    | slot :: rest -> (
        stack := rest;
        match slot with
        | Disabled | Nested -> ()
        | Region p ->
            let t1 = now_ns () in
            push_record
              { p_session = Labels.to_string (ambient_labels ());
                p_at_ns = t1 - epoch_ns;
                p_uid = p.pd_uid;
                p_kind = p.pd_kind;
                p_label = p.pd_label;
                p_rows_out = rows_out;
                p_total_ns = t1 - p.pd_t0;
                p_alloc_bytes =
                  Float.max 0. (Gc.allocated_bytes () -. p.pd_alloc0);
                p_cache = p.pd_cache;
                p_strategy = p.pd_strategy;
                p_sel_rows_in = Metrics.get c_sel_in - p.pd_sel_in0;
                p_sel_rows_out = Metrics.get c_sel_out - p.pd_sel_out0;
                p_compiled = List.rev p.pd_compiled;
                p_fallbacks = List.rev p.pd_fallbacks;
                p_nodes = List.rev p.pd_nodes })

  let region ~kind ~uid ~rows_out f =
    enter ~kind ~uid;
    match f () with
    | x ->
        commit ~rows_out:(rows_out x);
        x
    | exception e ->
        commit ~rows_out:(-1);
        raise e

  let note f = match find_region !stack with None -> () | Some p -> f p

  let note_cache ?label outcome =
    note (fun p ->
        p.pd_cache <- outcome;
        Option.iter (fun l -> p.pd_label <- l) label)

  let note_strategy s = note (fun p -> p.pd_strategy <- s)

  let note_compiled pred =
    note (fun p -> p.pd_compiled <- pred :: p.pd_compiled)

  let note_fallback ~pred ~reason =
    note (fun p -> p.pd_fallbacks <- (pred, reason) :: p.pd_fallbacks)

  let note_node ?(rows_in = -1) ?(rows_out = -1) ?(path = "") ?(detail = "")
      ~kind ~label ~start_ns ~time_ns ~alloc_bytes () =
    note (fun p ->
        p.pd_nodes <-
          { n_kind = kind;
            n_label = label;
            n_rows_in = rows_in;
            n_rows_out = rows_out;
            n_start_ns = start_ns - epoch_ns;
            n_time_ns = time_ns;
            n_alloc_bytes = alloc_bytes;
            n_path = path;
            n_detail = detail }
          :: p.pd_nodes)

  let is_event r =
    match r.p_kind with
    | "materialize" | "incremental" | "plan" -> false
    | _ -> true

  let records ?session () =
    let all = with_lock pr_mutex (fun () -> List.of_seq (Queue.to_seq ring)) in
    match session with
    | None -> all
    | Some s -> List.filter (fun r -> r.p_session = s) all

  let length () = with_lock pr_mutex (fun () -> Queue.length ring)
  let dropped () = with_lock pr_mutex (fun () -> !dropped_records)

  let clear () =
    with_lock pr_mutex (fun () ->
        Queue.clear ring;
        dropped_records := 0)

  (* Records whose intervals overlap must nest. Sorted by start (the
     longer first on a tie), the records still open form a chain of
     nested intervals; each record must end inside the innermost one
     it overlaps. A span that closes while another thread's span is
     open, or a region that outlives its caller's, breaks the chain. *)
  let well_nested records =
    let intervals =
      List.filter_map
        (fun r ->
          if r.p_total_ns < 0 then None
          else Some (r.p_at_ns - r.p_total_ns, r.p_at_ns))
        records
      |> List.sort (fun (s1, e1) (s2, e2) ->
             if s1 <> s2 then compare s1 s2 else compare e2 e1)
    in
    (* [open_] holds the ends of the open chain, innermost first *)
    let rec go open_ = function
      | [] -> true
      | (s, e) :: rest -> (
          match open_ with
          | oe :: outer when oe <= s -> go outer ((s, e) :: rest)
          | oe :: _ when e > oe -> false
          | _ -> go (e :: open_) rest)
    in
    go [] intervals

  (* the most recent materialization record passing [keep] *)
  let latest ?session keep =
    List.fold_left
      (fun acc r -> if keep r && not (is_event r) then Some r else acc)
      None (records ?session ())

  let last ?session () = latest ?session (fun _ -> true)
  let find ~uid = latest (fun r -> r.p_uid = uid)

  (* ----- JSON (schema "sheetscope-profile/v3") ----- *)

  let node_to_json n =
    Obs_json.Obj
      [ ("kind", Obs_json.String n.n_kind);
        ("label", Obs_json.String n.n_label);
        ("rows_in", Obs_json.Int n.n_rows_in);
        ("rows_out", Obs_json.Int n.n_rows_out);
        ("start_ns", Obs_json.Int n.n_start_ns);
        ("time_ns", Obs_json.Int n.n_time_ns);
        ("alloc_bytes", Obs_json.Float n.n_alloc_bytes);
        ("path", Obs_json.String n.n_path);
        ("detail", Obs_json.String n.n_detail) ]

  (* every field but the nodes: the args of the record's trace event *)
  let record_fields r =
    [ ("session", Obs_json.String r.p_session);
      ("at_ns", Obs_json.Int r.p_at_ns);
      ("uid", Obs_json.Int r.p_uid);
      ("kind", Obs_json.String r.p_kind);
      ("label", Obs_json.String r.p_label);
      ("rows_out", Obs_json.Int r.p_rows_out);
      ("total_ns", Obs_json.Int r.p_total_ns);
      ("alloc_bytes", Obs_json.Float r.p_alloc_bytes);
      ("cache", Obs_json.String r.p_cache);
      ("strategy", Obs_json.String r.p_strategy);
      ("sel_rows_in", Obs_json.Int r.p_sel_rows_in);
      ("sel_rows_out", Obs_json.Int r.p_sel_rows_out);
      ("compiled",
       Obs_json.List (List.map (fun s -> Obs_json.String s) r.p_compiled));
      ("fallbacks",
       Obs_json.List
         (List.map
            (fun (pred, reason) ->
              Obs_json.Obj
                [ ("pred", Obs_json.String pred);
                  ("reason", Obs_json.String reason) ])
            r.p_fallbacks)) ]

  let record_to_json r =
    Obs_json.Obj
      (record_fields r
      @ [ ("nodes", Obs_json.List (List.map node_to_json r.p_nodes)) ])

  let to_json ?session () =
    Obs_json.Obj
      [ ("schema", Obs_json.String "sheetscope-profile/v3");
        ("capacity", Obs_json.Int !capacity);
        ("dropped", Obs_json.Int (dropped ()));
        ("profiles",
         Obs_json.List (List.map record_to_json (records ?session ()))) ]

  (* ----- rendering ----- *)

  let pp_bytes b =
    if b >= 1048576. then Printf.sprintf "%.1f MB" (b /. 1048576.)
    else if b >= 1024. then Printf.sprintf "%.1f kB" (b /. 1024.)
    else Printf.sprintf "%.0f B" b

  let render_record r =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "#%d %s%s  rows=%d  total=%.3f ms  alloc=%s" r.p_uid
         r.p_kind
         (if r.p_session = "" then "" else " " ^ r.p_session)
         r.p_rows_out
         (float_of_int r.p_total_ns /. 1e6)
         (pp_bytes r.p_alloc_bytes));
    if r.p_cache <> "" || r.p_strategy <> "" then
      Buffer.add_string buf
        (Printf.sprintf "\n  cache=%s strategy=%s"
           (if r.p_cache = "" then "-" else r.p_cache)
           (if r.p_strategy = "" then "-" else r.p_strategy));
    Buffer.add_string buf
      (Printf.sprintf "\n  sel %d -> %d" r.p_sel_rows_in r.p_sel_rows_out);
    List.iter
      (fun pred -> Buffer.add_string buf ("\n  compiled: " ^ pred))
      r.p_compiled;
    List.iter
      (fun (pred, reason) ->
        Buffer.add_string buf
          (Printf.sprintf "\n  row-path: %s (%s)" pred reason))
      r.p_fallbacks;
    List.iter
      (fun n ->
        Buffer.add_string buf
          (Printf.sprintf "\n    %-12s %-30s %10s  %8.3f ms%s" n.n_kind
             n.n_label
             ((if n.n_rows_in < 0 then ""
               else string_of_int n.n_rows_in ^ " -> ")
             ^ if n.n_rows_out < 0 then "?" else string_of_int n.n_rows_out)
             (float_of_int n.n_time_ns /. 1e6)
             (if n.n_path = "" then "" else "  [" ^ n.n_path ^ "]")))
      r.p_nodes;
    Buffer.contents buf

  (* the flight-recorder view: one line per record *)
  let render ?session ?limit () =
    let rs = records ?session () in
    let rs =
      match limit with
      | Some n when List.length rs > n ->
          let skip = List.length rs - n in
          List.filteri (fun i _ -> i >= skip) rs
      | _ -> rs
    in
    if rs = [] then "(flight recorder empty)"
    else String.concat "\n" (List.map render_line rs)
end

(* ---------- spans ----------

   While the sink is on, a span commits one node-less record into the
   ring: its name as the kind, its kind as the label, and its start
   and duration from the same two clock readings. With the sink off
   it only runs the thunk. *)

let with_span ?uid ?(kind = "") ?rows_out name f =
  if !current_sink = Off then f ()
  else begin
    let since = now_ns () in
    match f () with
    | x ->
        Profile.event ~kind:name ?uid ~since
          ?rows_out:(Option.map (fun g -> g x) rows_out)
          kind;
        x
    | exception e ->
        Profile.event ~kind:name ?uid ~since kind;
        raise e
  end

let clear_events = Profile.clear

(* ---------- SLO definitions and evaluation ----------

   Service-level objectives evaluated against the live registry:
   latency targets check a percentile of a histogram family — the base
   series and every labeled (per-session / per-task) series it has
   grown — and rate targets check a counter ratio. A series with no
   data passes vacuously but is reported as such. Surfaced as `slo` in
   the REPL, `\slo` in sheetsql, the TUI status segment, and JSON via
   {!Slo.to_json}. *)

module Slo = struct
  type def =
    | Latency of {
        slo_name : string;
        hist : string;
        phi : float;
        under_ms : float;
      }
    | Error_rate of {
        slo_name : string;
        errors : string;
        total : string;
        under : float;  (* fraction, e.g. 0.01 = 1 % *)
      }

  let defaults =
    [ Latency
        { slo_name = "engine-apply-p99";
          hist = h_engine_apply;
          phi = 0.99;
          under_ms = 50. };
      Latency
        { slo_name = "materialize-full-p99";
          hist = h_materialize_full;
          phi = 0.99;
          under_ms = 200. };
      Latency
        { slo_name = "sql-run-p99";
          hist = h_sql_run;
          phi = 0.99;
          under_ms = 100. };
      Error_rate
        { slo_name = "engine-error-rate";
          errors = k_engine_errors;
          total = k_engine_ops;
          under = 0.01 } ]

  type verdict = {
    v_slo : string;
    v_series : string;
    v_unit : string;  (* "ms" for latency, "fraction" for error rate *)
    v_observed : float;
    v_limit : float;
    v_count : int;  (* samples (latency) / denominator (rate); 0 = no data *)
    v_ok : bool;
  }

  let evaluate ?session defs =
    List.concat_map
      (fun def ->
        match def with
        | Latency { slo_name; hist; phi; under_ms } ->
            let series =
              match Histogram.series_of_base hist with
              | [] -> [ Histogram.histogram hist ]
              | hs -> hs
            in
            let series =
              List.filter
                (fun (h : Histogram.h) -> visible_to ?session h.h_name)
                series
            in
            List.map
              (fun (h : Histogram.h) ->
                let n = Histogram.count h in
                let observed_ms = Histogram.percentile h phi /. 1e6 in
                { v_slo = slo_name;
                  v_series = h.h_name;
                  v_unit = "ms";
                  v_observed = observed_ms;
                  v_limit = under_ms;
                  v_count = n;
                  v_ok = n = 0 || observed_ms <= under_ms })
              series
        | Error_rate { slo_name; errors; total; under } ->
            let den = Metrics.value_of total in
            let num = Metrics.value_of errors in
            let frac =
              if den = 0 then 0. else float_of_int num /. float_of_int den
            in
            [ { v_slo = slo_name;
                v_series = errors ^ "/" ^ total;
                v_unit = "fraction";
                v_observed = frac;
                v_limit = under;
                v_count = den;
                v_ok = den = 0 || frac <= under } ])
      defs

  let summary ?session () =
    let vs = evaluate ?session defaults in
    let failing = List.length (List.filter (fun v -> not v.v_ok) vs) in
    if failing = 0 then Printf.sprintf "slo %d/%d ok" (List.length vs) (List.length vs)
    else Printf.sprintf "slo %d/%d FAILING" failing (List.length vs)

  let render ?session () =
    let vs = evaluate ?session defaults in
    if vs = [] then "(no SLOs declared)"
    else
      String.concat "\n"
        (Printf.sprintf "%-24s %-42s %12s %12s  %s" "slo" "series" "observed"
           "limit" "status"
        :: List.map
             (fun v ->
               let fmt x =
                 if v.v_unit = "ms" then Printf.sprintf "%.3f ms" x
                 else Printf.sprintf "%.2f %%" (x *. 100.)
               in
               Printf.sprintf "%-24s %-42s %12s %12s  %s" v.v_slo v.v_series
                 (if v.v_count = 0 then "-" else fmt v.v_observed)
                 (fmt v.v_limit)
                 (if v.v_count = 0 then "no data"
                  else if v.v_ok then "ok"
                  else "FAIL"))
             vs)

  let to_json ?session () =
    let vs = evaluate ?session defaults in
    Obs_json.Obj
      [ ("schema", Obs_json.String "sheetscope-slo/v1");
        ("ok", Obs_json.Bool (List.for_all (fun v -> v.v_ok) vs));
        ("slos",
         Obs_json.List
           (List.map
              (fun v ->
                Obs_json.Obj
                  [ ("slo", Obs_json.String v.v_slo);
                    ("series", Obs_json.String v.v_series);
                    ("unit", Obs_json.String v.v_unit);
                    ("observed", Obs_json.Float v.v_observed);
                    ("limit", Obs_json.Float v.v_limit);
                    ("count", Obs_json.Int v.v_count);
                    ("ok", Obs_json.Bool v.v_ok) ])
              vs)) ]
end

(* ---------- Chrome trace_event export ----------

   Drawn from the ring: a record with a duration is one complete ("X")
   event, its fields as args, and each of its nodes one X event inside
   it; a record without a duration is an instant ("i") event. *)

let trace_event ~name ~cat ~ts ?dur args =
  let us ns = Obs_json.Float (float_of_int ns /. 1e3) in
  Obs_json.Obj
    ([ ("name", Obs_json.String name);
       ("cat", Obs_json.String cat);
       ("ts", us ts) ]
    @ (match dur with
      | Some d -> [ ("ph", Obs_json.String "X"); ("dur", us d) ]
      | None -> [ ("ph", Obs_json.String "i"); ("s", Obs_json.String "t") ])
    @ [ ("pid", Obs_json.Int 1); ("tid", Obs_json.Int 1); ("args", args) ])

let record_trace_events (r : Profile.t) =
  let cat = if Profile.is_event r then "event" else "profile" in
  let args = Obs_json.Obj (Profile.record_fields r) in
  if r.p_total_ns < 0 then [ trace_event ~name:r.p_kind ~cat ~ts:r.p_at_ns args ]
  else
    trace_event ~name:r.p_kind ~cat ~ts:(r.p_at_ns - r.p_total_ns)
      ~dur:r.p_total_ns args
    :: List.map
         (fun (n : Profile.node) ->
           trace_event ~name:n.n_kind ~cat:"node" ~ts:n.n_start_ns
             ~dur:n.n_time_ns (Profile.node_to_json n))
         r.p_nodes

let to_chrome_trace () =
  sample_gc_gauges ();
  let records = Profile.records () in
  Obs_json.Obj
    [ ("traceEvents",
       Obs_json.List (List.concat_map record_trace_events records));
      ("displayTimeUnit", Obs_json.String "ms");
      ("otherData",
       Obs_json.Obj
         [ ("exporter", Obs_json.String "sheetscope");
           (* ring truncation and nesting violations surfaced here so a
              truncated trace is visibly truncated, not silently thin *)
           ("dropped", Obs_json.Int (Profile.dropped ()));
           ("nesting_ok", Obs_json.Bool (Profile.well_nested records));
           ("metrics", Metrics.to_json ());
           ("histograms", Histogram.to_json ());
           ("slo", Slo.to_json ()) ]) ]

let chrome_trace_string () =
  Obs_json.to_string ~pretty:true (to_chrome_trace ())

(* One human-readable page: counters/gauges (GC included), latency
   histograms, the SLO summary, and the ring's health lines (so a
   truncated ring or a nesting violation shows up in `metrics`, not
   only in exported JSON). With [session], labeled series of other
   sessions are left out. *)
let metrics_report ?session () =
  sample_gc_gauges ();
  String.concat "\n"
    [ Metrics.render ?session ();
      "";
      Histogram.render ?session ();
      "";
      Printf.sprintf "%-32s %10s" "slo.status" (Slo.summary ?session ());
      Printf.sprintf "%-32s %10d" "profile.records" (Profile.length ());
      Printf.sprintf "%-32s %10d" "profile.dropped" (Profile.dropped ());
      Printf.sprintf "%-32s %10b" "profile.nesting_ok"
        (Profile.well_nested (Profile.records ())) ]

let save_chrome_trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace_string ()))
