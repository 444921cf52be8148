(* Sheetscope: span tracing, a metrics registry, labeled per-session
   series, SLO evaluation, and pluggable sinks.

   The metric families survive concurrent writers (Sheetserve's
   handler threads increment counters outside the engine lock): a
   counter or gauge is one atomic cell, a histogram one record of
   atomic cells, and the span ring is mutex-protected. Span nesting
   ([with_span]) keeps single-writer state: only the thread driving a
   session opens and closes spans. The off-sink fast path is a single
   mutable-bool test so instrumented code costs nothing when nobody
   is watching (property-tested byte-identical). *)

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
let recording () = !current_sink <> Off

(* ---------- events and spans ---------- *)

type event = {
  name : string;
  kind : string;
  uid : int;  (** 0 when no sheet is involved *)
  depth : int;
  start_ns : int;  (** relative to process start *)
  dur_ns : int;
  rows_in : int;  (** -1 when unknown *)
  rows_out : int;  (** -1 when unknown *)
}

(* Nesting state is deliberately single-writer (the session's driving
   thread): the number of open spans. *)
let open_depth = ref 0
let violations = Atomic.make 0

let ring_capacity = ref 65536
let ring : event Queue.t = Queue.create ()
let dropped_events = ref 0
let ring_mutex = Mutex.create ()

let record ev =
  match !current_sink with
  | Off -> ()
  | Memory ->
      with_lock ring_mutex (fun () ->
          if Queue.length ring >= !ring_capacity then begin
            ignore (Queue.pop ring);
            incr dropped_events
          end;
          Queue.push ev ring)
  | Logs ->
      with_lock ring_mutex (fun () ->
          Logs.app ~src (fun m ->
              m "%*s%s%s %.3f ms%s%s" (2 * ev.depth) "" ev.name
                (if ev.kind = "" then "" else "[" ^ ev.kind ^ "]")
                (float_of_int ev.dur_ns /. 1e6)
                (if ev.rows_out < 0 then ""
                 else Printf.sprintf " -> %d rows" ev.rows_out)
                (if ev.uid = 0 then ""
                 else Printf.sprintf " (sheet #%d)" ev.uid)))

let with_span ?(uid = 0) ?(kind = "") ?(rows_in = -1) ?rows_out name f =
  if not (recording ()) then f ()
  else begin
    let depth = !open_depth in
    let start_ns = now_ns () - epoch_ns in
    open_depth := depth + 1;
    let close rows_out =
      (* a span closes one above the depth it opened at; anything else
         ([clear_events] under the span, or another thread's span
         interleaved) is counted, and the depth still drops by one so
         one mistake does not cascade *)
      if !open_depth <> depth + 1 then Atomic.incr violations;
      open_depth := max 0 (!open_depth - 1);
      record
        { name;
          kind;
          uid;
          depth;
          start_ns;
          (* the clamped clock makes this non-negative already; the
             [max] guards the invariant even against a hostile test
             clock *)
          dur_ns = max 0 (now_ns () - epoch_ns - start_ns);
          rows_in;
          rows_out }
    in
    match f () with
    | x ->
        close (match rows_out with Some g -> g x | None -> -1);
        x
    | exception e ->
        close (-1);
        raise e
  end

let open_spans () = !open_depth
let nesting_ok () = Atomic.get violations = 0

let events () =
  with_lock ring_mutex (fun () -> List.of_seq (Queue.to_seq ring))

let dropped () = with_lock ring_mutex (fun () -> !dropped_events)

let clear_events () =
  with_lock ring_mutex (fun () ->
      Queue.clear ring;
      dropped_events := 0);
  open_depth := 0;
  Atomic.set violations 0

(* Completed events are well-formed when every pair of overlapping
   intervals nests: the deeper one lies inside the shallower one. *)
let events_well_formed evs =
  let overlap a b =
    a.start_ns < b.start_ns + b.dur_ns && b.start_ns < a.start_ns + a.dur_ns
  in
  let contains outer inner =
    outer.start_ns <= inner.start_ns
    && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
  in
  let arr = Array.of_list evs in
  let ok = ref true in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j && a.depth <> b.depth && overlap a b then
            let outer, inner = if a.depth < b.depth then (a, b) else (b, a) in
            if not (contains outer inner) then ok := false)
        arr)
    arr;
  !ok

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
   series (engine.apply, sql.run). Single-writer like the span stack:
   Sheetserve sets it only under its engine lock. *)
let ambient = ref Labels.empty
let set_ambient_labels ls = ambient := ls
let ambient_labels () = !ambient

(* ---------- metrics ---------- *)

module Metrics = struct
  type m = { m_name : string; cell : int Atomic.t }

  let registry : (string, m) Hashtbl.t = Hashtbl.create 64

  let find_locked name =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = { m_name = name; cell = Atomic.make 0 } in
        Hashtbl.replace registry name m;
        m

  (* a counter and a gauge differ only in how they are written
     ([incr] vs [set]) *)
  let counter name = with_lock reg_mutex (fun () -> find_locked name)
  let gauge = counter

  let incr ?(by = 1) m = ignore (Atomic.fetch_and_add m.cell by)
  let set m v = Atomic.set m.cell v
  let get m = Atomic.get m.cell

  let value_of name =
    match with_lock reg_mutex (fun () -> Hashtbl.find_opt registry name) with
    | Some m -> get m
    | None -> 0

  let entries () =
    with_lock reg_mutex (fun () ->
        Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
    |> List.sort (fun a b -> series_order a.m_name b.m_name)

  let snapshot () = List.map (fun m -> (m.m_name, get m)) (entries ())

  let reset () = List.iter (fun m -> Atomic.set m.cell 0) (entries ())

  let to_json () =
    Obs_json.Obj
      (List.map (fun (name, v) -> (name, Obs_json.Int v)) (snapshot ()))

  let render () =
    let snap = snapshot () in
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

  let find_locked name =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h = make name in
        Hashtbl.replace registry name h;
        h

  let histogram name = with_lock reg_mutex (fun () -> find_locked name)

  let histogram_labeled name labels =
    with_lock reg_mutex (fun () ->
        find_locked
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

  (* a bucket is bumped before the count, and [totals] reads the
     count before the buckets, so a snapshot's buckets always hold at
     least its count — the percentile walk stays in range even under
     concurrent writers *)
  let record h ns =
    let ns = if ns < 0 then 0 else ns in
    ignore (Atomic.fetch_and_add h.h_counts.(bucket_index ns) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum ns);
    atomic_max h.h_max ns

  (* a plain copy of the cells that every reader goes through *)
  type totals = {
    t_counts : int array;
    t_count : int;
    t_sum : int;
    t_max : int;
  }

  let totals h =
    let t_count = Atomic.get h.h_count in
    let t_counts = Array.map Atomic.get h.h_counts in
    { t_counts;
      t_count;
      t_sum = Atomic.get h.h_sum;
      t_max = Atomic.get h.h_max }

  let count h = Atomic.get h.h_count

  (* Estimate the [phi]-quantile (0 < phi <= 1): locate the bucket
     holding the ceil(phi*count)-th smallest sample, interpolate
     linearly inside it, and never exceed the exact max. *)
  let percentile_of_totals t phi =
    if t.t_count = 0 then 0.
    else begin
      let rank =
        max 1
          (min t.t_count (int_of_float (ceil (phi *. float_of_int t.t_count))))
      in
      let i = ref 0 and before = ref 0 in
      while !before + t.t_counts.(!i) < rank do
        before := !before + t.t_counts.(!i);
        incr i
      done;
      let lo = float_of_int (bucket_lo !i) in
      let hi =
        Float.min
          (float_of_int (min (bucket_hi !i) t.t_max))
          (float_of_int t.t_max)
      in
      let hi = Float.max hi lo in
      let in_bucket = float_of_int t.t_counts.(!i) in
      lo +. ((hi -. lo) *. float_of_int (rank - !before) /. in_bucket)
    end

  let percentile h phi = percentile_of_totals (totals h) phi

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
    let t = totals h in
    { s_name = h.h_name;
      s_count = t.t_count;
      s_sum_ns = t.t_sum;
      s_max_ns = t.t_max;
      s_p50_ns = percentile_of_totals t 0.50;
      s_p90_ns = percentile_of_totals t 0.90;
      s_p99_ns = percentile_of_totals t 0.99;
      s_buckets =
        List.filter_map
          (fun i ->
            if t.t_counts.(i) = 0 then None
            else Some (bucket_hi i, t.t_counts.(i)))
          (List.init num_buckets Fun.id) }

  let entries () =
    with_lock reg_mutex (fun () ->
        Hashtbl.fold (fun _ h acc -> h :: acc) registry [])
    |> List.sort (fun a b -> series_order a.h_name b.h_name)

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

  let render () =
    let snaps = snapshots () in
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

(* ---------- the profile ring (Sheetdoctor, flight recorder) ----------

   The one bounded tape of what ran. A materialization region commits
   one record — the execution black box for one query: which cache
   outcome answered it (exact / subsumed / miss / seed), full replay
   vs incremental derivation, a node-by-node breakdown with wall time,
   row counts and allocation deltas, and *path attribution*: which
   filter predicates ran as compiled selection vectors and which fell
   back to the row path (naming the non-total subtree), and how many
   rows entered and left the selection vectors. Session and engine
   events (ops applied and rejected, undo/redo, evictions, SQL
   translations) commit node-less records into the same ring, so the
   flight recorder is a view over it.

   Always on (a record is a few small allocations), independent of
   the span sink, bounded with a drop counter. Like span nesting, the
   region stack is single-writer — only the session's driving thread
   enters/commits regions and notes attribution; the counter deltas a
   region records are snapshotted at its boundaries. Event commits
   take only the ring lock and are safe from any thread. *)

module Profile = struct
  type node = {
    n_kind : string;
    n_label : string;
    n_rows_in : int;  (* -1 when unknown *)
    n_rows_out : int;  (* -1 when unknown *)
    n_time_ns : int;
    n_alloc_bytes : float;
    n_path : string;  (* "" | "columnar" | "row" | "batch" *)
    n_detail : string;
  }

  type t = {
    p_session : string;  (* ambient labels at commit, "" when none *)
    p_at_ns : int;  (* commit time, relative to process start *)
    p_uid : int;  (* 0 when no sheet is involved *)
    p_kind : string;  (* "materialize" | "incremental" | "plan" | an event *)
    p_label : string;
    p_rows_out : int;  (* -1 when the region failed, or for an event *)
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

  let push_record r =
    with_lock pr_mutex (fun () ->
        if Queue.length ring >= !capacity then begin
          ignore (Queue.pop ring);
          incr dropped_records
        end;
        Queue.push r ring)

  let event ~kind ?(uid = 0) ?(dur_ns = -1) label =
    if !enabled_flag then
      push_record
        { p_session = Labels.to_string (ambient_labels ());
          p_at_ns = now_ns () - epoch_ns;
          p_uid = uid;
          p_kind = kind;
          p_label = label;
          p_rows_out = -1;
          p_total_ns = dur_ns;
          p_alloc_bytes = 0.;
          p_cache = "";
          p_strategy = "";
          p_sel_rows_in = 0;
          p_sel_rows_out = 0;
          p_compiled = [];
          p_fallbacks = [];
          p_nodes = [] }

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
    | [] -> ()  (* unbalanced commit: tolerated, like span mis-nesting *)
    | slot :: rest -> (
        stack := rest;
        match slot with
        | Disabled | Nested -> ()
        | Region p ->
            push_record
              { p_session = Labels.to_string (ambient_labels ());
                p_at_ns = now_ns () - epoch_ns;
                p_uid = p.pd_uid;
                p_kind = p.pd_kind;
                p_label = p.pd_label;
                p_rows_out = rows_out;
                p_total_ns = max 0 (now_ns () - p.pd_t0);
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
      ~kind ~label ~time_ns ~alloc_bytes () =
    note (fun p ->
        p.pd_nodes <-
          { n_kind = kind;
            n_label = label;
            n_rows_in = rows_in;
            n_rows_out = rows_out;
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
        ("time_ns", Obs_json.Int n.n_time_ns);
        ("alloc_bytes", Obs_json.Float n.n_alloc_bytes);
        ("path", Obs_json.String n.n_path);
        ("detail", Obs_json.String n.n_detail) ]

  let record_to_json r =
    Obs_json.Obj
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
              r.p_fallbacks));
        ("nodes", Obs_json.List (List.map node_to_json r.p_nodes)) ]

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

  let slow_ns = 100_000_000

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
    let part cond s = if cond then s else "" in
    if rs = [] then "(flight recorder empty)"
    else
      String.concat "\n"
        (List.map
           (fun r ->
             String.concat "  "
               (List.filter
                  (fun s -> s <> "")
                  [ Printf.sprintf "%10.3f s" (float_of_int r.p_at_ns /. 1e9);
                    Printf.sprintf "%-13s" r.p_kind;
                    r.p_label;
                    part (r.p_cache <> "") ("cache=" ^ r.p_cache);
                    part (r.p_uid <> 0) (Printf.sprintf "[sheet #%d]" r.p_uid);
                    part (r.p_total_ns >= 0)
                      (Printf.sprintf "(%.3f ms)"
                         (float_of_int r.p_total_ns /. 1e6));
                    part (r.p_total_ns >= slow_ns) "slow" ]))
           rs)
end

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

  let evaluate defs =
    List.concat_map
      (fun def ->
        match def with
        | Latency { slo_name; hist; phi; under_ms } ->
            let series =
              match Histogram.series_of_base hist with
              | [] -> [ Histogram.histogram hist ]
              | hs -> hs
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

  let summary () =
    let vs = evaluate defaults in
    let failing = List.length (List.filter (fun v -> not v.v_ok) vs) in
    if failing = 0 then Printf.sprintf "slo %d/%d ok" (List.length vs) (List.length vs)
    else Printf.sprintf "slo %d/%d FAILING" failing (List.length vs)

  let render () =
    let vs = evaluate defaults in
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

  let to_json () =
    let vs = evaluate defaults in
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

(* ---------- Chrome trace_event export ---------- *)

let event_to_json ev =
  let args =
    List.concat
      [ (if ev.uid = 0 then [] else [ ("uid", Obs_json.Int ev.uid) ]);
        (if ev.rows_in < 0 then []
         else [ ("rows_in", Obs_json.Int ev.rows_in) ]);
        (if ev.rows_out < 0 then []
         else [ ("rows_out", Obs_json.Int ev.rows_out) ]);
        [ ("depth", Obs_json.Int ev.depth) ] ]
  in
  Obs_json.Obj
    [ ("name", Obs_json.String ev.name);
      ("cat", Obs_json.String (if ev.kind = "" then "sheetmusiq" else ev.kind));
      ("ph", Obs_json.String "X");
      ("ts", Obs_json.Float (float_of_int ev.start_ns /. 1e3));
      ("dur", Obs_json.Float (float_of_int ev.dur_ns /. 1e3));
      ("pid", Obs_json.Int 1);
      ("tid", Obs_json.Int 1);
      ("args", Obs_json.Obj args) ]

let to_chrome_trace evs =
  sample_gc_gauges ();
  Obs_json.Obj
    [ ("traceEvents", Obs_json.List (List.map event_to_json evs));
      ("displayTimeUnit", Obs_json.String "ms");
      ("otherData",
       Obs_json.Obj
         [ ("exporter", Obs_json.String "sheetscope");
           (* ring truncation and nesting violations surfaced here so a
              truncated trace is visibly truncated, not silently thin *)
           ("dropped_events", Obs_json.Int (dropped ()));
           ("open_spans", Obs_json.Int (open_spans ()));
           ("nesting_ok", Obs_json.Bool (nesting_ok ()));
           ("metrics", Metrics.to_json ());
           ("histograms", Histogram.to_json ());
           ("slo", Slo.to_json ());
           ("profiles", Profile.to_json ()) ]) ]

let chrome_trace_string () = Obs_json.to_string ~pretty:true (to_chrome_trace (events ()))

(* One human-readable page: counters/gauges (GC included), latency
   histograms, the SLO summary, and the trace/recorder health lines
   (so a truncated ring or a nesting violation shows up in `metrics`,
   not only in exported JSON). *)
let metrics_report () =
  sample_gc_gauges ();
  String.concat "\n"
    [ Metrics.render ();
      "";
      Histogram.render ();
      "";
      Printf.sprintf "%-32s %10s" "slo.status" (Slo.summary ());
      Printf.sprintf "%-32s %10d" "trace.dropped_events" (dropped ());
      Printf.sprintf "%-32s %10d" "trace.open_spans" (open_spans ());
      Printf.sprintf "%-32s %10s" "trace.nesting_ok"
        (if nesting_ok () then "true" else "false");
      Printf.sprintf "%-32s %10d" "profile.records" (Profile.length ());
      Printf.sprintf "%-32s %10d" "profile.dropped" (Profile.dropped ()) ]

let save_chrome_trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace_string ()))
