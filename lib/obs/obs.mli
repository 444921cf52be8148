(** Sheetscope: the measurement layer under the engine.

    Four pieces (DESIGN.md §8):

    - {e the profile ring} ({!Profile}): the one bounded tape of what
      ran. Per-query records (cache outcome, strategy, a node per plan
      unit), session and engine events, and spans all commit into it;
      EXPLAIN ANALYZE, the doctor, the flight recorder and the Chrome
      trace ({!to_chrome_trace}) are views over it.
    - {e metrics}: a process-wide registry of named counters, gauges
      and latency histograms (cache hits/misses, replays vs
      derivations, rows per plan node, undo/redo depth, GC activity,
      per-op latency), snapshotable as an association list or JSON.
    - {e sinks}: whether spans are recorded. [Off] (the default) makes
      {!with_span} a single mutable-bool test before the thunk runs —
      instrumented code paths are property-tested byte-identical to
      uninstrumented ones. [Memory] commits each span into the ring as
      a record; [Logs] does too, and also prints every record as it
      commits through the [sheetscope] {!Logs.Src.t}.
    - {e SLOs}: latency and error-rate targets declared in one place
      ({!Slo}), evaluated against the live registry including every
      labeled per-session series.

    Counters and histograms always count (sink or no sink) and are
    {e thread- and domain-safe}: every cell is atomic, so the totals
    of concurrent writers equal a single-writer run exactly, and the ring is mutex-protected. *)

(** {1 Clock} *)

val now_ns : unit -> int
(** Monotone clock in integer nanoseconds: wall readings clamped so
    the value never decreases within a process (NTP steps and VM
    migrations cannot produce a negative span or histogram sample).
    The watermark is atomic, so the guarantee holds across domains. *)

val set_raw_clock_for_tests : (unit -> int) option -> unit
(** Swap the raw reading under the monotone clamp ([None] restores the
    wall clock and re-anchors). Test-only: lets the clock-regression
    suite drive time backwards and observe that durations stay
    non-negative. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed wall
    time in milliseconds (used by [\timing] and the TUI status
    segment). *)

(** {1 Sinks} *)

type sink = Off | Logs | Memory

val sink : unit -> sink
val set_sink : sink -> unit

(** {1 Spans} *)

val with_span :
  ?uid:int -> ?kind:string -> ?rows_out:('a -> int) -> string ->
  (unit -> 'a) -> 'a
(** Bracket a thunk in a span. While the sink is on, the span commits
    one node-less record into the profile ring when the thunk returns
    or raises: the span's name as [p_kind], its [kind] as [p_label],
    [uid], [rows_out] read off the thunk's result (-1 for a raising
    thunk), and its start and duration. Span names are dotted
    (["engine.apply"]), so none reads as a materialization kind. When
    the sink is [Off] this only runs the thunk. Safe from any thread:
    two threads' spans that overlap without nesting show up in
    {!Profile.well_nested}. *)

val clear_events : unit -> unit
(** {!Profile.clear} under its old name, kept only because
    [perfbench/sheetbench.ml] calls it; call {!Profile.clear}. *)

(** {1 Labels}

    A bounded extra dimension on counters and histograms: a labeled
    series is a full registry entry named [base ^ "{k=v,...}"] (keys
    sorted, characters ['{' '}' ',' '='] sanitized to ['_']), so
    snapshots, JSON export and SLO evaluation see per-session and
    per-task series with no extra machinery. Cardinality is hard-capped
    per base name (64 label sets): past the cap, every new
    label set collapses into one shared ["{__overflow__}"] series, so
    a buggy or hostile labeler creates at most cap + 1 entries per
    family. *)

module Labels : sig
  type t

  val empty : t
  val is_empty : t -> bool

  val v : (string * string) list -> t
  (** Build a label set: keys deduped (last binding wins), sorted,
      and sanitized. *)

  val to_string : t -> string
  (** ["{k=v,k2=v2}"], or [""] for {!empty} — exactly the suffix
      appended to the base series name. *)
end

val set_ambient_labels : Labels.t -> unit
(** Install the ambient label set the hot paths (engine apply, SQL
    run) stamp on their histograms — the shells set
    [session=<name>] at startup, the gates set [task=<id>] per
    replay. Single-writer, like the region stack. *)

val ambient_labels : unit -> Labels.t

(** {1 Metrics}

    A counter or gauge is one atomic cell: {!Metrics.incr} is a
    fetch-and-add, safe from any thread or domain, so totals are exact
    whatever the interleaving. Gauges are last-write-wins. *)

module Metrics : sig
  type m

  val counter : string -> m
  (** Intern a counter by name (returns the existing one if
      registered). *)

  val gauge : string -> m

  val incr : ?by:int -> m -> unit
  val set : m -> int -> unit
  val get : m -> int

  val value_of : string -> int
  (** 0 when the name was never registered. *)

  val snapshot : unit -> (string * int) list
  (** Sorted by (family base, label suffix): a base series is followed
      directly by its labeled variants — deterministic and stable
      under label admission order. *)

  val reset : unit -> unit
  (** Zero every registered metric (registrations survive). *)

  val to_json : unit -> Obs_json.t

  val render : ?session:string -> unit -> string
  (** With [session] (an ambient label string, as in
      {!Profile.records}), the unlabeled series and that session's
      own labeled ones; no other session's. *)
end

(** {1 Latency histograms}

    The third metric family (DESIGN.md §8): log-bucketed latency
    histograms with fixed boundaries — four buckets per decade from
    100 ns to 10 s plus an overflow bucket — so recording is O(1),
    histograms merge by adding bucket counts, and snapshots from
    different runs are comparable. Count, sum and max are exact;
    p50/p90/p99 are bucket estimates (linear interpolation inside the
    bucket holding the rank, never above the observed max). Like
    counters, histograms always record — sink or no sink — and from
    any thread or domain: a histogram is one record of atomic cells,
    so concurrent totals are exact. *)

module Histogram : sig
  type h

  val boundaries : int array
  (** The 33 inclusive upper bucket edges, strictly increasing,
      [boundaries.(0) = 100] ns .. [boundaries.(32) = 10^10] ns. *)

  val histogram : string -> h
  (** Intern by name (returns the existing histogram if registered) —
      the analogue of {!Metrics.counter}. *)

  val histogram_labeled : string -> Labels.t -> h
  (** Intern the labeled series [name ^ Labels.to_string labels],
      subject to the family cardinality cap (the overflow series past
      it). With {!Labels.empty} this is [histogram]. *)

  val record : h -> int -> unit
  (** Record one duration in nanoseconds (negative samples clamp
      to 0). O(1); safe from any domain. *)

  val count : h -> int

  val percentile : h -> float -> float
  (** [percentile h phi] estimates the [phi]-quantile in ns; 0 when
      empty. Monotone in [phi] and never above the observed max. *)

  type snapshot = {
    s_name : string;
    s_count : int;
    s_sum_ns : int;
    s_max_ns : int;
    s_p50_ns : float;
    s_p90_ns : float;
    s_p99_ns : float;
    s_buckets : (int * int) list;
        (** (inclusive upper edge ns, count), nonzero buckets only;
            the overflow bucket's edge is [max_int] *)
  }

  val snapshot_of : h -> snapshot

  val snapshots : unit -> snapshot list
  (** Every registered histogram, sorted by (family base, label
      suffix) — labeled series directly after their base. *)

  val counts_snapshot : unit -> (string * int) list
  (** (name, exact sample count) for every registered histogram, in
      {!snapshots} order — the duration-free slice. *)

  val series_of_base : string -> h list
  (** Every registered series of one family — the base histogram plus
      its labeled variants — sorted by name. What {!Slo} evaluation
      walks. *)

  val reset : unit -> unit
  (** Zero every registered histogram (registrations survive). *)

  val to_json : unit -> Obs_json.t

  val render : ?session:string -> unit -> string
  (** [session] filters as in {!Metrics.render}. *)
end

(** {2 Well-known histogram names} *)

val h_engine_apply : string
val h_materialize_full : string
val h_incremental_derive : string

val h_plan_node_prefix : string
(** ["plan.node."] — the plan executor appends the node kind. *)

val h_sql_run : string

(** {2 Well-known metric names}

    Registered up front so snapshots always carry the full set, zeros
    included. The instrumented modules intern these same names. *)

val k_engine_ops : string
val k_engine_errors : string
val k_cache_requests : string
(** Every [Materialize.full_cached] lookup; always equals
    [k_cache_hits + k_cache_hits_subsumed + k_cache_misses]
    (asserted by the [@obs] gate). *)

val k_cache_hits : string
(** Exact hits: the sheet's own uid was cached. *)

val k_cache_hits_subsumed : string
(** Semantic hits: a cached state was proven to subsume the request
    and its materialization was re-filtered/re-sorted instead of
    replaying the base data. *)

val k_cache_misses : string
val k_cache_evictions : string
val k_cache_seeds : string
val k_full_replays : string
val k_incremental_derivations : string
val k_incremental_fallbacks : string
val k_plan_nodes : string
val k_plan_rows_in : string
val k_plan_rows_out : string
val k_undo_depth : string
val k_redo_depth : string
val k_sql_translations : string
val k_sql_inverse_translations : string
val k_sql_executions : string

val k_par_morsels : string

val k_par_scans : string
(** ["par.morsels"] and ["par.scans"]: names of counters that are
    neither registered nor fed, since scans run in one pass on the
    calling domain; {!Metrics.value_of} reads them as 0. Kept for the
    readers that still ask for them. *)

val k_col_columns : string
(** Counter: columns materialized by [Columnar.of_rows]. *)

val k_col_dict_entries : string
(** Counter: distinct strings interned into column dictionaries. *)

val k_col_sel_rows_in : string
(** Counter: candidate rows entering compiled selection vectors;
    together with {!k_col_sel_rows_out} this gives the average
    selection-vector density ([@obs] asserts out <= in). *)

val k_col_sel_rows_out : string

(** {2 Runtime telemetry}

    GC gauges sampled from [Gc.quick_stat] by {!metrics_report} and
    {!to_chrome_trace}, so an export carries the collector's view of
    the workload that produced it. *)

val k_gc_minor : string
(** Gauge: minor collections since process start. *)

val k_gc_major : string
(** Gauge: major collection cycles since process start. *)

val k_gc_promoted : string
(** Gauge: words promoted minor → major since process start. *)

val k_gc_heap : string
(** Gauge: current major-heap size in words. *)

(** {1 The profile ring (Sheetdoctor, the flight recorder, traces)}

    The one bounded tape of what ran. A materialization region commits
    a per-query record — the execution black box for one query: cache
    outcome, full-replay vs incremental strategy, a node-by-node
    breakdown (wall time, rows in/out, allocation deltas from
    [Gc.allocated_bytes]), and {e path attribution} — which filter
    predicates ran as compiled selection vectors and which fell back
    to the row path (naming the non-total subtree), plus the rows in
    and out of the selection vectors ([columnar.sel_rows_*] counter
    deltas over the region). Session and engine events — ["op"],
    ["op-rejected"], ["undo"], ["redo"], ["cache-eviction"],
    ["sql-translation"] — commit node-less records into the same ring
    ({!Profile.event}), and so does every span while the sink is on
    ({!with_span}). The flight recorder (`flightrec` in the REPL,
    `\flightrec` in sheetsql, the [F] pane in the TUI) is
    {!Profile.render}, a view over the ring; {!to_chrome_trace} is
    another.

    A record with a duration covers
    [[p_at_ns - p_total_ns, p_at_ns]], and a node
    [[n_start_ns, n_start_ns + n_time_ns]]; a record's start and end
    come from the same clock readings as its duration, so containment
    is exact: {!Profile.well_nested} demands it of overlapping
    records, and a record's nodes lie inside it.

    Collection is always on, bounded at 512 records with a drop
    counter. The region stack is {e single-writer}: only the session's
    driving thread calls {!Profile.enter}/{!Profile.commit}/[note_*];
    the counter deltas a region records are read at its
    boundaries. *)

module Profile : sig
  type node = {
    n_kind : string;  (** e.g. ["filter"], ["run"], ["sort"] *)
    n_label : string;
    n_rows_in : int;  (** -1 when unknown *)
    n_rows_out : int;  (** -1 when unknown *)
    n_start_ns : int;  (** relative to process start *)
    n_time_ns : int;
    n_alloc_bytes : float;
    n_path : string;
        (** ["columnar"] | ["row"] | ["fused"] | ["blocking"] | [""] *)
    n_detail : string;
  }

  type t = {
    p_session : string;
        (** the ambient labels at commit ([""] when none) *)
    p_at_ns : int;  (** commit time, relative to process start *)
    p_uid : int;  (** 0 when no sheet is involved *)
    p_kind : string;
        (** ["materialize"] | ["incremental"] | ["plan"] for a
            materialization record; otherwise the event kind, or the
            span name *)
    p_label : string;
        (** what the event describes (a span's kind); for a subsumed
            cache hit, the subsuming sheet and the proof when that
            sheet is of the same uid arena *)
    p_rows_out : int;
        (** -1 when the region failed or raised, and for events *)
    p_total_ns : int;  (** -1 for an event of unknown duration *)
    p_alloc_bytes : float;
    p_cache : string;
        (** ["exact"] | ["subsumed"] | ["miss"] | ["seed"] | [""] *)
    p_strategy : string;
        (** ["full-replay"] | ["incremental"] | [""] *)
    p_sel_rows_in : int;
        (** [columnar.sel_rows_in] delta over the region *)
    p_sel_rows_out : int;
    p_compiled : string list;
        (** predicates that ran as compiled selection vectors *)
    p_fallbacks : (string * string) list;
        (** (predicate, reason) pairs that fell back to the row path *)
    p_nodes : node list;  (** execution order *)
  }

  val enter : kind:string -> uid:int -> unit
  (** Open a profiling region. A re-entry for a uid that already has
      an open region (e.g. [Materialize.full] under a [full_cached]
      miss) nests: its notes flow to the enclosing region and its
      commit records nothing, so one query yields one record. *)

  val commit : rows_out:int -> unit
  (** Close the innermost region; a real (non-nested) region pushes
      its record into the ring. Callers pass [-1] on the exception
      path. *)

  val region : kind:string -> uid:int -> rows_out:('a -> int) ->
    (unit -> 'a) -> 'a
  (** [enter], run the thunk, [commit] with [rows_out] of its result —
      or [-1] when it raises, the region still closed. *)

  val event :
    kind:string -> ?uid:int -> ?since:int -> ?rows_out:int -> string -> unit
  (** Commit a node-less event record labelled with the string; with
      [since] (a {!now_ns} reading), the record lasts from then until
      its commit, otherwise it has no duration. Safe from any thread
      (it takes only the ring lock); a no-op while collection is
      off. *)

  val note_cache : ?label:string -> string -> unit
  (** Record the cache outcome (and optionally the record's label) on
      the nearest open region (no-op without one — every [note_*]
      is). *)

  val note_strategy : string -> unit
  val note_compiled : string -> unit
  val note_fallback : pred:string -> reason:string -> unit

  val note_node :
    ?rows_in:int ->
    ?rows_out:int ->
    ?path:string ->
    ?detail:string ->
    kind:string ->
    label:string ->
    start_ns:int ->
    time_ns:int ->
    alloc_bytes:float ->
    unit ->
    unit
  (** [start_ns] is the {!now_ns} reading the node started at. *)

  val in_region : unit -> bool
  val open_regions : unit -> int
  (** Regions entered but not yet committed — 0 after any balanced
      workload (the doctor gate fails otherwise). *)

  val reset_stack_for_tests : unit -> unit

  val enabled : unit -> bool
  val set_enabled : bool -> unit
  (** Switch collection off entirely ([enter] pushes an inert slot,
      [event] records nothing). Default on; the overhead bench
      measures the difference. *)

  val set_capacity : int -> unit
  (** Ring capacity (default 512, clamped to >= 1). *)

  val is_event : t -> bool
  (** Not a materialization record. *)

  val records : ?session:string -> unit -> t list
  (** Ring contents, oldest first; with [session], only the records
      committed under that ambient label set ({!Labels.to_string}). *)

  val last : ?session:string -> unit -> t option
  (** The most recent materialization record. *)

  val find : uid:int -> t option
  (** The most recent materialization record for a sheet uid. *)

  val length : unit -> int
  val dropped : unit -> int
  (** Records evicted since {!clear}. *)

  val well_nested : t list -> bool
  (** Records whose intervals overlap nest: one lies inside the
      other. Records without a duration are skipped. The [@obs] and
      [@serve] gates hold the ring to it; spans of two threads that
      interleave break it. *)

  val clear : unit -> unit

  val record_to_json : t -> Obs_json.t

  val to_json : ?session:string -> unit -> Obs_json.t
  (** ["sheetscope-profile/v3"]: capacity, dropped count and the
      record list ([session] filters as in {!records}). *)

  val render_record : t -> string
  (** The multi-line EXPLAIN ANALYZE text of one record. *)

  val render : ?session:string -> ?limit:int -> unit -> string
  (** The flight-recorder view: one line per record (most recent
      [limit] when given) — commit time, kind, label, cache outcome,
      uid and duration; a record of 100 ms or more is marked
      [slow]. *)
end

(** {1 SLOs}

    Latency and error-rate targets, evaluated against the live
    registry. A latency target checks a percentile of a histogram
    family — the base series {e and} every labeled (per-session /
    per-task) series it has grown; a rate target checks a counter
    ratio. Series with no data pass vacuously but are reported as "no
    data". The shipped targets are surfaced as `slo` in the REPL,
    `\slo` in sheetsql, the TUI status segment, {!metrics_report}, and
    trace export. *)

module Slo : sig
  type def =
    | Latency of {
        slo_name : string;
        hist : string;  (** histogram family base name *)
        phi : float;  (** e.g. 0.99 *)
        under_ms : float;
      }
    | Error_rate of {
        slo_name : string;
        errors : string;  (** numerator counter *)
        total : string;  (** denominator counter *)
        under : float;  (** fraction, e.g. 0.01 = 1 % *)
      }

  val defaults : def list
  (** The shipped targets: [engine.apply] p99 < 50 ms,
      [materialize.full] p99 < 200 ms, [sql.run] p99 < 100 ms, and
      engine error-rate < 1 %. *)

  type verdict = {
    v_slo : string;
    v_series : string;
    v_unit : string;
        (** ["ms"] for a latency target, ["fraction"] for a rate *)
    v_observed : float;
    v_limit : float;
    v_count : int;
        (** samples (latency) / denominator (rate); 0 = no data *)
    v_ok : bool;
  }

  val evaluate : ?session:string -> def list -> verdict list
  (** One verdict per (target, series) pair, in list order, labeled
      series sorted by name within a target. With [session], only the
      unlabeled series and that session's own (as in
      {!Metrics.render}); the same holds for the three below. *)

  val summary : ?session:string -> unit -> string
  (** e.g. ["slo 4/4 ok"] or ["slo 1/6 FAILING"] for the shipped
      targets — the TUI status segment. *)

  val render : ?session:string -> unit -> string
  (** The human-readable report table of the shipped targets. *)

  val to_json : ?session:string -> unit -> Obs_json.t
  (** ["sheetscope-slo/v1"] of the shipped targets. *)
end

(** {1 Chrome trace export} *)

val to_chrome_trace : unit -> Obs_json.t
(** The profile ring in [trace_event] format (microsecond
    timestamps): a record with a duration is one complete (["X"])
    event named by its kind, with the record's fields as [args], and
    each of its nodes one ["X"] event (category ["node"], the node's
    fields as [args]) inside it; a record without a duration is an
    instant (["i"]) event. [otherData] carries the ring's drop count,
    {!Profile.well_nested} of the ring, and the current metrics,
    histogram and SLO snapshots. *)

val chrome_trace_string : unit -> string
(** {!to_chrome_trace}, pretty-printed. *)

val save_chrome_trace : path:string -> unit
(** Write {!chrome_trace_string} to a file ([--trace out.json] in
    [experiments] and [bench]). *)

val metrics_report : ?session:string -> unit -> string
(** The full observability snapshot as one human-readable block:
    counters/gauges (GC included), histogram percentiles, the SLO
    summary, and the ring's health (records, drops, nesting) — what
    the REPL [metrics] command prints. [session] filters the series as
    in {!Metrics.render}. *)
