open Sheet_rel
module Obs = Sheet_obs.Obs

let c_requests = Obs.Metrics.counter Obs.k_cache_requests
let c_hits = Obs.Metrics.counter Obs.k_cache_hits
let c_hits_subsumed = Obs.Metrics.counter Obs.k_cache_hits_subsumed
let c_misses = Obs.Metrics.counter Obs.k_cache_misses
let c_evictions = Obs.Metrics.counter Obs.k_cache_evictions
let c_seeds = Obs.Metrics.counter Obs.k_cache_seeds
let c_full_replays = Obs.Metrics.counter Obs.k_full_replays
let h_full = Obs.Histogram.histogram Obs.h_materialize_full

(* Run [f ()] inside a Sheetdoctor profile region keyed on the sheet's
   uid; when an enclosing region already covers the same uid (e.g.
   [full] reached through a [full_cached] miss) the nested enter is
   collapsed so one request yields one record — and so does the
   region [Plan.execute] opens underneath. *)
let profiled ~uid f =
  Obs.Profile.region ~kind:"materialize" ~uid ~rows_out:Relation.cardinality f

let full (sheet : Spreadsheet.t) =
  let uid = sheet.Spreadsheet.uid in
  Obs.Metrics.incr c_full_replays;
  profiled ~uid @@ fun () ->
  Obs.Profile.note_strategy "full-replay";
  let t0 = Obs.now_ns () in
  Fun.protect
    ~finally:(fun () -> Obs.Histogram.record h_full (Obs.now_ns () - t0))
  @@ fun () -> Plan.execute ~uid (Plan.of_sheet sheet)

(* ---------- the materialization cache ----------

   One process-global table keyed by sheet uid, shared by
   [full_cached] (fill on miss) and [seed_cache] (externally derived
   fills, see Incremental). Sheets are immutable and every engine op
   bumps the uid, so entries can never go stale; the only lifecycle
   events are oldest-half eviction past [cache_limit] and explicit
   [reset_cache]. Each outcome is counted once, in the Sheet_obs
   counters, and noted once on the request's profile record;
   [cache_stats] reads the counters' movement since [reset_cache].

   Each entry keeps the sheet alongside its materialization, which
   makes the cache {e semantic}: a miss first scans the cached states
   for one that {!State_subsume.check} proves subsumes the request
   (same base relation — compared physically, since engine-derived
   sheets share it — same computed columns, a provably weaker
   selection) and answers by re-filtering/re-sorting the cached rows
   instead of replaying the base data. Exact hits, subsumed hits and
   misses are counted distinctly. *)

type entry = { e_sheet : Spreadsheet.t; e_rel : Relation.t }

(* One mutex linearizes every cache operation: Sheetserve handler
   threads (and the concurrency tests) call [full_cached] from many
   threads at once, and the lock is what keeps the hit-kind accounting
   exact (requests = exact + subsumed + miss) and the table free of
   torn states. It is held across the full replay on a miss, which
   also keeps the single-writer telemetry underneath (the profile
   region stack) sequential. Never call back into this module while
   holding it — the lock is not reentrant. *)
let cache_mutex = Mutex.create ()

let with_cache_lock f =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

let cache : (int, entry) Hashtbl.t = Hashtbl.create 64

(* Insertion order of uids; uids are never reused, so a uid appears at
   most once and stays valid until evicted with its entry. *)
let cache_order : int Queue.t = Queue.create ()

let cache_limit = 512

(* A miss scans cached entries oldest-first for a subsumer, but gives
   up after this many full solver checks (cheap structural prechecks
   are unbounded) so a pathological cache cannot stall lookups. *)
let scan_budget = 32

type cache_stats = {
  requests : int;
  hits : int;
  subsumed_hits : int;
  misses : int;
  seeds : int;
  evictions : int;
  entries : int;
}

let counters =
  [| c_requests; c_hits; c_hits_subsumed; c_misses; c_seeds; c_evictions |]

let read_counters () = Array.map Obs.Metrics.get counters

(* The counter readings at the last [reset_cache]. The counters only
   move under the cache lock, so a read under it is consistent. A
   reading below its baseline means [Obs.Metrics.reset] ran since;
   the movement is then counted from zero. *)
let baseline = ref (read_counters ())

let cache_stats () =
  with_cache_lock (fun () ->
      let now = read_counters () in
      let base =
        if Array.exists2 ( < ) now !baseline then Array.map (fun _ -> 0) now
        else !baseline
      in
      let d i = now.(i) - base.(i) in
      { requests = d 0;
        hits = d 1;
        subsumed_hits = d 2;
        misses = d 3;
        seeds = d 4;
        evictions = d 5;
        entries = Hashtbl.length cache })

let reset_cache () =
  with_cache_lock (fun () ->
      Hashtbl.reset cache;
      Queue.clear cache_order;
      baseline := read_counters ())

let cache_insert (sheet : Spreadsheet.t) rel =
  let uid = sheet.Spreadsheet.uid in
  if not (Hashtbl.mem cache uid) then Queue.push uid cache_order;
  Hashtbl.replace cache uid { e_sheet = sheet; e_rel = rel }

(* Evict the oldest half, so a hot subsumer is not thrown away with
   the cold tail. *)
let evict_if_over_limit () =
  let n = Hashtbl.length cache in
  if n > cache_limit then begin
    let target = n / 2 in
    let removed = ref 0 in
    while !removed < target && not (Queue.is_empty cache_order) do
      let uid = Queue.pop cache_order in
      if Hashtbl.mem cache uid then begin
        Hashtbl.remove cache uid;
        incr removed
      end
    done;
    Obs.Metrics.incr c_evictions;
    Obs.Profile.event ~kind:"cache-eviction"
      (Printf.sprintf "oldest half, %d of %d entries" !removed n)
  end

(* Order safety: the subsumed path answers by re-sorting the cached
   rows, and a stable sort leaves ties in the input's order — so the
   served row order reproduces a full replay's (ties in base order)
   only when the cached entry's sort keys are a prefix of the
   candidate's (empty and equal included). Anything else would leak
   the subsumer's tie arrangement into the answer, making the visible
   order depend on what happens to be cached — under Sheetserve's
   shared cache, on other sessions' timing. Such entries are skipped;
   the request simply falls through to the next candidate or a miss. *)
let keys_prefix shorter longer =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | (a : string * Grouping.dir) :: xs, b :: ys -> a = b && go (xs, ys)
  in
  go (shorter, longer)

(* Scan for a cached state proven to subsume [sheet]'s. Oldest-first
   keeps the answer deterministic; the structural prechecks (same base
   relation, physically; order-safe sort keys; a selection the entry
   does not trivially fail) are cheap, and only candidates that pass
   them spend solver budget. *)
let find_subsumer (sheet : Spreadsheet.t) =
  let candidate_keys = Grouping.sort_keys (Spreadsheet.grouping sheet) in
  let type_of = Schema.type_of (Spreadsheet.full_schema sheet) in
  let budget = ref scan_budget in
  let found = ref None in
  (try
     Queue.iter
       (fun uid ->
         match Hashtbl.find_opt cache uid with
         | None -> ()
         | Some entry ->
             if
               uid <> sheet.Spreadsheet.uid
               && entry.e_sheet.Spreadsheet.base == sheet.Spreadsheet.base
               && keys_prefix
                    (Grouping.sort_keys
                       (Spreadsheet.grouping entry.e_sheet))
                    candidate_keys
             then begin
               if !budget <= 0 then raise Exit;
               decr budget;
               match
                 State_subsume.check ~type_of
                   ~candidate:sheet.Spreadsheet.state
                   ~cached:entry.e_sheet.Spreadsheet.state
               with
               | State_subsume.Incomparable _ -> ()
               | outcome ->
                   found := Some (entry, outcome);
                   raise Exit
             end)
       cache_order
   with Exit -> ());
  !found

(* Answer [sheet] from a subsuming entry: keep only the rows passing
   [sheet]'s own selections (sound because State_subsume guaranteed
   identical schemas, computed cells and dedup survivors), then
   re-sort for [sheet]'s grouping/ordering. *)
let serve_subsumed (sheet : Spreadsheet.t) (cached_rel : Relation.t) =
  let filtered =
    List.fold_left
      (fun plan (s : Query_state.selection) ->
        Plan.Filter (s.Query_state.pred, plan))
      (Plan.Scan cached_rel) sheet.Spreadsheet.state.Query_state.selections
  in
  Plan.execute ~uid:sheet.Spreadsheet.uid (Plan.sorted sheet filtered)

let full_cached (sheet : Spreadsheet.t) =
  with_cache_lock @@ fun () ->
  Obs.Metrics.incr c_requests;
  profiled ~uid:sheet.Spreadsheet.uid @@ fun () ->
  match Hashtbl.find_opt cache sheet.Spreadsheet.uid with
  | Some entry ->
      Obs.Metrics.incr c_hits;
      Obs.Profile.note_cache "exact";
      entry.e_rel
  | None -> (
      match find_subsumer sheet with
      | Some (entry, outcome) ->
          Obs.Metrics.incr c_hits_subsumed;
          (* the label lands in the requesting session's telemetry: a
             sheet of another arena is named by neither its uid nor
             the proof, which can name its columns *)
          let from = entry.e_sheet.Spreadsheet.uid in
          Obs.Profile.note_cache
            ~label:
              (if Spreadsheet.same_uid_arena from sheet.Spreadsheet.uid then
                 Printf.sprintf "from sheet #%d: %s" from
                   (State_subsume.describe outcome)
               else "from another session's sheet")
            "subsumed";
          let rel = serve_subsumed sheet entry.e_rel in
          evict_if_over_limit ();
          cache_insert sheet rel;
          rel
      | None ->
          Obs.Metrics.incr c_misses;
          Obs.Profile.note_cache "miss";
          evict_if_over_limit ();
          let rel = full sheet in
          cache_insert sheet rel;
          rel)

let seed_cache (sheet : Spreadsheet.t) rel =
  with_cache_lock (fun () ->
      Obs.Metrics.incr c_seeds;
      Obs.Profile.note_cache "seed";
      evict_if_over_limit ();
      cache_insert sheet rel)

let visible (sheet : Spreadsheet.t) =
  Rel_algebra.project (Spreadsheet.visible_columns sheet)
    (full_cached sheet)

let current_base_rows (sheet : Spreadsheet.t) =
  Plan.execute ~uid:sheet.Spreadsheet.uid (Plan.base_rows sheet)
