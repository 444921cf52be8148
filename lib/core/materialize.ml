open Sheet_rel
module Obs = Sheet_obs.Obs

let c_evictions = Obs.Metrics.counter Obs.k_cache_evictions
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
  profiled ~uid @@ fun () ->
  Obs.Profile.note_strategy "full-replay";
  let t0 = Obs.now_ns () in
  Fun.protect
    ~finally:(fun () -> Obs.Histogram.record h_full (Obs.now_ns () - t0))
  @@ fun () -> Plan.execute ~uid (Plan.of_sheet sheet)

(* ---------- the materialization cache ----------

   One process-global table keyed by sheet uid; its lifecycle and its
   semantic hits are documented in materialize.mli. Each entry keeps
   the sheet beside its materialization, so a miss can look for a
   subsuming state. Each outcome is noted once, on the request's
   profile record, whose commit counts it in the Sheet_obs counters;
   [cache_stats] reads their movement since [reset_cache]. *)

type entry = { e_sheet : Spreadsheet.t; e_rel : Relation.t }

let cache : (int, entry) Hashtbl.t = Hashtbl.create 64

(* Insertion order of uids; uids are never reused, so a uid appears at
   most once and stays valid until evicted with its entry. *)
let cache_order : int Queue.t = Queue.create ()

let cache_limit = 512

(* A miss scans cached entries oldest-first for a subsumer, but runs
   the solver at most this many times (the structural checks are
   unbounded) so a pathological cache cannot stall lookups. *)
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

let read_counters () =
  Array.map Obs.Metrics.value_of
    [| Obs.k_cache_requests; Obs.k_cache_hits; Obs.k_cache_hits_subsumed;
       Obs.k_cache_misses; Obs.k_cache_seeds; Obs.k_cache_evictions |]

(* The counter readings at the last [reset_cache]. A reading below
   its baseline means [Obs.Metrics.reset] ran since; the movement is
   then counted from zero. *)
let baseline = ref (read_counters ())

let cache_stats () =
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
    entries = Hashtbl.length cache }

let reset_cache () =
  Hashtbl.reset cache;
  Queue.clear cache_order;
  baseline := read_counters ()

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

(* Scan for a cached state proven to subsume [sheet]'s. Oldest-first
   keeps the answer deterministic; the structural checks (same base
   relation, physically; then [State_subsume.check]'s own) are cheap,
   and only a call of the solver spends budget. *)
let find_subsumer (sheet : Spreadsheet.t) =
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
             then
               match
                 State_subsume.check ~type_of ~budget
                   ~candidate:sheet.Spreadsheet.state
                   ~cached:entry.e_sheet.Spreadsheet.state
               with
               | State_subsume.Incomparable _ -> ()
               | outcome ->
                   found := Some (entry, outcome);
                   raise Exit)
       cache_order
   with Exit -> ());
  !found

(* Answer [sheet] from a subsuming entry: keep only the rows passing
   [sheet]'s own selections (sound because State_subsume guaranteed
   identical schemas, computed cells and dedup survivors), then sort
   on [sheet]'s keys, none included. A sort breaks ties by root row
   id, so the entry's own order leaves no trace: the served order is
   a replay's, whatever happens to be cached — under Sheetserve's
   shared cache, whatever other sessions did. *)
let serve_subsumed (sheet : Spreadsheet.t) (cached_rel : Relation.t) =
  let filtered =
    List.fold_left
      (fun plan (s : Query_state.selection) ->
        Plan.Filter (s.Query_state.pred, plan))
      (Plan.Scan cached_rel) sheet.Spreadsheet.state.Query_state.selections
  in
  Plan.execute ~uid:sheet.Spreadsheet.uid (Plan.sorted sheet filtered)

let full_cached (sheet : Spreadsheet.t) =
  profiled ~uid:sheet.Spreadsheet.uid @@ fun () ->
  match Hashtbl.find_opt cache sheet.Spreadsheet.uid with
  | Some entry ->
      Obs.Profile.note_cache "exact";
      entry.e_rel
  | None -> (
      match find_subsumer sheet with
      | Some (entry, outcome) ->
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
          Obs.Profile.note_cache "miss";
          evict_if_over_limit ();
          let rel = full sheet in
          cache_insert sheet rel;
          rel)

(* noted on the deriving region of the same uid, or on its own record *)
let seed_cache (sheet : Spreadsheet.t) rel =
  ignore
    ( profiled ~uid:sheet.Spreadsheet.uid @@ fun () ->
      Obs.Profile.note_cache "seed";
      evict_if_over_limit ();
      cache_insert sheet rel;
      rel )

let visible (sheet : Spreadsheet.t) =
  Rel_algebra.project (Spreadsheet.visible_columns sheet)
    (full_cached sheet)

let current_base_rows (sheet : Spreadsheet.t) =
  Plan.execute ~uid:sheet.Spreadsheet.uid (Plan.base_rows sheet)
