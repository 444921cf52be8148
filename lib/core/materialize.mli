(** Materialization: evaluate a spreadsheet's query state against its
    base relation to produce the relation the user sees, and cache
    the result.

    Evaluation is {e precedence-stratified replay} (DESIGN.md §4),
    compiled by {!Plan.of_sheet} and run by {!Plan.execute} — the one
    evaluator of a query state:

    + apply every selection that references only base columns, then
      duplicate elimination if requested (stratum 0);
    + for each computed column in definition order: compute its cells
      (formulas row-wise; aggregates once per group at the column's
      group level, repeated on every row of the group — Table III),
      then apply the selections whose highest-ranked referenced column
      is this one;
    + sort into presentation order: the flat ordering that emulates
      the recursive grouping ({!Grouping.sort_keys}).

    This realizes the paper's commutativity (Theorem 2): the result
    depends only on the query state, never on the order in which the
    user issued the unary operators.

    This module answers with whole relations; what a screen shows of
    one — a window of rows, header markers, group breaks — is
    {!Render.page}'s. *)

open Sheet_rel

val full : Spreadsheet.t -> Relation.t
(** All columns (hidden ones included), rows in presentation order:
    [Plan.execute (Plan.of_sheet sheet)] inside a ["materialize"]
    profile region keyed on the sheet's uid (the plan's own region
    collapses into it) that notes a ["full-replay"] strategy, and a
    [materialize.full] histogram sample. *)

val full_cached : Spreadsheet.t -> Relation.t
(** Like {!full}, memoized on the sheet's {!Spreadsheet.t.uid}
    (sheets are immutable values, so the cache can never go stale).
    The interface layer reads the same sheet several times per step
    — status line, page views, [tree] — which this makes free.

    The cache is {e semantic}: on a uid miss it scans the cached
    states for one that {!State_subsume.check} proves subsumes the
    request (same base relation and computed columns, a provably
    weaker selection) and answers by re-filtering/re-sorting that
    entry's rows — a {e subsumed hit}, run as a Filter/Sort plan over
    a [Scan] of the cached relation — before falling back to a full
    replay. The re-sort runs on the request's sort keys, none
    included, and a sort breaks ties by root row id, so the served
    order is a full replay's whatever the entry's own order — under
    Sheetserve's shared cache, served rows do not depend on what
    other sessions happen to have materialized. Every answer equals
    {!full}, rows {e and} order (property-tested on the differential
    battery and hammered by [test/test_serve.ml]).
    A subsumed hit's profile label names the subsuming sheet and the
    proof only when that sheet's uid shares the request's arena
    ({!Spreadsheet.same_uid_arena}); a sheet of another session is
    just "another session's sheet". Bounded: past 512 entries the
    oldest half is evicted. *)

val visible : Spreadsheet.t -> Relation.t
(** {!full_cached} restricted to visible columns: the query's answer
    as a relation (what [Session.materialized], the SQL translation
    and the task checks compare). *)

val seed_cache : Spreadsheet.t -> Relation.t -> unit
(** Install a known-correct full materialization for a sheet (used by
    {!Incremental}). The caller guarantees the relation equals what
    {!full} would compute; noted on the deriving region, or alone. *)

(** {2 Cache lifecycle}

    [full_cached] and [seed_cache] share ONE process-global table
    keyed by sheet uid. Because every engine op returns a sheet with a
    fresh uid, entries never go stale; but the table is shared across
    every session/spreadsheet alive in the process, so tests that
    assert on hit/miss behaviour must call {!reset_cache} first.
    The cache takes no lock: like the rest of the engine, it is
    written by one thread at a time (the contract stated in
    {!Sheet_obs.Obs}, "One engine thread").
    Eviction drops the {e oldest half} (by insertion order) once more
    than 512 entries are resident, so a hot subsumer is not thrown
    away with the cold tail; the profile ring's [cache-eviction]
    event carries the actual evicted count. *)

type cache_stats = {
  requests : int;  (** every [full_cached] lookup *)
  hits : int;  (** exact: [full_cached] found the uid *)
  subsumed_hits : int;
      (** semantic: answered by re-filtering a proven subsumer *)
  misses : int;  (** [full_cached] had to replay *)
  seeds : int;  (** [seed_cache] installs (see {!Incremental}) *)
  evictions : int;  (** oldest-half drops past the 512-entry bound *)
  entries : int;  (** currently resident materializations *)
}

val cache_stats : unit -> cache_stats
(** The movement of the [Sheet_obs] [materialize.cache_*] counters
    since the last {!reset_cache} (or process start), all but
    evictions read off profile records as they commit. Never negative:
    a counter found below its reading at {!reset_cache} means
    [Obs.Metrics.reset] ran since, and the counters are then read
    from zero. *)

val reset_cache : unit -> unit
(** Drop every cached materialization and restart {!cache_stats} from
    zero (deterministic baseline for tests; does not touch the
    [Sheet_obs] registry). *)

val current_base_rows : Spreadsheet.t -> Relation.t
(** The paper's [R^j] ({!Plan.base_rows}, executed): the base
    relation filtered by the accumulated selections and duplicate
    elimination — base columns only, no presentation ordering. This
    is what binary operators combine. *)
