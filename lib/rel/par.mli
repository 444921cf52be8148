(** Morsel-parallel scan scheduling over OCaml 5 domains.

    Scans split into fixed-size morsels pulled from an atomic counter
    by [domain_count] domains; per-morsel results come back in morsel
    order, so concatenation is bit-identical to a sequential pass.
    Morselization depends only on the row count and the
    threshold/morsel-size knobs — never on the domain count — so the
    [par.*] telemetry is identical whatever the parallelism (the
    [@par] gate asserts it). Small inputs (below
    {!set_parallel_threshold}'s value, default 32768 rows) run as one
    morsel on the calling domain. The domain count resolves from
    [SHEETMUSIQ_DOMAINS], else [Domain.recommended_domain_count ()];
    an invalid value falls back to the latter and commits one
    [env-warning] record to the profile ring per process.

    Worker domains persist: the first parallel scan that wants them
    spawns them ([domain_count () - 1] at most), and between scans
    they park on a condition variable. A scan publishes its morsel
    counter to the parked workers and drains it itself, so it never
    waits for a worker to wake; it then waits only for morsels a
    worker has claimed, until the count of finished morsels reaches
    the morsel count. One scan uses the pool at a time: a caller that
    finds it busy — another systhread (Sheetserve's handlers), or a
    [run] nested inside a morsel — runs its morsels alone, with the
    same morselization, results and telemetry.

    On a morsel failure every morsel still runs to completion or
    failure and the lowest-indexed morsel's exception is re-raised —
    the error the sequential scan would have hit first. *)

val run : n:int -> (int -> int -> 'a) -> 'a array
(** [run ~n f] evaluates [f lo hi] over a partition of [0, n) into
    half-open morsel ranges; results in range order. [f] runs on
    worker domains: it may record Sheetscope metrics, histograms and
    completed spans (all domain-safe since v3) but must not open
    spans or touch other single-writer state. It may call [run]
    itself (that scan runs on the calling domain), and [run] may be
    called from several systhreads at once. Each executing domain
    feeds the [par.*] counters, the [par.morsel] histogram and, under
    an active sink, one live span event per morsel at the
    coordinator's nesting depth. *)

val concat : 'a array array -> 'a array
(** Merge per-morsel chunks in morsel order; the single-chunk case is
    zero-copy. *)

val domain_count : unit -> int
val set_domain_count : int -> unit

val reset_domain_count_for_tests : unit -> unit
(** Forget the resolved count so the next {!domain_count} re-reads
    [SHEETMUSIQ_DOMAINS] — lets tests exercise the env parsing. *)

val set_parallel_threshold : int -> unit
val set_morsel_rows : int -> unit

val default_parallel_threshold : int
val default_morsel_rows : int
