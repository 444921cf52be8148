(** Sheetdoctor — anomaly detection over the Sheetscope profile ring.

    Where {!Sheetlint} analyzes the query {e before} it runs, the
    doctor reads what actually happened: the per-query execution
    profiles ({!Sheet_obs.Obs.Profile}), the materialization cache
    statistics, the live metric registry and the SLO verdicts. Every
    detector is a heuristic — findings are {!Diagnostic.t}s, reusing
    the lint severity scale, and the pass itself never raises.

    Detectors:
    - [row-path-fallback] (warning when the region touched >= 512
      rows, hint below): a selection predicate could not compile to a
      selection vector; the message names the blocking subtree.
    - [cache-thrash] (warning): the materialization cache evicted
      entries but never answered a subsumed hit.
    - [slo-burn] (error): a declared SLO with data is failing.
    - [sort-dominated] (hint): a sort node takes more than half of a
      region at least 1 ms long. *)

val examine : Sheet_obs.Obs.Profile.t -> Diagnostic.t list
(** Detectors that read a single profile record. *)

val run : unit -> Diagnostic.t list
(** All detectors over the whole ring and registry, sorted errors
    first. Never raises. *)

val render : unit -> string
(** {!Diagnostic.render} of {!run} — or ["no diagnostics"]. *)

val summary : unit -> string
(** One-line status chip, e.g. ["doctor: ok"] or
    ["doctor: 1 error, 2 warn"] — the TUI status bar shows this. *)
