(* Morsel-parallel scan scheduling over OCaml 5 domains.

   A scan over [n] rows is split into fixed-size morsels pulled from
   an atomic work counter by [domain_count] domains (the coordinator
   participates). Results are returned per-morsel IN INDEX ORDER, so
   a caller concatenating them gets output bit-identical to a
   sequential pass — determinism comes from the merge order, not from
   scheduling.

   Morselization depends only on (n, parallel_threshold, morsel_rows)
   — never on the domain count — so the par.* counters and the
   par.morsel histogram read identically whether the morsels ran on
   one domain or eight (the @par gate replays TPC-H under 1 vs 4
   domains and asserts exactly that). Below [parallel_threshold] rows
   the scan runs as a single morsel on the calling domain, so small
   sheets never pay the machinery; with one domain the calling domain
   simply drains the morsel queue itself, spawning nothing. Worker
   domains persist across scans (see the pool below).

   Exception policy: every morsel runs to completion or failure, the
   coordinator waits for every morsel a worker claimed, and the error
   of the LOWEST-indexed failing morsel is re-raised — each morsel
   scans ascending row order, so that is the error the sequential
   pass would have hit first.

   Observability: since Sheetscope v3 the metric cells are sharded
   per domain and the event ring is mutex-protected, so each worker
   records its own morsels live — histogram sample, morsel counter,
   and (under an active sink) the span event — at the nesting depth
   the coordinator captured before the fan-out. The old post-join
   replay of pre-timed spans is gone. *)

module Obs = Sheet_obs.Obs

let g_domains = Obs.Metrics.gauge Obs.k_par_domains
let c_morsels = Obs.Metrics.counter Obs.k_par_morsels
let c_scans = Obs.Metrics.counter Obs.k_par_scans
let h_morsel = Obs.Histogram.histogram Obs.h_par_morsel

(* SHEETMUSIQ_DOMAINS is a positive integer. Anything else falls back
   to the recommended count and commits one env-warning record to the
   profile ring, once per process. *)
let warned = Atomic.make false

let env_domains () =
  match Sys.getenv_opt "SHEETMUSIQ_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ ->
          if not (Atomic.exchange warned true) then
            Obs.Profile.event ~kind:"env-warning"
              (Printf.sprintf
                 "SHEETMUSIQ_DOMAINS=%S is invalid; using \
                  Domain.recommended_domain_count"
                 s);
          None)

(* 0 = not yet resolved; resolution is deferred so tests can set the
   count before the first scan regardless of module init order. *)
let domains = ref 0

let domain_count () =
  if !domains = 0 then
    domains :=
      (match env_domains () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()));
  !domains

let set_domain_count n = domains := max 1 n
let reset_domain_count_for_tests () = domains := 0

let default_parallel_threshold = 32_768
let default_morsel_rows = 8_192

let parallel_threshold = ref default_parallel_threshold
let morsel_rows = ref default_morsel_rows
let set_parallel_threshold n = parallel_threshold := max 1 n
let set_morsel_rows n = morsel_rows := max 1 n

(* ---------- the worker pool ----------

   Worker domains are spawned once, on the first parallel scan that
   wants them, and park on [wake] between scans. A scan publishes one
   job — a closure that drains the scan's morsel counter — under
   [lock] and broadcasts; the coordinator drains the same counter
   itself, so a worker that wakes late finds nothing left and the
   scan never waits for a worker to wake. The coordinator then waits
   only for morsels a worker has claimed: it sleeps on [finished]
   until the count of finished morsels reaches the morsel count,
   woken by whichever domain finishes the last one.

   One scan owns the pool at a time ([busy]). A caller that finds it
   taken — another systhread (Sheetserve's handlers), or a [run]
   nested inside a morsel — drains its own morsels alone, with the
   same morselization, results and telemetry. *)

let lock = Mutex.create ()
let wake = Condition.create ()
let finished = Condition.create ()

(* the published job and its generation, both under [lock]; a parked
   worker runs each generation's job at most once *)
let job : (unit -> unit) ref = ref ignore
let generation = ref 0
let spawned = ref 0
let busy = Atomic.make false

let rec park seen =
  Mutex.lock lock;
  while !generation = seen do
    Condition.wait wake lock
  done;
  let gen = !generation and work = !job in
  Mutex.unlock lock;
  work ();
  park gen

(* Grow the pool to [k] parked workers; spawning fails only past the
   runtime's domain limit, and the scan then runs with those it has. *)
let ensure_workers k =
  while !spawned < k do
    let gen = !generation in
    match Domain.spawn (fun () -> park gen) with
    | _ -> incr spawned
    | exception _ -> spawned := k
  done

let publish work =
  Mutex.lock lock;
  job := work;
  incr generation;
  Condition.broadcast wake;
  Mutex.unlock lock

(* [run ~n f] evaluates [f lo hi] over a partition of [0, n) into
   half-open ranges and returns the results in range order. The
   sequential cutover returns [f]'s single result without copying, so
   [concat] on it is zero-cost. *)
let run ~n (f : int -> int -> 'a) : 'a array =
  if n = 0 then [||]
  else begin
    let d = domain_count () in
    Obs.Metrics.set g_domains d;
    let m = !morsel_rows in
    let nm = (n + m - 1) / m in
    if n < !parallel_threshold || nm = 1 then begin
      Obs.Metrics.incr c_morsels;
      [| f 0 n |]
    end
    else begin
      let results : 'a option array = Array.make nm None in
      let errors : exn option array = Array.make nm None in
      let next = Atomic.make 0 in
      let done_ = Atomic.make 0 in
      let emit = Obs.recording () in
      let depth = Obs.current_depth () in
      let morsel i =
        let lo = i * m in
        let hi = min n (lo + m) in
        let t0 = Obs.now_ns () in
        (match f lo hi with
        | x -> results.(i) <- Some x
        | exception e -> errors.(i) <- Some e);
        let dt = Obs.now_ns () - t0 in
        Obs.Histogram.record h_morsel dt;
        Obs.Metrics.incr c_morsels;
        if emit then
          Obs.emit ~kind:"morsel" ~rows_in:(hi - lo) ~depth ~start_ns:t0
            ~dur_ns:dt "par.morsel";
        if Atomic.fetch_and_add done_ 1 = nm - 1 then begin
          Mutex.lock lock;
          Condition.broadcast finished;
          Mutex.unlock lock
        end
      in
      let drain () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= nm then continue := false else morsel i
        done
      in
      let helpers = min (d - 1) (nm - 1) in
      if helpers > 0 && Atomic.compare_and_set busy false true then
        Fun.protect
          ~finally:(fun () -> Atomic.set busy false)
          (fun () ->
            ensure_workers helpers;
            let tickets = Atomic.make 0 in
            publish (fun () ->
                if Atomic.fetch_and_add tickets 1 < helpers then drain ());
            drain ();
            Mutex.lock lock;
            while Atomic.get done_ < nm do
              Condition.wait finished lock
            done;
            (* drop the finished job so its results are not kept alive *)
            job := ignore;
            Mutex.unlock lock)
      else drain ();
      Obs.Metrics.incr c_scans;
      let first_error = Array.find_opt Option.is_some errors in
      match first_error with
      | Some (Some e) -> raise e
      | _ ->
          Array.map
            (function Some x -> x | None -> assert false)
            results
    end
  end

(* Merge per-morsel output chunks in morsel order. The single-chunk
   case (sequential cutover) returns the chunk itself. *)
let concat (chunks : 'a array array) : 'a array =
  match Array.length chunks with
  | 0 -> [||]
  | 1 -> chunks.(0)
  | _ ->
      let total = Array.fold_left (fun acc c -> acc + Array.length c) 0 chunks in
      if total = 0 then [||]
      else begin
        let first =
          let rec nonempty i =
            if Array.length chunks.(i) > 0 then chunks.(i).(0)
            else nonempty (i + 1)
          in
          nonempty 0
        in
        let out = Array.make total first in
        let k = ref 0 in
        Array.iter
          (fun c ->
            Array.blit c 0 out !k (Array.length c);
            k := !k + Array.length c)
          chunks;
        out
      end
