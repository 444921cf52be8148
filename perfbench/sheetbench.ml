(* sheetbench: the SheetMusiq benchmark (see README.md).

     sheetbench --workload explore|theorem1 --seed N --seconds S
                --trace 0|1 --server PATH/sheetserved.exe [--commit ID]

   explore drives a separate sheetserved process over its Unix socket
   from one client, closed loop, no think time: the simulated user
   waits for the redisplay before the next gesture. theorem1 runs in
   process on one thread. Every run
   checks its results outside the timed window. With --trace 0 the last
   stdout line carries the end-to-end metrics; with --trace 1 it
   carries the per-layer metrics of a traced in-process replay of the
   same request streams, and a Chrome trace is written to
   .perfbench/. *)

module Obs = Sheet_obs.Obs
module B = Perfbench_core.Bench_core
module Tasks = Sheet_tpch.Tpch_tasks
open Sheet_rel
open Sheet_core
open Sheet_serve

let fail fmt = Printf.ksprintf failwith fmt
let now = Unix.gettimeofday
let ms t0 t1 = (t1 -. t0) *. 1000.
let out_dir = ".perfbench"

(* explore: v_lineitem_orders has about 30k rows; theorem1: about 60k *)
let explore_sf = 0.005
let theorem1_sf = 0.01

let tpch_seed = 42 (* sheetserved's default data seed *)

let generate_catalog sf =
  Sheet_tpch.Tpch_views.install
    (Sheet_tpch.Tpch_gen.generate { Sheet_tpch.Tpch_gen.sf; seed = tpch_seed })

(* Set-up is repeated, each time scaled by a calibration just before
   it, and the median reported. *)
let setup_repeats = 10

(* Materialize keeps at most this many sheet states and evicts the
   oldest half past it. The daemon's peak RSS is read once the sessions
   have made more states than that, so the figure covers a full cache
   and its first eviction, and a fixed amount of work rather than
   whatever a run's speed allowed. *)
let cache_limit = 512
let rss_sessions = (cache_limit / B.explore_states_per_session) + 1

(* theorem1's peak RSS is read after this many passes *)
let rss_passes = 3

(* time slices per explore run (see [Bench_core.slices]) *)
let slices = 20

(* ---- results ---- *)

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** why a request or check failed *)
  metrics : (string, float * int) Hashtbl.t;  (** value, sample count *)
}

let new_report () =
  { attempted = 0; failed = 0; notes = []; metrics = Hashtbl.create 64 }

let put r ?(n = 1) name v = Hashtbl.replace r.metrics name (v, n)
let note r msg = if List.length r.notes < 20 then r.notes <- msg :: r.notes

let vmhwm_mb proc =
  let path = Printf.sprintf "/proc/%s/status" proc in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> fail "no VmHWM in %s" path
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf
              (String.sub l 6 (String.length l - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* ---- host speed ---- *)

(* The shared host's speed drifts between runs and within them, in
   phases of seconds, and it slows the program's CPU time, not only its
   share of the CPU: the kernel below took a median 20 ms in one 40-s
   run and 29 ms in the next. So the end-to-end times are scaled by the
   host speed measured beside them (see [Bench_core.scale]): the kernel
   is timed before every explore session, theorem1 task and set-up.
   It is the benchmark's own code on the standard library and allocates
   almost nothing, so no change to the program or its heap moves it.
   It sorts a fixed permutation in place, then scatters it into a table
   four times its size. Returns (finish time, ms). *)
let cal_n = 1 lsl 16
let cal_src = Array.init cal_n (fun i -> ((i * 40_503) + 12_345) land (cal_n - 1))
let cal_buf = Array.make cal_n 0
let cal_table = Array.make (4 * cal_n) 0

let calibrate () =
  let t0 = now () in
  Array.blit cal_src 0 cal_buf 0 cal_n;
  Array.sort Int.compare cal_buf;
  Array.fill cal_table 0 (Array.length cal_table) (-1);
  let mask = Array.length cal_table - 1 in
  Array.iter (fun x -> cal_table.((x * 2654435761) land mask) <- x) cal_src;
  let t1 = now () in
  (t1, ms t0 t1)

(* [f ()]'s wall time in seconds, scaled by a calibration just before *)
let scaled_seconds f =
  let _, cal = calibrate () in
  let t0 = now () in
  f ();
  B.scale ~cal (now () -. t0)

(* ---- registry deltas for the per-layer numbers ---- *)

let counter_names =
  [
    Obs.k_engine_ops; Obs.k_engine_errors; Obs.k_incremental_derivations;
    Obs.k_incremental_fallbacks; Obs.k_full_replays; Obs.k_plan_rows_in;
    Obs.k_plan_rows_out; Obs.k_col_sel_rows_in; Obs.k_col_sel_rows_out;
    Obs.k_par_scans; Obs.k_par_morsels;
  ]

type registry_mark = { counters : (string * int) list; gc : Gc.stat }

let mark () =
  Materialize.reset_cache ();
  Obs.Histogram.reset ();
  {
    counters = List.map (fun k -> (k, Obs.Metrics.value_of k)) counter_names;
    gc = Gc.quick_stat ();
  }

(* Counter, cache, histogram and GC movement since [m], as per-layer
   metrics; [units] is what gc.alloc_mb is divided by (sessions, or
   tasks on theorem1). *)
let put_registry r m ~units =
  let d k = float_of_int (Obs.Metrics.value_of k - List.assoc k m.counters) in
  let share a b = if b = 0. then 0. else a /. b in
  let h name = Obs.Histogram.histogram name in
  let p50 name = Obs.Histogram.percentile (h name) 0.5 in
  let n name = Obs.Histogram.count (h name) in
  put r "engine.ops" (d Obs.k_engine_ops);
  put r "engine.errors" (d Obs.k_engine_errors);
  put r ~n:(n Obs.h_engine_apply) "engine.apply_us.p50"
    (p50 Obs.h_engine_apply /. 1e3);
  let derived = d Obs.k_incremental_derivations in
  put r "incremental.derive_share"
    (share derived (derived +. d Obs.k_incremental_fallbacks));
  put r ~n:(n Obs.h_incremental_derive) "incremental.derive_ms.p50"
    (p50 Obs.h_incremental_derive /. 1e6);
  let cs = Materialize.cache_stats () in
  let req = float_of_int cs.Materialize.requests in
  put r "cache.hit_share"
    (share (float_of_int (cs.Materialize.hits + cs.Materialize.subsumed_hits)) req);
  put r "cache.subsumed_share"
    (share (float_of_int cs.Materialize.subsumed_hits) req);
  put r "cache.evictions" (float_of_int cs.Materialize.evictions);
  put r "materialize.full_replays" (d Obs.k_full_replays);
  put r ~n:(n Obs.h_materialize_full) "materialize.full_ms.p50"
    (p50 Obs.h_materialize_full /. 1e6);
  put r "plan.rows_in_per_out"
    (share (d Obs.k_plan_rows_in) (d Obs.k_plan_rows_out));
  put r "columnar.sel_rows_in" (d Obs.k_col_sel_rows_in);
  put r "columnar.sel_rows_out" (d Obs.k_col_sel_rows_out);
  put r "par.scans" (d Obs.k_par_scans);
  put r "par.morsels" (d Obs.k_par_morsels);
  let g = Gc.quick_stat () in
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  put r ~n:units "gc.alloc_mb.per_session"
    ((words g -. words m.gc) *. 8. /. 1e6 /. float_of_int (max 1 units));
  put r "gc.minor_collections"
    (float_of_int (g.minor_collections - m.gc.minor_collections));
  put r "gc.major_collections"
    (float_of_int (g.major_collections - m.gc.major_collections))

(* Run [f] untraced, reading the registry movement it caused into
   the per-layer metrics; then with spans kept in memory, writing the
   trace out; then untraced again. The tracing overhead compares the
   last two, which both run warm. [f] starts from a cold cache each
   time. [units] is what gc.alloc_mb is divided by. *)
let traced_pair r ~trace_path ~units f =
  let timed g =
    Materialize.reset_cache ();
    let t0 = now () in
    let v = g () in
    (v, now () -. t0)
  in
  let m = mark () in
  let untraced, _ = timed f in
  put_registry r m ~units:(units untraced);
  Obs.clear_events ();
  Obs.set_sink Obs.Memory;
  let _, traced_s =
    Fun.protect ~finally:(fun () -> Obs.set_sink Obs.Off) (fun () -> timed f)
  in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Obs.save_chrome_trace ~path:trace_path;
  Obs.clear_events ();
  let _, warm_s = timed f in
  put r "trace.overhead_share" ((traced_s /. warm_s) -. 1.);
  untraced

(* ---- explore: one user over the socket ---- *)

(* One simulated user at a time, on one connection. Two closed-loop
   users contending for the engine lock fell into convoys that differed
   from run to run (explore's gesture p50 read either ~27 or ~37 ms),
   so one user is measured: the paper's single interactive user, who
   waits for each redisplay. *)

let is_view line = line = B.explore_view

type session_run = {
  index : int;
  arena : int;
  gestures : (string * (float * float)) list;
      (** kind, (completion time, client-observed ms) *)
  views : (float * float) list;  (** completion time, ms *)
  last_view : Protocol.response option;
  finished : float * float;  (** completion time, session seconds *)
}

exception Session_failed of string

let call r c req =
  r.attempted <- r.attempted + 1;
  match Net.Client.call c req with
  | Ok (Protocol.Refused { reason; _ }) ->
      r.failed <- r.failed + 1;
      raise (Session_failed reason)
  | Ok resp -> resp
  | Error e ->
      r.failed <- r.failed + 1;
      raise (Session_failed e)

(* One session, closed loop. *)
let run_session r c ~seed ~index =
  let gestures = ref [] and views = ref [] and last_view = ref None in
  let started = now () in
  let arena =
    match call r c (Protocol.Hello (Printf.sprintf "user%d" index)) with
    | Protocol.Welcome { arena; _ } -> arena
    | _ -> raise (Session_failed "hello: unexpected answer")
  in
  ignore (call r c (Protocol.Open B.explore_base));
  List.iter
    (fun line ->
      let t0 = now () in
      let resp = call r c (Protocol.Line line) in
      let t1 = now () in
      let sample = (t1, ms t0 t1) in
      if is_view line then begin
        views := sample :: !views;
        last_view := Some resp
      end
      else gestures := (B.kind_of_line line, sample) :: !gestures)
    (B.explore_session ~seed ~session:index);
  ignore (call r c Protocol.Quit);
  let t = now () in
  { index; arena; gestures = !gestures; views = !views; last_view = !last_view;
    finished = (t, t -. started) }

(* Sessions from number [from] on while [go index] holds; [quit] ends
   the connection, so each session opens its own. Each session is
   preceded by a calibration, added to [cals]. [on_done] is called
   after each completed session. Returns the next session number and
   the completed sessions in order. *)
let run_sessions r ~socket ~seed ~cals ~from ~go ~on_done =
  let rec loop index acc =
    if not (go index) then (index, List.rev acc)
    else begin
      cals := calibrate () :: !cals;
      let conn = Net.Client.connect ~path:socket in
      let acc =
        match run_session r conn ~seed ~index with
        | run ->
            on_done ();
            run :: acc
        | exception Session_failed why ->
            note r (Printf.sprintf "session %d: %s" index why);
            acc
      in
      Net.Client.close conn;
      loop (index + 1) acc
    end
  in
  loop from []

type daemon = { pid : int; socket : string; mutable reaped : bool }

let spawn_daemon ~exe ~sf k =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket =
    Filename.concat out_dir
      (Printf.sprintf "sheetserve-%d-%d.sock" (Unix.getpid ()) k)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; socket; "--sf"; Printf.sprintf "%g" sf |]
      devnull devnull devnull
  in
  Unix.close devnull;
  { pid; socket; reaped = false }

(* A daemon stopped before it has installed its signal handlers dies
   without unlinking its socket, so the path is removed here too. *)
let stop_daemon d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    d.reaped <- true
  end;
  try Sys.remove d.socket with Sys_error _ -> ()

let wait_ready d =
  let deadline = now () +. 150. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ ->
        d.reaped <- true;
        fail "sheetserved exited during start-up");
    match Net.Client.connect ~path:d.socket with
    | c -> (
        let r = Net.Client.call c Protocol.Ping in
        Net.Client.close c;
        match r with
        | Ok Protocol.Pong -> ()
        | _ -> fail "sheetserved did not answer ping")
    | exception Unix.Unix_error _ ->
        if now () > deadline then fail "sheetserved not ready";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* The serial ground truth: the session's stream replayed alone, in the
   uid arena the server gave it. Page views do not change the sheet, so
   only the last one is replayed, unless [on_view] asks to time each of
   them on a warm cache, which isolates rendering. *)
let serial_replay catalog ~arena ?on_view lines =
  Spreadsheet.reset_uid_arena arena;
  Spreadsheet.in_uid_arena arena @@ fun () ->
  match Sheet_sql.Catalog.find catalog B.explore_base with
  | None -> Error ("no base relation " ^ B.explore_base)
  | Some base ->
      let rec go session last = function
        | [] -> Ok (session, last)
        | line :: rest when is_view line && rest <> [] && on_view = None ->
            go session last rest
        | line :: rest -> (
            let view = is_view line in
            if view && on_view <> None then
              ignore (Materialize.full_cached (Session.current session));
            let t0 = now () in
            match Script.run_line session line with
            | Error msg -> Error (line ^ ": " ^ msg)
            | Ok o ->
                if view then Option.iter (fun f -> f (ms t0 (now ()))) on_view;
                go o.Script.session (if view then o.Script.output else last) rest
            )
      in
      go (Session.create ~name:B.explore_base base) None lines

(* the final page text, which also shows the row count *)
let same_final ~got ~last =
  match got with
  | Some (Protocol.Applied { output; _ }) -> output <> None && output = last
  | _ -> false

let check_sessions r catalog ~seed ?on_view runs =
  Materialize.reset_cache ();
  List.iter
    (fun run ->
      let lines = B.explore_session ~seed ~session:run.index in
      let failure =
        match serial_replay catalog ~arena:run.arena ?on_view lines with
        | Error msg -> Some ("serial replay: " ^ msg)
        | Ok (_, last) when same_final ~got:run.last_view ~last -> None
        | Ok _ -> Some "final view differs from serial replay"
      in
      Option.iter
        (fun why ->
          r.failed <- r.failed + 1;
          note r (Printf.sprintf "session %d: %s" run.index why))
        failure)
    runs

(* In-process replay of the same streams through the public server
   calls, each wrapped in a span so the engine's own spans nest under
   them. *)
type replay_samples = {
  mutable decode_req_us : float list;
  mutable handle : (string * float) list;  (** kind ("view" for views), ms *)
  mutable encode_view : float list;
  mutable decode_view : float list;
  mutable bytes_view : float list;
}

let replay_in_process catalog ~seed runs =
  let s =
    { decode_req_us = []; handle = []; encode_view = []; decode_view = [];
      bytes_view = [] }
  in
  let server = Server.create (Server.config (Sheet_sql.Catalog.find catalog)) in
  let request conn ~kind req =
    let line = Protocol.encode_request req in
    let t0 = now () in
    let decoded = Obs.with_span "protocol.decode_request" (fun () ->
        Protocol.decode_request line) in
    let t1 = now () in
    let resp =
      match decoded with
      | Error e -> fail "replay: request does not decode: %s" e
      | Ok req ->
          Obs.with_span ~kind "server.handle_request" (fun () ->
              Server.handle_request server conn req)
    in
    let t2 = now () in
    let out = Obs.with_span "protocol.encode_response" (fun () ->
        Protocol.encode_response resp) in
    let t3 = now () in
    let back = Obs.with_span "protocol.decode_response" (fun () ->
        Protocol.decode_response out) in
    let t4 = now () in
    (match back with
    | Ok (Protocol.Refused { reason; _ }) -> fail "replay refused: %s" reason
    | Error e -> fail "replay: response does not decode: %s" e
    | Ok _ -> ());
    s.decode_req_us <- (t1 -. t0) *. 1e6 :: s.decode_req_us;
    if kind <> "" then s.handle <- (kind, ms t0 t3) :: s.handle;
    if kind = "view" then begin
      s.encode_view <- ms t2 t3 :: s.encode_view;
      s.decode_view <- ms t3 t4 :: s.decode_view;
      s.bytes_view <- float_of_int (String.length out) :: s.bytes_view
    end
  in
  List.iter
    (fun run ->
      Obs.with_span ~kind:"session" "bench.session" @@ fun () ->
        let conn = Server.connect server in
        request conn ~kind:"" (Protocol.Hello (Printf.sprintf "replay%d" run.index));
        request conn ~kind:"" (Protocol.Open B.explore_base);
        List.iter
          (fun line ->
            let kind = if is_view line then "view" else B.kind_of_line line in
            request conn ~kind (Protocol.Line line))
          (B.explore_session ~seed ~session:run.index);
        request conn ~kind:"" Protocol.Quit)
    runs;
  s

let explore_workload r ~seed ~seconds ~trace ~exe ~trace_path =
  let repeats = if trace then 1 else setup_repeats in
  let setups = ref [] and daemon = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter stop_daemon !daemon)
    (fun () ->
      for k = 1 to repeats do
        Option.iter stop_daemon !daemon;
        let setup =
          scaled_seconds (fun () ->
              let d = spawn_daemon ~exe ~sf:explore_sf k in
              daemon := Some d;
              wait_ready d)
        in
        setups := setup :: !setups
      done;
      let d = Option.get !daemon in
      let peak_rss () = vmhwm_mb (string_of_int d.pid) in
      (* a traced run splits its time between the socket phase, the
         serial check and the three in-process replays *)
      let window = if trace then seconds *. 0.3 else seconds in
      let completed = ref 0 and rss = ref None in
      let on_done () =
        incr completed;
        if !completed = rss_sessions then rss := Some (peak_rss ())
      in
      let cals = ref [] in
      let run_sessions = run_sessions r ~socket:d.socket ~seed ~cals ~on_done in
      let t0 = now () in
      let deadline = t0 +. window in
      let next, runs = run_sessions ~from:0 ~go:(fun _ -> now () < deadline) in
      let t_end = now () and timed_cals = !cals in
      (* untimed sessions until the peak RSS mark, if the window ended
         before it *)
      let _, extra =
        if trace then (next, [])
        else
          run_sessions ~from:next ~go:(fun i ->
              !rss = None && i < next + (2 * rss_sessions))
      in
      (* busy rejections and memory, read before the daemon stops *)
      let busy =
        let c = Net.Client.connect ~path:d.socket in
        Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () ->
            match Net.Client.call c Protocol.Status with
            | Ok (Protocol.Stats { busy_rejections; _ }) -> busy_rejections
            | _ -> fail "sheetserved did not answer status")
      in
      let rss = match !rss with Some mb -> mb | None -> peak_rss () in
      stop_daemon d;
      let timed_gestures =
        List.concat_map (fun run -> List.map snd run.gestures) runs
      in
      let timed_views = List.concat_map (fun run -> run.views) runs in
      let gestures = List.map snd timed_gestures in
      let views = List.map snd timed_views in
      let catalog = generate_catalog explore_sf in
      if not trace then begin
        let sliced samples =
          B.scaled_slices ~k:slices ~t0 ~t1:t_end ~cals:timed_cals samples
        in
        let put_sliced name samples phi =
          put r ~n:(List.length samples) name
            (B.calm_over (sliced samples) (fun g -> B.pct g phi))
        in
        put_sliced "op_p50_ms" timed_gestures 0.5;
        put_sliced "op_p90_ms" timed_gestures 0.9;
        put_sliced "view_p50_ms" timed_views 0.5;
        put_sliced "view_p90_ms" timed_views 0.9;
        put r ~n:(List.length gestures) "op_p99_ms"
          (B.pct (List.concat (sliced timed_gestures)) 0.99);
        (* one user's closed loop: sessions over their summed scaled
           durations, which leaves the calibrations out *)
        let durations = List.concat (sliced (List.map (fun run -> run.finished) runs)) in
        put r ~n:(List.length runs) "throughput_per_s"
          (float_of_int (List.length durations) /. List.fold_left ( +. ) 0. durations);
        put r ~n:repeats "setup_s" (B.median !setups);
        put r ~n:rss_sessions "peak_rss_mb" rss;
        check_sessions r catalog ~seed (runs @ extra)
      end
      else begin
        let pages = ref [] in
        check_sessions r catalog ~seed
          ~on_view:(fun dt -> pages := dt :: !pages)
          runs;
        if !pages <> [] then
          put r ~n:(List.length !pages) "render.page_ms.p50" (B.median !pages);
        put r "server.busy_rejections" (float_of_int busy);
        let s =
          traced_pair r ~trace_path
            ~units:(fun _ -> List.length runs)
            (fun () -> replay_in_process catalog ~seed runs)
        in
        let handle_views = List.filter_map (fun (k, v) -> if k = "view" then Some v else None) s.handle in
        let handle_gestures = List.filter_map (fun (k, v) -> if k = "view" then None else Some v) s.handle in
        let p50 = B.median in
        put r ~n:(List.length s.encode_view) "protocol.encode_ms.view" (p50 s.encode_view);
        put r ~n:(List.length s.decode_view) "protocol.decode_ms.view" (p50 s.decode_view);
        put r ~n:(List.length s.bytes_view) "protocol.bytes.view" (p50 s.bytes_view);
        put r ~n:(List.length s.decode_req_us) "protocol.decode_us.request" (p50 s.decode_req_us);
        put r ~n:(List.length handle_gestures) "server.handle_ms.gesture_p50" (p50 handle_gestures);
        put r ~n:(List.length handle_views) "server.handle_ms.view_p50" (p50 handle_views);
        List.iter
          (fun kind ->
            (* the page views are the only print lines *)
            let xs =
              if kind = "print" then handle_views
              else List.filter_map (fun (k, v) -> if k = kind then Some v else None) s.handle
            in
            if xs <> [] then put r ~n:(List.length xs) ("server.handle_ms." ^ kind) (p50 xs))
          B.gesture_kinds;
        put r ~n:(List.length gestures) "net.wait_ms.gesture_p50"
          (p50 gestures -. p50 handle_gestures);
        put r ~n:(List.length views) "net.wait_ms.view_p50"
          (p50 views -. p50 handle_views -. p50 s.decode_view)
      end)

(* ---- theorem1: in process, one thread ---- *)

type task_run = {
  task : Tasks.t;
  sql : (Relation.t, string) result;
  translated : (Relation.t, string) result;
  sheet : (Relation.t, string) result;
  times : (string * float) list;  (** layer, ms *)
}

(* One task through the SQL executor, the Theorem-1 translation and
   the task's own sheet script. [split_translate] also times
   [Sql_to_sheet.translate] on its own (traced runs only: it repeats
   work [execute] does). *)
let run_task catalog ~split_translate (task : Tasks.t) =
  let timed name f =
    let t0 = now () in
    let v = Obs.with_span ~kind:"theorem1" name f in
    (v, (name, ms t0 (now ())))
  in
  Obs.with_span ~kind:"task" "bench.task" @@ fun () ->
  match timed "sql.parse" (fun () -> Sheet_sql.Sql_parser.parse task.sql) with
  | Error e, _ -> { task; sql = Error e; translated = Error e; sheet = Error e; times = [] }
  | Ok q, t_parse ->
      let sql, t_run = timed "sql.run" (fun () -> Sheet_sql.Sql_executor.run catalog q) in
      let t_translate =
        if split_translate then
          [ snd (timed "sql.translate" (fun () -> Sheet_sql.Sql_to_sheet.translate catalog q)) ]
        else []
      in
      let translated, t_exec =
        timed "sheet.execute" (fun () -> Sheet_sql.Sql_to_sheet.execute catalog q)
      in
      let sheet, t_script =
        timed "sheet.script" (fun () -> Tasks.sheet_result catalog task)
      in
      { task; sql; translated; sheet;
        times = (t_parse :: t_run :: t_translate) @ [ t_exec; t_script ] }

(* Whole passes only, so every pass weighs each task once; the pass
   under way at the deadline runs to its end. With [calibrate], each
   task is preceded by a calibration, and a pass's times are scaled by
   the median of its calibrations. *)
let run_passes catalog ~seed ~split_translate ~calibrate:calibrated ~until =
  let rec go pass acc =
    if until pass then List.rev acc
    else begin
      Materialize.reset_cache ();
      let cals = ref [] in
      let runs =
        List.map
          (fun task ->
            if calibrated then cals := snd (calibrate ()) :: !cals;
            run_task catalog ~split_translate task)
          (B.theorem1_pass ~seed ~pass)
      in
      let runs =
        if not calibrated then runs
        else
          let cal = B.median !cals in
          List.map
            (fun t -> { t with times = List.map (fun (l, v) -> (l, B.scale ~cal v)) t.times })
            runs
      in
      go (pass + 1) (runs :: acc)
    end
  in
  go 0 []

let check_tasks r runs =
  List.iter
    (fun t ->
      r.attempted <- r.attempted + 1;
      let agree =
        match (t.sql, t.translated, t.sheet) with
        | Ok a, Ok b, Ok c ->
            Relation.equal_unordered_data a b && Relation.equal_unordered_data a c
        | _ -> false
      in
      if not agree then begin
        r.failed <- r.failed + 1;
        note r (Printf.sprintf "task %d: SQL, translated and scripted results differ"
                  t.task.Tasks.id)
      end)
    runs

let time_of layer t = List.assoc layer t.times

(* Each generation, and the passes after them, start from a compacted
   heap holding at most the catalog, so neither the set-up time nor the
   peak RSS hinge on when the GC ran during earlier generations. *)
let theorem1_workload r ~seed ~seconds ~trace ~trace_path =
  let repeats = if trace then 1 else setup_repeats in
  let setups = ref [] and catalog = ref None in
  for _ = 1 to repeats do
    catalog := None;
    Gc.compact ();
    let setup =
      scaled_seconds (fun () -> catalog := Some (generate_catalog theorem1_sf))
    in
    setups := setup :: !setups
  done;
  let catalog = Option.get !catalog in
  Gc.compact ();
  if not trace then begin
    put r "setup_rss_mb" (vmhwm_mb "self");
    let deadline = now () +. seconds in
    let rss = ref None in
    let passes =
      run_passes catalog ~seed ~split_translate:false ~calibrate:true ~until:(fun p ->
          if p = rss_passes then rss := Some (vmhwm_mb "self");
          now () >= deadline)
    in
    let runs = List.concat passes in
    (* each task's calm quartile over the passes stands for the task *)
    let op t = List.fold_left (fun a (_, v) -> a +. v) 0. t.times in
    let per_task f =
      List.map
        (fun (task : Tasks.t) ->
          B.calm
            (List.filter_map
               (fun t -> if t.task.Tasks.id = task.id then Some (f t) else None)
               runs))
        B.theorem1_tasks
    in
    let ops = per_task op and views = per_task (time_of "sheet.script") in
    let n = List.length runs in
    put r ~n "op_p50_ms" (B.pct ops 0.5);
    put r ~n "op_p90_ms" (B.pct ops 0.9);
    put r ~n "view_p50_ms" (B.pct views 0.5);
    put r ~n "view_p90_ms" (B.pct views 0.9);
    put r ~n "throughput_per_s"
      (float_of_int (List.length ops) /. (List.fold_left ( +. ) 0. ops /. 1000.));
    put r ~n:repeats "setup_s" (B.median !setups);
    put r ~n:rss_passes "peak_rss_mb"
      (match !rss with Some mb -> mb | None -> vmhwm_mb "self");
    check_tasks r runs
  end
  else begin
    (* as many whole passes as fit in a third of the time; [traced_pair]
       then repeats them traced and untraced *)
    let deadline = now () +. (seconds /. 3.) in
    let pass_count = ref 0 in
    let passes =
      traced_pair r ~trace_path
        ~units:(fun ps -> List.length (List.concat ps))
        (fun () ->
          let run_passes = run_passes catalog ~seed ~split_translate:true ~calibrate:false in
          if !pass_count = 0 then
            run_passes ~until:(fun p ->
                if now () >= deadline then (pass_count := p; true) else false)
          else run_passes ~until:(fun p -> p >= !pass_count))
    in
    let runs = List.concat passes in
    List.iter
      (fun layer ->
        let xs = List.map (time_of layer) runs in
        put r ~n:(List.length xs) (layer ^ "_ms") (B.median xs))
      [ "sql.parse"; "sql.run"; "sql.translate"; "sheet.execute"; "sheet.script" ];
    check_tasks r runs
  end

(* ---- output ---- *)

let stamp ~wl_name ~seed ~seconds ~trace ~commit =
  Printf.printf
    "sheetbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s \
     SHEETMUSIQ_DOMAINS=%s commit=%s\n"
    wl_name seed seconds (if trace then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "SHEETMUSIQ_DOMAINS") ~default:"default")
    commit

let emit r ~trace =
  let catalogue = if trace then B.per_layer else B.end_to_end in
  (* the human-readable table, every figure with its sample count *)
  List.iter
    (fun (name, unit) ->
      match Hashtbl.find_opt r.metrics name with
      | Some (v, n) -> Printf.printf "  %-32s %14.4f %-6s (n=%d)\n" name v unit n
      | None -> Printf.printf "  %-32s %14s %-6s (not exercised)\n" name "0" unit)
    catalogue;
  Hashtbl.iter
    (fun name (v, n) ->
      if not (List.mem_assoc name catalogue) then
        Printf.printf "  %-32s %14.4f        (n=%d, not guarded)\n" name v n)
    r.metrics;
  Printf.printf "  attempted %d, failed %d, failed_share %.6f\n" r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  List.iter (Printf.printf "  FAIL %s\n") (List.rev r.notes);
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.fold ~none:0. ~some:fst (Hashtbl.find_opt r.metrics name) in
        if not (Float.is_finite v) then fail "metric %s is not finite" name;
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      catalogue
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let server = ref "" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME explore or theorem1");
      ("--seed", Arg.Set_int seed, "N stream seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--server", Arg.Set_string server, "PATH sheetserved executable");
      ("--commit", Arg.Set_string commit, "ID source revision for the stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sheetbench --workload NAME --seed N --seconds S --trace 0|1 --server PATH";
  let traced = !trace = 1 in
  stamp ~wl_name:!workload ~seed:!seed ~seconds:!seconds ~trace:traced ~commit:!commit;
  let trace_path =
    Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed)
  in
  let r = new_report () in
  (match !workload with
  | "explore" ->
      if !server = "" then raise (Arg.Bad "--server is required");
      explore_workload r ~seed:!seed ~seconds:!seconds ~trace:traced ~exe:!server
        ~trace_path
  | "theorem1" -> theorem1_workload r ~seed:!seed ~seconds:!seconds ~trace:traced ~trace_path
  | w -> raise (Arg.Bad ("unknown workload " ^ w)));
  if traced then Printf.printf "  chrome trace: %s\n" trace_path;
  emit r ~trace:traced
