(* Sheetserve load driver: replay hundreds of concurrent simulated
   study users against a live server and prove the result is the same
   as if each had the machine to themselves.

   Each simulated user is one [Study.Sheetmusiq_model.op_stream] —
   the task's direct-manipulation script with that subject's
   deterministic mistake/undo/retry detours — sent line by line over
   a Unix socket; every eighth user runs the tie probe instead (see
   [tie_probe]). All sessions share the process's semantic
   materialization cache. After the concurrent phase, every session
   is replayed serially in its own uid arena (after
   [reset_uid_arena] + [Materialize.reset_cache]) and the driver
   asserts the concurrent result is bit-identical to a full replay of
   the final state: same rows, same order, same final uid.

   Reports sessions/sec, op-latency percentiles and cache hit ratios;
   [--json BENCH_sheetmusiq.json] merges them under the regression-
   guarded [serve/] prefix (tools/bench_diff.ml).

     dune exec tools/serve_load.exe -- --sessions 200 *)

module Obs = Sheet_obs.Obs
module J = Sheet_obs.Obs_json
open Sheet_core
open Sheet_serve

type user_result = {
  u_arena : int;
  u_uid : int;
  u_columns : (string * Sheet_rel.Value.vtype) list;
  u_rows : Sheet_rel.Value.t list list;
  u_ops : int;
  u_wall_ns : int;
}

let ns_of_s s = int_of_float (s *. 1e9)

let percentile arr phi =
  let len = Array.length arr in
  if len = 0 then 0
  else begin
    let rank = int_of_float (ceil (phi *. float_of_int len)) in
    arr.(max 0 (min (len - 1) (rank - 1)))
  end

let rec retry_connect ~path attempts =
  match Net.Client.connect ~path with
  | c -> c
  | exception Unix.Unix_error _ when attempts > 0 ->
      Thread.delay 0.01;
      retry_connect ~path (attempts - 1)

(* busy is the admission controller talking, not an error: back off
   and resend *)
let rec call_admitted c req =
  match Net.Client.call_exn c req with
  | Protocol.Refused { busy = true; _ } ->
      Thread.delay 0.005;
      call_admitted c req
  | resp -> resp

let fail fmt = Printf.ksprintf failwith fmt

(* A stream whose last state is served as a subsumed hit from an
   entry sorted on other keys. The query modification tightens the
   first selection and is not materialized when it is applied, so the
   [rows] that follows asks the cache for a state it has not seen. Its
   subsumers (the same selection and formula, loosened) are grouped
   on l_shipmode, or derived from that grouping; the state itself
   sorts on l_returnflag, so each of its three tie runs must come out
   in base-row order, as the full replay it is checked against leaves
   them, and not in the subsumer's shipmode order. *)
let tie_probe =
  List.map
    (fun line -> { Sheet_study.Sheetmusiq_model.line; think_s = 0. })
    [ "select l_quantity >= 5";
      "group l_shipmode asc";
      "formula net = l_extendedprice * (1 - l_discount)";
      "ungroup";
      "order l_returnflag asc";
      "replace 1 l_quantity >= 20" ]

let run_user ~path ~think ~client ~base steps latencies =
  let started = Unix.gettimeofday () in
  let c = retry_connect ~path 500 in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let arena =
    match call_admitted c (Protocol.Hello client) with
    | Protocol.Welcome { arena; _ } -> arena
    | r -> fail "%s: hello answered %s" client (Protocol.encode_response r)
  in
  (match call_admitted c (Protocol.Open base) with
  | Protocol.Opened _ -> ()
  | r -> fail "%s: open answered %s" client (Protocol.encode_response r));
  let ops = ref 0 in
  List.iter
    (fun (step : Sheet_study.Sheetmusiq_model.step) ->
      if think > 0. then Thread.delay (step.think_s *. think);
      let t0 = Unix.gettimeofday () in
      (match call_admitted c (Protocol.Line step.line) with
      | Protocol.Applied _ -> ()
      | r ->
          fail "%s: %S answered %s" client step.line
            (Protocol.encode_response r));
      latencies := ns_of_s (Unix.gettimeofday () -. t0) :: !latencies;
      incr ops)
    steps;
  let uid, columns, rows =
    match call_admitted c Protocol.Rows with
    | Protocol.Table { uid; columns; rows } -> (uid, columns, rows)
    | r -> fail "%s: rows answered %s" client (Protocol.encode_response r)
  in
  (match call_admitted c Protocol.Quit with
  | Protocol.Bye -> ()
  | r -> fail "%s: quit answered %s" client (Protocol.encode_response r));
  {
    u_arena = arena;
    u_uid = uid;
    u_columns = columns;
    u_rows = rows;
    u_ops = !ops;
    u_wall_ns = ns_of_s (Unix.gettimeofday () -. started);
  }

(* the serial ground truth: same arena, same stream, then a full
   replay of the final state, which no cache entry can reorder *)
let serial_replay catalog ~base steps arena =
  Spreadsheet.reset_uid_arena arena;
  Spreadsheet.in_uid_arena arena @@ fun () ->
  match Sheet_sql.Catalog.find catalog base with
  | None -> Error ("no base relation " ^ base)
  | Some rel ->
      let session = ref (Session.create ~name:base rel) in
      let err = ref None in
      List.iter
        (fun (step : Sheet_study.Sheetmusiq_model.step) ->
          if !err = None then
            match Script.run_line !session step.line with
            | Ok o -> session := o.Script.session
            | Error msg -> err := Some (step.line ^ ": " ^ msg))
        steps;
      (match !err with
      | Some msg -> Error msg
      | None ->
          let sheet = Session.current !session in
          let rel =
            Sheet_rel.Rel_algebra.project
              (Spreadsheet.visible_columns sheet)
              (Materialize.full sheet)
          in
          Ok
            ( sheet.Spreadsheet.uid,
              List.map
                (fun c -> (c.Sheet_rel.Schema.name, c.Sheet_rel.Schema.ty))
                (Sheet_rel.Schema.columns (Sheet_rel.Relation.schema rel)),
              List.map Sheet_rel.Row.to_list (Sheet_rel.Relation.rows rel) ))

(* ---- BENCH_sheetmusiq.json merge (schema sheetmusiq-bench/v2) ---- *)

let bench_entry ~ns ~p50 ~p90 ~p99 ~mx ~samples extra =
  J.Obj
    (("ns_per_run", J.Float ns)
    :: ("p50_ns", J.Int p50)
    :: ("p90_ns", J.Int p90)
    :: ("p99_ns", J.Int p99)
    :: ("max_ns", J.Int mx)
    :: ("samples", J.Int samples)
    :: extra)

let merge_bench ~path entries =
  let base =
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> (
        match J.parse contents with
        | Ok j -> j
        | Error msg -> failwith (path ^ ": " ^ msg))
    | exception Sys_error _ ->
        J.Obj
          [
            ("schema", J.String "sheetmusiq-bench/v2");
            ("unit", J.String "ns/run");
            ("results", J.Obj []);
          ]
  in
  let updated =
    match base with
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               if k <> "results" then (k, v)
               else
                 match v with
                 | J.Obj results ->
                     let kept =
                       List.filter
                         (fun (name, _) -> not (List.mem_assoc name entries))
                         results
                     in
                     (k, J.Obj (kept @ entries))
                 | other -> (k, other))
             fields)
    | _ -> failwith (path ^ ": not a benchmark baseline object")
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string ~pretty:true updated);
      output_char oc '\n')

let () =
  let sessions = ref 200 in
  let sf = ref 0.001 in
  let seed = ref 2115 in
  let rate = ref 0 in
  let think = ref 0. in
  let json = ref "" in
  Arg.parse
    [
      ("--sessions", Arg.Set_int sessions, "N concurrent sessions (200)");
      ("--sf", Arg.Set_float sf, "F TPC-H scale factor (0.001)");
      ("--seed", Arg.Set_int seed, "N stream seed (2115)");
      ( "--rate",
        Arg.Set_int rate,
        "N per-session ops/s cap (0 = unlimited)" );
      ( "--think",
        Arg.Set_float think,
        "F think-time scale, 0 = replay at full speed" );
      ( "--json",
        Arg.Set_string json,
        "PATH merge serve/* entries into this benchmark baseline" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "serve_load [--sessions N] [--think F] [--json BENCH_sheetmusiq.json]";
  let n = !sessions in
  let catalog =
    Sheet_tpch.Tpch_views.install
      (Sheet_tpch.Tpch_gen.generate
         { Sheet_tpch.Tpch_gen.sf = !sf; seed = 42 })
  in
  let tasks =
    Array.of_list
      (Sheet_tpch.Tpch_tasks.all @ Sheet_tpch.Tpch_tasks.extensions)
  in
  let user_task i = tasks.(i mod Array.length tasks) in
  let probe i = i mod 8 = 7 in
  let user_base i =
    if probe i then "v_lineitem_orders"
    else (user_task i).Sheet_tpch.Tpch_tasks.base
  in
  let user_steps i =
    if probe i then tie_probe
    else
      Sheet_study.Sheetmusiq_model.op_stream ~seed:!seed ~subject:(i + 1)
        (user_task i)
  in
  Materialize.reset_cache ();
  let server =
    Server.create
      (Server.config ~max_sessions:n ~max_ops_per_s:!rate
         (Sheet_sql.Catalog.find catalog))
  in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sheetserve-load-%d.sock" (Unix.getpid ()))
  in
  let listener = Net.listen server ~path in
  let results : user_result option array = Array.make n None in
  let errors = Array.make n None in
  let latencies = ref [] in
  let lat_mutex = Mutex.create () in
  let wall0 = Unix.gettimeofday () in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let local = ref [] in
            (try
               results.(i) <-
                 Some
                   (run_user ~path ~think:!think
                      ~client:(Printf.sprintf "u%d" i)
                      ~base:(user_base i) (user_steps i) local)
             with e -> errors.(i) <- Some (Printexc.to_string e));
            Mutex.lock lat_mutex;
            latencies := List.rev_append !local !latencies;
            Mutex.unlock lat_mutex)
          ())
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. wall0 in
  Net.shutdown listener;
  let failures = ref 0 in
  Array.iteri
    (fun i err ->
      match err with
      | Some msg ->
          incr failures;
          Printf.printf "FAIL u%d: %s\n" i msg
      | None -> ())
    errors;
  let cs = Materialize.cache_stats () in
  (* serial ground truth: cold cache, every session replayed alone in
     its own arena — rows, order and uids must be bit-identical *)
  Materialize.reset_cache ();
  Array.iteri
    (fun i r ->
      match r with
      | None -> ()
      | Some r -> (
          match
            serial_replay catalog ~base:(user_base i) (user_steps i) r.u_arena
          with
          | Error msg ->
              incr failures;
              Printf.printf "FAIL u%d serial replay: %s\n" i msg
          | Ok (uid, columns, rows) ->
              if r.u_uid <> uid then begin
                incr failures;
                Printf.printf
                  "FAIL u%d: concurrent final uid %d, serial %d\n" i
                  r.u_uid uid
              end;
              if r.u_columns <> columns then begin
                incr failures;
                Printf.printf "FAIL u%d: schema diverges from serial replay\n"
                  i
              end;
              if r.u_rows <> rows then begin
                incr failures;
                Printf.printf
                  "FAIL u%d: %d concurrent row(s) diverge from %d serial\n"
                  i
                  (List.length r.u_rows)
                  (List.length rows)
              end))
    results;
  let lats = Array.of_list !latencies in
  Array.sort compare lats;
  let total_ops = Array.length lats in
  let session_walls =
    Array.to_list results
    |> List.filter_map (Option.map (fun r -> r.u_wall_ns))
    |> Array.of_list
  in
  Array.sort compare session_walls;
  let sessions_per_s = float_of_int n /. wall_s in
  let p50 = percentile lats 0.5
  and p90 = percentile lats 0.9
  and p99 = percentile lats 0.99 in
  let mx = if total_ops = 0 then 0 else lats.(total_ops - 1) in
  let hit_ratio =
    if cs.Materialize.requests = 0 then 0.
    else
      float_of_int (cs.Materialize.hits + cs.Materialize.subsumed_hits)
      /. float_of_int cs.Materialize.requests
  in
  Printf.printf
    "serve load: %d session(s) in %.2fs = %.1f sessions/s; %d op(s), p50 \
     %.2fms p90 %.2fms p99 %.2fms; cache requests %d = exact %d + \
     subsumed %d + miss %d (hit ratio %.2f)\n"
    n wall_s sessions_per_s total_ops
    (float_of_int p50 /. 1e6)
    (float_of_int p90 /. 1e6)
    (float_of_int p99 /. 1e6)
    cs.Materialize.requests cs.Materialize.hits cs.Materialize.subsumed_hits
    cs.Materialize.misses hit_ratio;
  if !failures > 0 then begin
    Printf.eprintf "serve load: %d failure(s)\n" !failures;
    exit 1
  end;
  Printf.printf
    "serve load: all %d concurrent session(s) bit-identical to serial \
     replay (rows, order, final uids)\n"
    n;
  if !json <> "" then begin
    let mean_session_ns =
      if n = 0 then 0. else wall_s *. 1e9 /. float_of_int n
    in
    let misses_per_1k =
      if cs.Materialize.requests = 0 then 0.
      else
        1000.
        *. float_of_int cs.Materialize.misses
        /. float_of_int cs.Materialize.requests
    in
    merge_bench ~path:!json
      [
        ( "serve/sessions-per-sec",
          bench_entry ~ns:mean_session_ns
            ~p50:(percentile session_walls 0.5)
            ~p90:(percentile session_walls 0.9)
            ~p99:(percentile session_walls 0.99)
            ~mx:
              (if Array.length session_walls = 0 then 0
               else session_walls.(Array.length session_walls - 1))
            ~samples:n
            [ ("sessions_per_s", J.Float sessions_per_s) ] );
        ( "serve/p99",
          bench_entry
            ~ns:(float_of_int p99)
            ~p50 ~p90 ~p99 ~mx ~samples:total_ops [] );
        ( "serve/cache-misses-per-1k",
          bench_entry ~ns:misses_per_1k ~p50:0 ~p90:0 ~p99:0 ~mx:0
            ~samples:cs.Materialize.requests
            [ ("hit_ratio", J.Float hit_ratio) ] );
      ];
    Printf.printf "serve load: merged serve/* entries into %s\n" !json
  end
