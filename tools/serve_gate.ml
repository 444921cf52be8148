(* Sheetserve gate: boot the server on a Unix socket, replay every
   bundled TPC-H task over it from 8 concurrent clients, and fail the
   build when concurrency breaks anything observable:

   - row parity: every client's [rows] response matches a direct
     single-threaded [Script.run_silent] + [Session.materialized]
     replay of the same task, cell for cell, in order;
   - nested records: engine work stays serial on the listener's loop
     thread, so records in the ring whose intervals overlap (spans,
     events, per-query records) must nest;
   - zero profile-ring drops (capacity raised first, so a drop means
     lost records, not a small ring);
   - per-session accounting on the tape: every client's op records
     (stamped {session=uN}) are equal in number, and they sum to
     exactly the engine.ops total;
   - shared-cache accounting stays exact: requests = exact hits +
     subsumed hits + misses, agreeing with the Obs counters, and the
     profile ring holds one record noting each outcome.

   Run via [dune build @serve], wired into [@gates]. *)

module Obs = Sheet_obs.Obs
open Sheet_core
open Sheet_serve

let failures = ref 0

let check label ok detail =
  if not ok then begin
    Printf.printf "FAIL %s: %s\n" label detail;
    incr failures
  end

let n_clients = 8

type table = {
  t_columns : (string * Sheet_rel.Value.vtype) list;
  t_rows : Sheet_rel.Value.t list list;
}

let table_of_relation rel =
  {
    t_columns =
      List.map
        (fun c -> (c.Sheet_rel.Schema.name, c.Sheet_rel.Schema.ty))
        (Sheet_rel.Schema.columns (Sheet_rel.Relation.schema rel));
    t_rows =
      List.map Sheet_rel.Row.to_list (Sheet_rel.Relation.rows rel);
  }

(* phase 0: the single-threaded ground truth for every task *)
let direct_replay catalog (task : Sheet_tpch.Tpch_tasks.t) =
  match Sheet_sql.Catalog.find catalog task.base with
  | None -> Error ("no base relation " ^ task.base)
  | Some base -> (
      let session = Session.create ~name:task.base base in
      match Script.run_silent session task.script with
      | Error msg -> Error msg
      | Ok session -> Ok (table_of_relation (Session.materialized session)))

(* one client: replay every task over the socket, collect each [rows]
   response *)
let client_replay ~path ~client tasks =
  let c = Net.Client.connect ~path in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  (match Net.Client.call_exn c (Protocol.Hello client) with
  | Protocol.Welcome _ -> ()
  | r ->
      failwith
        (Printf.sprintf "%s: hello answered %s" client
           (Protocol.encode_response r)));
  let results =
    List.map
      (fun (task : Sheet_tpch.Tpch_tasks.t) ->
        (match Net.Client.call_exn c (Protocol.Open task.base) with
        | Protocol.Opened _ -> ()
        | r ->
            failwith
              (Printf.sprintf "%s task %d: open answered %s" client task.id
                 (Protocol.encode_response r)));
        List.iter
          (fun line ->
            match Net.Client.call_exn c (Protocol.Line line) with
            | Protocol.Applied _ -> ()
            | r ->
                failwith
                  (Printf.sprintf "%s task %d: %S answered %s" client
                     task.id line
                     (Protocol.encode_response r)))
          (Sheet_study.Sheetmusiq_model.script_lines task);
        match Net.Client.call_exn c Protocol.Rows with
        | Protocol.Table { columns; rows; _ } ->
            (task.id, { t_columns = columns; t_rows = rows })
        | r ->
            failwith
              (Printf.sprintf "%s task %d: rows answered %s" client task.id
                 (Protocol.encode_response r)))
      tasks
  in
  (match Net.Client.call_exn c Protocol.Quit with
  | Protocol.Bye -> ()
  | r ->
      failwith
        (Printf.sprintf "%s: quit answered %s" client
           (Protocol.encode_response r)));
  results

let () =
  Obs.set_sink Obs.Memory;
  Obs.Profile.set_capacity 1_000_000;
  let tasks = Sheet_tpch.Tpch_tasks.all @ Sheet_tpch.Tpch_tasks.extensions in
  let catalog =
    Sheet_tpch.Tpch_views.install
      (Sheet_tpch.Tpch_gen.generate
         { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 })
  in
  (* ground truth first, then a clean telemetry slate so the
     per-session accounting below sees only server-side work *)
  let expected =
    List.map (fun t -> (t, direct_replay catalog t)) tasks
  in
  List.iter
    (fun ((task : Sheet_tpch.Tpch_tasks.t), r) ->
      match r with
      | Error msg ->
          check (Printf.sprintf "task %2d direct replay" task.id) false msg
      | Ok _ -> ())
    expected;
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  Obs.Profile.clear ();
  Materialize.reset_cache ();
  let server =
    Server.create
      (Server.config ~max_sessions:(n_clients * 2)
         (Sheet_sql.Catalog.find catalog))
  in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sheetserve-gate-%d.sock" (Unix.getpid ()))
  in
  let listener = Net.listen server ~path in
  let results = Array.make n_clients [] in
  let errors = Array.make n_clients None in
  let threads =
    List.init n_clients (fun i ->
        Thread.create
          (fun () ->
            try
              results.(i) <-
                client_replay ~path
                  ~client:(Printf.sprintf "u%d" i)
                  tasks
            with e -> errors.(i) <- Some (Printexc.to_string e))
          ())
  in
  List.iter Thread.join threads;
  Net.shutdown listener;
  Array.iteri
    (fun i err ->
      match err with
      | Some msg -> check (Printf.sprintf "client u%d" i) false msg
      | None -> ())
    errors;
  (* row parity: every client saw exactly the single-threaded result *)
  let expected_tbl = Hashtbl.create 16 in
  List.iter
    (fun ((task : Sheet_tpch.Tpch_tasks.t), r) ->
      match r with
      | Ok t -> Hashtbl.replace expected_tbl task.id t
      | Error _ -> ())
    expected;
  Array.iteri
    (fun i per_task ->
      List.iter
        (fun (task_id, (got : table)) ->
          match Hashtbl.find_opt expected_tbl task_id with
          | None -> ()
          | Some want ->
              let label =
                Printf.sprintf "client u%d task %2d" i task_id
              in
              check (label ^ " columns") (got.t_columns = want.t_columns)
                "schema over the wire differs from direct replay";
              check (label ^ " rows") (got.t_rows = want.t_rows)
                (Printf.sprintf
                   "served %d row(s) differ from direct replay's %d"
                   (List.length got.t_rows)
                   (List.length want.t_rows)))
        per_task)
    results;
  (* nested records despite 8 concurrent clients: engine work, and
     the spans and records it commits, stayed serial on the loop
     thread *)
  check "nesting"
    (Obs.Profile.well_nested (Obs.Profile.records ()))
    "overlapping records do not nest";
  (* the profile ring never dropped a record *)
  check "ring drops"
    (Obs.Profile.dropped () = 0)
    (Printf.sprintf "%d record(s) dropped" (Obs.Profile.dropped ()));
  (* per-session accounting: each client's op records, read off the
     ring by their session stamp, are equal in number and sum to the
     engine's op count *)
  let stamped_ops i =
    List.length
      (List.filter
         (fun r -> r.Obs.Profile.p_kind = "op")
         (Obs.Profile.records
            ~session:
              (Obs.Labels.to_string
                 (Obs.Labels.v [ ("session", Printf.sprintf "u%d" i) ]))
            ()))
  in
  let counts = List.init n_clients stamped_ops in
  let total_ops = Obs.Metrics.value_of Obs.k_engine_ops in
  check "stamped sum"
    (List.fold_left ( + ) 0 counts = total_ops)
    (Printf.sprintf "session op records sum to %d, %s = %d"
       (List.fold_left ( + ) 0 counts)
       Obs.k_engine_ops total_ops);
  check "stamped balance"
    (match counts with
    | [] -> false
    | c0 :: rest -> c0 > 0 && List.for_all (fun c -> c = c0) rest)
    (Printf.sprintf "per-session op record counts diverge: [%s]"
       (String.concat "; " (List.map string_of_int counts)));
  (* shared semantic cache stayed exact under concurrent sessions:
     every request is one outcome, and the ring holds one record
     noting each *)
  let v = Obs.Metrics.value_of in
  let cs = Materialize.cache_stats () in
  let noted outcome =
    List.length
      (List.filter
         (fun r -> r.Obs.Profile.p_cache = outcome)
         (Obs.Profile.records ()))
  in
  check "cache accounting"
    (cs.Materialize.requests
     = cs.Materialize.hits + cs.Materialize.subsumed_hits
       + cs.Materialize.misses
    && cs.Materialize.requests = v Obs.k_cache_requests
    && cs.Materialize.hits = noted "exact"
    && cs.Materialize.subsumed_hits = noted "subsumed"
    && cs.Materialize.misses = noted "miss")
    (Printf.sprintf
       "requests %d, hits %d (ring %d), subsumed %d (ring %d), misses %d \
        (ring %d)"
       cs.Materialize.requests cs.Materialize.hits (noted "exact")
       cs.Materialize.subsumed_hits (noted "subsumed")
       cs.Materialize.misses (noted "miss"));
  (* every session said quit *)
  check "sessions drained"
    (Server.session_count server = 0)
    (Printf.sprintf "%d session(s) still live" (Server.session_count server));
  (match Server.stats server with
  | Protocol.Stats { busy_rejections; _ } ->
      check "no busy" (busy_rejections = 0)
        (Printf.sprintf "%d busy rejection(s)" busy_rejections)
  | _ -> check "stats" false "stats response malformed");
  if !failures > 0 then begin
    Printf.eprintf "serve gate: %d failure(s)\n" !failures;
    exit 1
  end
  else
    Printf.printf
      "serve gate: %d client(s) x %d task(s) served over %s with row \
       parity, nested records, zero ring drops, exact per-session \
       accounting\n"
      n_clients (List.length tasks) path
