(* Sheetserve tests: wire-protocol totality and round-trips, server
   liveness on garbage input, raising requests and clients that never
   read, refusal of commands that reach past the session, admission
   control (sessions, connections, per-session rate caps),
   concurrent-vs-serial determinism (rows, order, final uids) over the
   socket, and the shared semantic cache's equality and accounting. *)

open Sheet_rel
open Sheet_core
open Sheet_serve
module Model = Sheet_study.Sheetmusiq_model

(* ---------- generators ---------- *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_range (-1e12) 1e12);
        map (fun s -> Value.String s) (string_size (int_bound 12));
        map (fun d -> Value.Date d) (int_range (-100000) 100000);
      ])

let gen_vtype =
  QCheck.Gen.oneofl
    [ Value.TBool; Value.TInt; Value.TFloat; Value.TString; Value.TDate ]

(* strings with control characters, quotes, backslashes, high bytes —
   everything the line framing must survive *)
let gen_nasty_string =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 30))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Protocol.Hello s) gen_nasty_string;
        map (fun s -> Protocol.Open s) gen_nasty_string;
        map (fun s -> Protocol.Line s) gen_nasty_string;
        return Protocol.Rows;
        return Protocol.Status;
        return Protocol.Ping;
        return Protocol.Quit;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun s a -> Protocol.Welcome { session = s; arena = a })
          gen_nasty_string nat;
        map3
          (fun b u r -> Protocol.Opened { base = b; uid = u; rows = r })
          gen_nasty_string nat nat;
        map2
          (fun u o -> Protocol.Applied { uid = u; output = o })
          nat
          (option gen_nasty_string);
        map3
          (fun u cols rows -> Protocol.Table { uid = u; columns = cols; rows })
          nat
          (small_list (pair gen_nasty_string gen_vtype))
          (small_list (small_list gen_value));
        map3
          (fun s o b ->
            Protocol.Stats { sessions = s; ops = o; busy_rejections = b })
          nat nat nat;
        return Protocol.Pong;
        return Protocol.Bye;
        map2
          (fun b r -> Protocol.Refused { busy = b; reason = r })
          bool gen_nasty_string;
      ])

(* ---------- protocol round-trips and totality ---------- *)

let request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode_request (encode_request r) = Ok r"
    (QCheck.make gen_request)
    (fun r ->
      let line = Protocol.encode_request r in
      (not (String.contains line '\n'))
      && Protocol.decode_request line = Ok r)

let response_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"decode_response (encode_response r) = Ok r"
    (QCheck.make gen_response)
    (fun r ->
      let line = Protocol.encode_response r in
      (not (String.contains line '\n'))
      && Protocol.decode_response line = Ok r)

let decode_total =
  QCheck.Test.make ~count:2000 ~name:"decoders are total on arbitrary bytes"
    (QCheck.make QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 80)))
    (fun s ->
      (match Protocol.decode_request s with Ok _ | Error _ -> true)
      && match Protocol.decode_response s with Ok _ | Error _ -> true)

(* ---------- an in-process server over the cars relation ---------- *)

let cars_lookup name =
  if name = "cars" then Some Sample_cars.relation else None

let expect_welcome = function
  | Protocol.Welcome _ -> ()
  | r -> Alcotest.failf "expected welcome, got %s" (Protocol.encode_response r)

let expect_applied = function
  | Protocol.Applied _ -> ()
  | r -> Alcotest.failf "expected applied, got %s" (Protocol.encode_response r)

(* a connection keeps answering after arbitrary garbage: handle is
   total, so a parse error is a Refused line, never a dead handler *)
let test_garbage_then_ping () =
  let server = Server.create (Server.config cars_lookup) in
  let conn = Server.connect server in
  List.iter
    (fun garbage ->
      match
        Protocol.decode_response (fst (Server.handle server conn garbage))
      with
      | Ok (Protocol.Refused { busy = false; _ }) -> ()
      | Ok r ->
          Alcotest.failf "garbage %S answered %s" garbage
            (Protocol.encode_response r)
      | Error e -> Alcotest.failf "undecodable response to garbage: %s" e)
    [ ""; "{"; "not json"; "{\"op\":42}"; "{\"op\":\"warp\"}"; "\xff\xfe" ];
  match
    Protocol.decode_response
      (fst (Server.handle server conn (Protocol.encode_request Protocol.Ping)))
  with
  | Ok Protocol.Pong -> ()
  | Ok r ->
      Alcotest.failf "ping after garbage answered %s"
        (Protocol.encode_response r)
  | Error e -> Alcotest.failf "undecodable pong: %s" e

(* the same liveness property over a real socket *)
let test_garbage_over_socket () =
  let server = Server.create (Server.config cars_lookup) in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sheetserve-test-%d.sock" (Unix.getpid ()))
  in
  let listener = Net.listen server ~path in
  Fun.protect ~finally:(fun () -> Net.shutdown listener) @@ fun () ->
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_UNIX path);
  let inch = Unix.in_channel_of_descr fd in
  let send line =
    let b = Bytes.of_string (line ^ "\n") in
    ignore (Unix.write fd b 0 (Bytes.length b))
  in
  send "this is not a request";
  (match In_channel.input_line inch with
  | Some line -> (
      match Protocol.decode_response line with
      | Ok (Protocol.Refused { busy = false; _ }) -> ()
      | _ -> Alcotest.failf "garbage answered %S" line)
  | None -> Alcotest.fail "connection dropped on garbage");
  send (Protocol.encode_request Protocol.Ping);
  match In_channel.input_line inch with
  | Some line ->
      Alcotest.(check bool)
        "pong after garbage" true
        (Protocol.decode_response line = Ok Protocol.Pong)
  | None -> Alcotest.fail "connection wedged after garbage"

(* ---------- commands a shared server refuses ---------- *)

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sheetserve-test-%d-%s" (Unix.getpid ()) name)

(* Serve [lookup] on a fresh socket for the length of [f path]. *)
let with_listener ?max_sessions lookup name f =
  let server = Server.create (Server.config ?max_sessions lookup) in
  let path = temp_path (name ^ ".sock") in
  let listener = Net.listen server ~path in
  Fun.protect ~finally:(fun () -> Net.shutdown listener) (fun () -> f path)

(* A raw connection whose reads give up after [timeout] seconds, so
   that [read_response] fails on a silent server instead of hanging. *)
let raw_connect ?(timeout = 5.) path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  Unix.setsockopt_float fd SO_RCVTIMEO timeout;
  (fd, Unix.in_channel_of_descr fd)

let send fd req =
  let b = Bytes.of_string (Protocol.encode_request req ^ "\n") in
  ignore (Unix.write fd b 0 (Bytes.length b))

let read_response what inch =
  match In_channel.input_line inch with
  | Some line -> (
      match Protocol.decode_response line with
      | Ok r -> r
      | Error e -> Alcotest.failf "%s: undecodable %S: %s" what line e)
  | None -> Alcotest.failf "%s: connection closed" what
  | exception (Sys_error _ | Sys_blocked_io) ->
      Alcotest.failf "%s: no answer" what

(* One client on a real socket with the cars sheet open; every line in
   [lines] must come back Refused (busy = false), and afterwards the
   session still applies a selection and serves its rows. *)
let refused_over_socket ~name lines =
  let server = Server.create (Server.config cars_lookup) in
  let path = temp_path (name ^ ".sock") in
  let listener = Net.listen server ~path in
  Fun.protect ~finally:(fun () -> Net.shutdown listener) @@ fun () ->
  let c = Net.Client.connect ~path in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let call = Net.Client.call_exn c in
  expect_welcome (call (Protocol.Hello name));
  ignore (call (Protocol.Open "cars"));
  List.iter
    (fun line ->
      match call (Protocol.Line line) with
      | Protocol.Refused { busy = false; _ } -> ()
      | r ->
          Alcotest.failf "%S answered %s" line (Protocol.encode_response r))
    lines;
  expect_applied (call (Protocol.Line "select Year = 2005"));
  match call Protocol.Rows with
  | Protocol.Table { columns; rows; _ } ->
      Alcotest.(check (list string))
        "still the cars sheet"
        (Schema.names Sample_cars.schema)
        (List.map fst columns);
      Alcotest.(check int) "selection applied" 4 (List.length rows)
  | r -> Alcotest.failf "rows answered %s" (Protocol.encode_response r)

let test_refuse_host_files () =
  (* a real CSV, so an unrefused [load] would replace the sheet *)
  let csv = temp_path "input.csv" in
  Out_channel.with_open_text csv (fun oc ->
      output_string oc "a,b\n1,2\n");
  Fun.protect ~finally:(fun () -> Sys.remove csv) @@ fun () ->
  let export = temp_path "export.musiq"
  and html = temp_path "view.html"
  and trace = temp_path "trace.json" in
  refused_over_socket ~name:"files"
    [ "load " ^ csv; "import " ^ csv; "export " ^ export; "html " ^ html;
      "trace export " ^ trace; "  EXPORT " ^ export ^ " # shouting" ];
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " not written") false (Sys.file_exists f))
    [ export; html; trace ]

let test_refuse_process_telemetry () =
  let module Obs = Sheet_obs.Obs in
  Obs.Profile.event ~kind:"test" "kept";
  let recorded = Obs.Profile.length () in
  refused_over_socket ~name:"telemetry"
    [ "trace mem"; "trace memory"; "trace logs"; "trace off"; "trace clear";
      "flightrec clear" ];
  Alcotest.(check bool) "sink untouched" true (Obs.sink () = Obs.Off);
  Alcotest.(check bool) "flight recorder kept" true
    (Obs.Profile.length () >= recorded);
  Obs.Profile.clear ()

(* [flightrec] and [profile] show a client only its own session's
   records, and [metrics] and [slo] report process-wide series that
   name no session: nothing client A did appears in client B's
   output *)
let test_telemetry_per_session () =
  let server = Server.create (Server.config cars_lookup) in
  let path = temp_path "telemetry-isolation.sock" in
  let listener = Net.listen server ~path in
  Fun.protect ~finally:(fun () -> Net.shutdown listener) @@ fun () ->
  let connect client =
    let c = Net.Client.connect ~path in
    expect_welcome (Net.Client.call_exn c (Protocol.Hello client));
    ignore (Net.Client.call_exn c (Protocol.Open "cars"));
    c
  in
  let a = connect "alice" and b = connect "bob" in
  Fun.protect
    ~finally:(fun () ->
      Net.Client.close a;
      Net.Client.close b)
  @@ fun () ->
  expect_applied (Net.Client.call_exn a (Protocol.Line "select Mileage < 12345"));
  expect_applied (Net.Client.call_exn a (Protocol.Line "group Model asc"));
  expect_applied (Net.Client.call_exn b (Protocol.Line "select Year = 2005"));
  let output c line =
    match Net.Client.call_exn c (Protocol.Line line) with
    | Protocol.Applied { output = Some text; _ } -> text
    | r -> Alcotest.failf "%S answered %s" line (Protocol.encode_response r)
  in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line ->
      let text = output b line in
      Alcotest.(check bool) (line ^ " shows bob's op") true
        (contains text "Year = 2005");
      List.iter
        (fun alices ->
          Alcotest.(check bool)
            (Printf.sprintf "%s hides %S" line alices)
            false (contains text alices))
        [ "12345"; "Group"; "alice" ])
    [ "flightrec"; "flightrec json"; "profile json" ];
  List.iter
    (fun line ->
      Alcotest.(check bool) (line ^ " hides alice") false
        (contains (output b line) "alice"))
    [ "metrics"; "slo"; "slo json" ];
  Alcotest.(check bool) "alice still sees her own" true
    (contains (output a "flightrec") "12345")

(* Sessions are told apart on the ring's records, never in the
   registry: 70 sessions leave it exactly as large as the first one
   did. *)
let test_sessions_add_no_series () =
  let module Obs = Sheet_obs.Obs in
  let server = Server.create (Server.config cars_lookup) in
  let series () =
    List.length (Obs.Metrics.snapshot ())
    + List.length (Obs.Histogram.counts_snapshot ())
  in
  let session i =
    let conn = Server.connect server in
    List.iter
      (fun req ->
        let answer, _ = Server.handle server conn (Protocol.encode_request req) in
        match Protocol.decode_response answer with
        | Ok (Protocol.Refused { reason; _ }) ->
            Alcotest.failf "session %d refused: %s" i reason
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "session %d: %s" i msg)
      [ Protocol.Hello (Printf.sprintf "growth%d" i);
        Protocol.Open "cars";
        Protocol.Line (Printf.sprintf "select Mileage <> %d" i);
        Protocol.Quit ]
  in
  session 0;
  let after_first = series () in
  for i = 1 to 69 do
    session i
  done;
  Alcotest.(check int) "registry series after 70 sessions" after_first
    (series ());
  Alcotest.(check int) "every session quit" 0 (Server.session_count server)

(* ---------- one session, two connections ---------- *)

(* A second connection may [hello] as a live client and then drives
   the same session. Two client threads, one per connection, each
   apply [n] selections: every step must land in the session's
   history, none overwritten by the other connection's stale state.
   Every clock reading yields first, so the server hands the runtime
   to the clients in the middle of its engine work. *)
let test_shared_session_no_lost_update () =
  let module Obs = Sheet_obs.Obs in
  Obs.set_raw_clock_for_tests
    (Some
       (fun () ->
         Thread.yield ();
         int_of_float (Unix.gettimeofday () *. 1e9)));
  Fun.protect ~finally:(fun () -> Obs.set_raw_clock_for_tests None)
  @@ fun () ->
  with_listener cars_lookup "shared" @@ fun path ->
  let conn () =
    let c = Net.Client.connect ~path in
    expect_welcome (Net.Client.call_exn c (Protocol.Hello "shared"));
    c
  in
  let a = conn () and b = conn () in
  Fun.protect
    ~finally:(fun () ->
      Net.Client.close a;
      Net.Client.close b)
  @@ fun () ->
  (match Net.Client.call_exn a (Protocol.Open "cars") with
  | Protocol.Opened _ -> ()
  | r -> Alcotest.failf "open answered %s" (Protocol.encode_response r));
  let n = 200 in
  let line t k = Printf.sprintf "select Mileage <> %d" ((1000 * t) + k) in
  let failures = Array.make 2 None in
  let threads =
    List.mapi
      (fun t c ->
        Thread.create
          (fun () ->
            try
              for k = 1 to n do
                expect_applied (Net.Client.call_exn c (Protocol.Line (line t k)))
              done
            with e -> failures.(t) <- Some (Printexc.to_string e))
          ())
      [ a; b ]
  in
  List.iter Thread.join threads;
  Array.iter (Option.iter (Alcotest.failf "thread failed: %s")) failures;
  let history =
    match Net.Client.call_exn a (Protocol.Line "history") with
    | Protocol.Applied { output = Some text; _ } ->
        String.split_on_char '\n' text
    | r -> Alcotest.failf "history answered %s" (Protocol.encode_response r)
  in
  Alcotest.(check int) "load + every step of both threads" ((2 * n) + 1)
    (List.length history);
  List.iter
    (fun t ->
      for k = 1 to n do
        let want = "Select Mileage <> " ^ string_of_int ((1000 * t) + k) in
        Alcotest.(check bool) (want ^ " kept") true
          (List.exists
             (fun entry ->
               let m = String.length want and e = String.length entry in
               e >= m && String.sub entry (e - m) m = want)
             history)
      done)
    [ 0; 1 ]

(* Bob's first step reaches his base sheet through the shared cache,
   which answers it from Alice's cached base: a subsumed hit. The
   record lands in Bob's telemetry, so its label must name neither
   Alice's sheet nor her predicates. *)
let test_subsumed_from_another_session () =
  let module Obs = Sheet_obs.Obs in
  Materialize.reset_cache ();
  let server = Server.create (Server.config cars_lookup) in
  let connect client =
    let c = Server.connect server in
    expect_welcome (Server.handle_request server c (Protocol.Hello client));
    c
  in
  let call c line = Server.handle_request server c (Protocol.Line line) in
  let uid_of = function
    | Protocol.Opened { uid; _ } | Protocol.Applied { uid; _ } -> uid
    | r -> Alcotest.failf "answered %s" (Protocol.encode_response r)
  in
  let a = connect "alice" and b = connect "bob" in
  let alice_base = uid_of (Server.handle_request server a (Protocol.Open "cars")) in
  let alice_uids = [ alice_base; uid_of (call a "select Mileage < 12345") ] in
  ignore (uid_of (Server.handle_request server b (Protocol.Open "cars")));
  let subsumed0 = Obs.Metrics.value_of Obs.k_cache_hits_subsumed in
  ignore (uid_of (call b "select Year = 2005"));
  Alcotest.(check int) "bob's step was a subsumed hit" 1
    (Obs.Metrics.value_of Obs.k_cache_hits_subsumed - subsumed0);
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  let output line =
    match call b line with
    | Protocol.Applied { output = Some text; _ } -> text
    | r -> Alcotest.failf "%S answered %s" line (Protocol.encode_response r)
  in
  List.iter
    (fun line ->
      let text = output line in
      Alcotest.(check bool) (line ^ " says where the rows came from") true
        (contains text "another session's sheet");
      List.iter
        (fun hidden ->
          Alcotest.(check bool)
            (Printf.sprintf "%s hides %S" line hidden)
            false (contains text hidden))
        ("12345" :: "from sheet #" :: List.map string_of_int alice_uids))
    [ "flightrec"; "profile json" ]

(* ---------- request size ---------- *)

(* a request line past 1 MiB is refused (or the connection dropped),
   and the server keeps serving other clients *)
let test_oversized_line () =
  let server = Server.create (Server.config cars_lookup) in
  let path = temp_path "oversized.sock" in
  let listener = Net.listen server ~path in
  Fun.protect ~finally:(fun () -> Net.shutdown listener) @@ fun () ->
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_UNIX path);
  let huge = Bytes.make (2 * 1024 * 1024) 'x' in
  (try
     let rec go off =
       if off < Bytes.length huge then
         go (off + Unix.write fd huge off (Bytes.length huge - off))
     in
     go 0
   with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
  (* the answer is a refusal, or the connection is gone; silence
     past the receive timeout means the server is still buffering *)
  Unix.setsockopt_float fd SO_RCVTIMEO 10.;
  let buf = Bytes.create 4096 in
  (match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> ()
  | n -> (
      let line = List.hd (String.split_on_char '\n' (Bytes.sub_string buf 0 n)) in
      match Protocol.decode_response line with
      | Ok (Protocol.Refused { busy = false; _ }) -> ()
      | _ -> Alcotest.failf "oversized line answered %S" line)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Alcotest.fail "no answer to an oversized line"
  | exception Unix.Unix_error _ -> ());
  let c = Net.Client.connect ~path in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  Alcotest.(check bool) "another client still gets pong" true
    (Net.Client.call c Protocol.Ping = Ok Protocol.Pong)

(* Requests pipelined in one write — more than one read of the
   server's takes — get one answer each, in order; a line over 1 MiB
   after them is still refused. The writer is a thread of its own, so
   neither side waits on the other's full socket buffer. *)
let test_pipelined () =
  with_listener cars_lookup "pipelined" @@ fun path ->
  let fd, inch = raw_connect ~timeout:10. path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let selects = 200 and pings = 8_000 in
  let buf = Buffer.create (1 lsl 21) in
  let add req = Buffer.add_string buf (Protocol.encode_request req ^ "\n") in
  add (Protocol.Hello "pipeliner");
  add (Protocol.Open "cars");
  for k = 1 to selects do
    add (Protocol.Line (Printf.sprintf "select Mileage <> %d" k));
    add Protocol.Status
  done;
  for _ = 1 to pings do
    add Protocol.Ping
  done;
  Buffer.add_string buf (String.make ((1 lsl 20) + 1) 'x' ^ "\n");
  let bytes = Buffer.to_bytes buf in
  let writer =
    Thread.create
      (fun () ->
        let rec go off =
          if off < Bytes.length bytes then
            go (off + Unix.write fd bytes off (Bytes.length bytes - off))
        in
        (* the server may close before the long line is all sent *)
        try go 0 with Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect ~finally:(fun () -> Thread.join writer) @@ fun () ->
  expect_welcome (read_response "hello" inch);
  (match read_response "open" inch with
  | Protocol.Opened _ -> ()
  | r -> Alcotest.failf "open answered %s" (Protocol.encode_response r));
  let ops0 = ref 0 and uid0 = ref 0 in
  for k = 1 to selects do
    (match read_response "select" inch with
    | Protocol.Applied { uid; _ } ->
        if k > 1 && uid <= !uid0 then
          Alcotest.failf "select %d answered uid %d after %d" k uid !uid0;
        uid0 := uid
    | r ->
        Alcotest.failf "select %d answered %s" k (Protocol.encode_response r));
    match read_response "status" inch with
    | Protocol.Stats { ops; _ } ->
        if k = 1 then ops0 := ops - 1
        else
          Alcotest.(check int)
            (Printf.sprintf "status after select %d" k)
            (!ops0 + k) ops
    | r -> Alcotest.failf "status %d answered %s" k (Protocol.encode_response r)
  done;
  for i = 1 to pings do
    match read_response "ping" inch with
    | Protocol.Pong -> ()
    | r -> Alcotest.failf "ping %d answered %s" i (Protocol.encode_response r)
  done;
  match read_response "oversized line" inch with
  | Protocol.Refused { busy = false; _ } -> ()
  | r ->
      Alcotest.failf "oversized line answered %s" (Protocol.encode_response r)

(* a request that raises inside the server is answered with a
   refusal, and the connection keeps serving *)
let test_raising_request () =
  with_listener (fun _ -> failwith "boom") "raising" @@ fun path ->
  let fd, inch = raw_connect ~timeout:3. path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send fd (Protocol.Hello "raiser");
  expect_welcome (read_response "hello" inch);
  send fd (Protocol.Open "cars");
  (match read_response "open" inch with
  | Protocol.Refused { busy = false; _ } -> ()
  | r -> Alcotest.failf "open answered %s" (Protocol.encode_response r));
  send fd Protocol.Ping;
  Alcotest.(check bool) "pong after the raise" true
    (read_response "ping" inch = Protocol.Pong)

(* a client that asks for a large table and never reads it stalls
   only its own connection; it gets the whole table once it reads *)
let test_non_reading_client () =
  let copies = 2_000 in
  let big =
    Relation.of_array Sample_cars.schema
      (Array.concat
         (List.init copies (fun _ -> Relation.to_array Sample_cars.relation)))
  in
  with_listener (fun _ -> Some big) "non-reading" @@ fun path ->
  let fd, inch = raw_connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send fd (Protocol.Hello "sleeper");
  expect_welcome (read_response "hello" inch);
  send fd (Protocol.Open "big");
  ignore (read_response "open" inch);
  send fd Protocol.Rows;
  let other, other_in = raw_connect path in
  Fun.protect ~finally:(fun () -> Unix.close other) @@ fun () ->
  for _ = 1 to 3 do
    send other Protocol.Ping;
    Alcotest.(check bool) "another client still gets pong" true
      (read_response "ping" other_in = Protocol.Pong)
  done;
  match read_response "rows" inch with
  | Protocol.Table { rows; _ } ->
      Alcotest.(check int) "the whole table, late" (copies * 9)
        (List.length rows)
  | r -> Alcotest.failf "rows answered %s" (Protocol.encode_response r)

(* connections past [Net.max_conns] are answered busy and closed,
   while an established client keeps its answers *)
let test_connection_cap () =
  with_listener cars_lookup "flood" @@ fun path ->
  let c, c_in = raw_connect path in
  Fun.protect ~finally:(fun () -> Unix.close c) @@ fun () ->
  let ping what =
    send c Protocol.Ping;
    Alcotest.(check bool) what true (read_response what c_in = Protocol.Pong)
  in
  ping "pong before the flood";
  let flood = List.init (Net.max_conns + 8) (fun _ -> raw_connect path) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (fd, _) -> Unix.close fd) flood)
  @@ fun () ->
  (* the listener accepts in order, and [c] holds one of the slots *)
  List.iteri
    (fun i (_, inch) ->
      if i >= Net.max_conns - 1 then
        match read_response "flood" inch with
        | Protocol.Refused { busy = true; reason = "server full" } -> ()
        | r ->
            Alcotest.failf "connection %d answered %s" i
              (Protocol.encode_response r))
    flood;
  ping "pong during the flood";
  let fd, inch = List.hd flood in
  send fd Protocol.Ping;
  Alcotest.(check bool) "an admitted flood connection is served" true
    (read_response "admitted" inch = Protocol.Pong)

(* ---------- admission control ---------- *)

let test_admission () =
  let server =
    Server.create (Server.config ~max_sessions:2 cars_lookup)
  in
  let c0 = Server.connect server
  and c1 = Server.connect server
  and c2 = Server.connect server in
  expect_welcome (Server.handle_request server c0 (Protocol.Hello "u0"));
  expect_welcome (Server.handle_request server c1 (Protocol.Hello "u1"));
  (match Server.handle_request server c2 (Protocol.Hello "u2") with
  | Protocol.Refused { busy = true; _ } -> ()
  | r ->
      Alcotest.failf "third session admitted: %s"
        (Protocol.encode_response r));
  (* re-hello of a live session is not a new admission *)
  expect_welcome (Server.handle_request server c0 (Protocol.Hello "u0"));
  Alcotest.(check int) "two live sessions" 2 (Server.session_count server);
  (* quitting frees the slot *)
  (match Server.handle_request server c0 Protocol.Quit with
  | Protocol.Bye -> ()
  | r -> Alcotest.failf "quit answered %s" (Protocol.encode_response r));
  expect_welcome (Server.handle_request server c2 (Protocol.Hello "u2"));
  Alcotest.(check (list string))
    "live clients" [ "u1"; "u2" ]
    (Server.live_clients server)

(* ---------- per-session rate cap ---------- *)

let test_rate_cap () =
  let clock = ref 1000.0 in
  let server =
    Server.create
      (Server.config ~max_ops_per_s:3 ~now:(fun () -> !clock) cars_lookup)
  in
  let conn = Server.connect server in
  expect_welcome (Server.handle_request server conn (Protocol.Hello "u0"));
  (match Server.handle_request server conn (Protocol.Open "cars") with
  | Protocol.Opened _ -> ()
  | r -> Alcotest.failf "open answered %s" (Protocol.encode_response r));
  for _ = 1 to 3 do
    expect_applied
      (Server.handle_request server conn (Protocol.Line "select Price > 0"))
  done;
  (match
     Server.handle_request server conn (Protocol.Line "select Price > 0")
   with
  | Protocol.Refused { busy = true; _ } -> ()
  | r ->
      Alcotest.failf "fourth op in the window admitted: %s"
        (Protocol.encode_response r));
  (* a new window restores the budget *)
  clock := !clock +. 1.5;
  expect_applied
    (Server.handle_request server conn (Protocol.Line "select Price > 0"))

(* ---------- concurrent vs serial determinism ---------- *)

let tpch_catalog =
  lazy
    (Sheet_tpch.Tpch_views.install
       (Sheet_tpch.Tpch_gen.generate { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 }))

type replay = {
  r_arena : int;
  r_uid : int;
  r_columns : (string * Value.vtype) list;
  r_rows : Value.t list list;
}

let test_concurrent_determinism () =
  let catalog = Lazy.force tpch_catalog in
  let tasks = Array.of_list Sheet_tpch.Tpch_tasks.all in
  let n = 8 in
  let task i = tasks.(i mod Array.length tasks) in
  let steps i = Model.op_stream ~seed:7 ~subject:(i + 1) (task i) in
  Materialize.reset_cache ();
  let results : replay option array = Array.make n None in
  let failures = Array.make n None in
  with_listener ~max_sessions:16 (Sheet_sql.Catalog.find catalog)
    "determinism" (fun path ->
      let client i =
        let c = Net.Client.connect ~path in
        Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
        let call req = Net.Client.call_exn c req in
        let arena =
          match call (Protocol.Hello (Printf.sprintf "u%d" i)) with
          | Protocol.Welcome { arena; _ } -> arena
          | r -> failwith ("hello: " ^ Protocol.encode_response r)
        in
        (match call (Protocol.Open (task i).Sheet_tpch.Tpch_tasks.base) with
        | Protocol.Opened _ -> ()
        | r -> failwith ("open: " ^ Protocol.encode_response r));
        List.iter
          (fun (s : Model.step) ->
            match call (Protocol.Line s.line) with
            | Protocol.Applied _ -> ()
            | r -> failwith (s.line ^ ": " ^ Protocol.encode_response r))
          (steps i);
        match call Protocol.Rows with
        | Protocol.Table { uid; columns; rows } ->
            results.(i) <-
              Some
                { r_arena = arena; r_uid = uid; r_columns = columns;
                  r_rows = rows }
        | r -> failwith ("rows: " ^ Protocol.encode_response r)
      in
      List.init n (fun i ->
          Thread.create
            (fun () ->
              try client i
              with e -> failures.(i) <- Some (Printexc.to_string e))
            ())
      |> List.iter Thread.join);
  Array.iteri
    (fun i f ->
      match f with
      | Some msg -> Alcotest.failf "client u%d: %s" i msg
      | None -> ())
    failures;
  (* serial ground truth, one session at a time on a cold cache *)
  Materialize.reset_cache ();
  Array.iteri
    (fun i r ->
      let r = Option.get r in
      Spreadsheet.reset_uid_arena r.r_arena;
      Spreadsheet.in_uid_arena r.r_arena @@ fun () ->
      let base =
        Sheet_sql.Catalog.find_exn catalog (task i).Sheet_tpch.Tpch_tasks.base
      in
      let session =
        List.fold_left
          (fun session (s : Model.step) ->
            match Script.run_line session s.line with
            | Ok o -> o.Script.session
            | Error msg -> Alcotest.failf "u%d serial %s: %s" i s.line msg)
          (Session.create ~name:(task i).Sheet_tpch.Tpch_tasks.base base)
          (steps i)
      in
      let rel = Session.materialized session in
      Alcotest.(check int)
        (Printf.sprintf "u%d final uid" i)
        (Session.current session).Spreadsheet.uid r.r_uid;
      Alcotest.(check bool)
        (Printf.sprintf "u%d schema" i)
        true
        (r.r_columns
        = List.map
            (fun c -> (c.Schema.name, c.Schema.ty))
            (Schema.columns (Relation.schema rel)));
      Alcotest.(check bool)
        (Printf.sprintf "u%d rows and order" i)
        true
        (r.r_rows = List.map Row.to_list (Relation.rows rel)))
    results

(* ---------- the shared semantic cache ---------- *)

let apply_exn sheet op =
  match Engine.apply sheet op with
  | Ok s -> s
  | Error e -> Alcotest.failf "engine: %s" (Errors.to_string e)

let pred = Expr_parse.parse_string_exn

(* a pool of overlapping query states over the cars relation: chains
   of progressively stronger selections, some grouped/ordered, so
   exact hits, subsumed hits and misses all occur *)
let sheet_pool () =
  let base = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
  let chains =
    [
      [ "Price < 25000"; "Price < 20000"; "Price < 17000" ];
      [ "Year >= 2003"; "Year >= 2005" ];
      [ "Mileage <= 90000"; "Mileage <= 50000" ];
      [ "Price < 25000 and Year >= 2003"; "Price < 20000 and Year >= 2005" ];
    ]
  in
  let selection_sheets =
    List.concat_map
      (fun chain ->
        let rec go sheet = function
          | [] -> []
          | p :: rest ->
              let s = apply_exn sheet (Op.Select (pred p)) in
              s :: go s rest
        in
        go base chain)
      chains
  in
  let grouped =
    List.map
      (fun s ->
        apply_exn s (Op.Group { basis = [ "Model" ]; dir = Grouping.Asc }))
      selection_sheets
  in
  base :: (selection_sheets @ grouped)

let test_cache_hammer () =
  let pool = Array.of_list (sheet_pool ()) in
  Materialize.reset_cache ();
  (* ground truth via the cache-free path *)
  let expected = Array.map Materialize.full pool in
  let lookups = 480 in
  let rng = Sheet_stats.Rng.create 0x5EED in
  let wrong = ref 0 in
  for _ = 1 to lookups do
    let i = Sheet_stats.Rng.int rng (Array.length pool) in
    if not (Relation.equal (Materialize.full_cached pool.(i)) expected.(i))
    then incr wrong
  done;
  Alcotest.(check int)
    "every lookup equals the cache-free materialization" 0 !wrong;
  let s = Materialize.cache_stats () in
  Alcotest.(check int) "requests = one per lookup" lookups
    s.Materialize.requests;
  Alcotest.(check int) "requests = exact + subsumed + miss"
    s.Materialize.requests
    (s.Materialize.hits + s.Materialize.subsumed_hits + s.Materialize.misses);
  Alcotest.(check bool) "subsumption did occur" true
    (s.Materialize.subsumed_hits > 0);
  Materialize.reset_cache ()

(* qcheck: arbitrary select chains — cached answers (exact or
   subsumed) always equal the cache-free materialization, rows and
   order, and the hit-kind identity stays exact *)
let cache_overlap_prop =
  let gen_chain =
    QCheck.Gen.(
      small_list
        (oneofl
           [
             "Price < 25000"; "Price < 20000"; "Price < 17000";
             "Year >= 2003"; "Year >= 2005"; "Mileage <= 90000";
             "Mileage <= 50000"; "Condition = 'Good'";
           ]))
  in
  QCheck.Test.make ~count:60
    ~name:"full_cached = full on overlapping select chains"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 6) gen_chain))
    (fun chains ->
      Materialize.reset_cache ();
      let base = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation in
      let sheets =
        List.concat_map
          (fun chain ->
            let rec go sheet = function
              | [] -> []
              | p :: rest ->
                  let s = apply_exn sheet (Op.Select (pred p)) in
                  s :: go s rest
            in
            go base chain)
          chains
      in
      let ok =
        List.for_all
          (fun s -> Relation.equal (Materialize.full_cached s) (Materialize.full s))
          (sheets @ List.rev sheets)
      in
      let st = Materialize.cache_stats () in
      Materialize.reset_cache ();
      ok
      && st.Materialize.requests
         = st.Materialize.hits + st.Materialize.subsumed_hits
           + st.Materialize.misses)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:true in
  Alcotest.run "sheet_serve"
    [
      ( "protocol",
        [ q request_roundtrip; q response_roundtrip; q decode_total ] );
      ( "liveness",
        [
          Alcotest.test_case "garbage then ping (in-process)" `Quick
            test_garbage_then_ping;
          Alcotest.test_case "garbage then ping (socket)" `Quick
            test_garbage_over_socket;
        ] );
      ( "refusals",
        [
          Alcotest.test_case "file commands (socket)" `Quick
            test_refuse_host_files;
          Alcotest.test_case "process telemetry commands (socket)" `Quick
            test_refuse_process_telemetry;
          Alcotest.test_case "telemetry shows only the caller's session"
            `Quick test_telemetry_per_session;
          Alcotest.test_case "a subsumed hit names no other session's sheet"
            `Quick test_subsumed_from_another_session;
          Alcotest.test_case "oversized request line (socket)" `Quick
            test_oversized_line;
          Alcotest.test_case "pipelined requests answered in order (socket)"
            `Quick test_pipelined;
          Alcotest.test_case "a raising request is refused (socket)" `Quick
            test_raising_request;
          Alcotest.test_case "a client that never reads stalls only itself"
            `Quick test_non_reading_client;
        ] );
      ( "admission",
        [
          Alcotest.test_case "session cap" `Quick test_admission;
          Alcotest.test_case "rate cap" `Quick test_rate_cap;
          Alcotest.test_case "connection cap (socket)" `Quick
            test_connection_cap;
          Alcotest.test_case "70 sessions add no registry series" `Quick
            test_sessions_add_no_series;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "two connections, one session: no lost step"
            `Quick test_shared_session_no_lost_update;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "8 concurrent = serial replay" `Slow
            test_concurrent_determinism;
        ] );
      ( "cache",
        [
          Alcotest.test_case "sequential hammer" `Quick test_cache_hammer;
          q cache_overlap_prop;
        ] );
    ]
