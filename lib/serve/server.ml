open Sheet_rel
open Sheet_core
module Obs = Sheet_obs.Obs

type config = {
  max_sessions : int;
  max_ops_per_s : int;
  lookup : string -> Relation.t option;
  now : unit -> float;
}

let config ?(max_sessions = 256) ?(max_ops_per_s = 0)
    ?(now = Unix.gettimeofday) lookup =
  { max_sessions; max_ops_per_s; lookup; now }

type session_state = {
  client : string;
  arena : int;
  labels : Obs.Labels.t;
  mutable sess : Session.t option;
      (* None until [open] *)
  mutable window_start : float;
  mutable window_ops : int;
}

type t = {
  cfg : config;
  sessions : (string, session_state) Hashtbl.t;
  mutable ops : int;
  mutable busy_rejections : int;
}

(* Arenas are process-global (they key the shared uid namespace), so
   two servers in one test process never reuse each other's. *)
let next_arena = Atomic.make 1
let fresh_arena () = Atomic.fetch_and_add next_arena 1

let create cfg =
  {
    cfg;
    sessions = Hashtbl.create 64;
    ops = 0;
    busy_rejections = 0;
  }

type conn = { mutable bound : string option }

let connect _t = { bound = None }

(* serve.* counters live beside the engine's own telemetry; the Stats
   response reads the server-local fields so gate-time Metrics.reset
   calls cannot skew it. *)
let m_requests = lazy (Obs.Metrics.counter "serve.requests")
let m_ops = lazy (Obs.Metrics.counter "serve.ops")
let m_busy = lazy (Obs.Metrics.counter "serve.busy_rejections")
let m_sessions = lazy (Obs.Metrics.gauge "serve.sessions")

let refused reason = Protocol.Refused { busy = false; reason }

let busy t reason =
  t.busy_rejections <- t.busy_rejections + 1;
  Obs.Metrics.incr (Lazy.force m_busy);
  Protocol.Refused { busy = true; reason }

(* The engine-visible context of a request: the session's telemetry
   labels and uid arena. *)
let with_engine (st : session_state) f =
  Obs.set_ambient_labels st.labels;
  Fun.protect
    ~finally:(fun () -> Obs.set_ambient_labels Obs.Labels.empty)
    (fun () -> Spreadsheet.in_uid_arena st.arena f)

let hello t conn client =
  match Hashtbl.find_opt t.sessions client with
  | Some st ->
      conn.bound <- Some client;
      Protocol.Welcome { session = client; arena = st.arena }
  | None when Hashtbl.length t.sessions >= t.cfg.max_sessions ->
      busy t "server full"
  | None ->
      let st =
        {
          client;
          arena = fresh_arena ();
          labels = Obs.Labels.v [ ("session", client) ];
          sess = None;
          window_start = t.cfg.now ();
          window_ops = 0;
        }
      in
      Hashtbl.replace t.sessions client st;
      Obs.Metrics.set (Lazy.force m_sessions) (Hashtbl.length t.sessions);
      conn.bound <- Some client;
      Protocol.Welcome { session = client; arena = st.arena }

let bound_session t conn = Option.bind conn.bound (Hashtbl.find_opt t.sessions)

(* Fixed one-second windows: cheap, and "graceful" in the protocol
   sense — a capped client gets [busy] and retries, never a hang. *)
let rate_admit t (st : session_state) =
  if t.cfg.max_ops_per_s <= 0 then true
  else begin
    let now = t.cfg.now () in
    if now -. st.window_start >= 1.0 then begin
      st.window_start <- now;
      st.window_ops <- 0
    end;
    if st.window_ops >= t.cfg.max_ops_per_s then false
    else begin
      st.window_ops <- st.window_ops + 1;
      true
    end
  end

let open_base t (st : session_state) base =
  match t.cfg.lookup base with
  | None -> refused (Printf.sprintf "unknown base %S" base)
  | Some rel ->
      let sheet =
        with_engine st (fun () ->
            let sess = Session.create ~name:base rel in
            st.sess <- Some sess;
            Session.current sess)
      in
      Protocol.Opened
        {
          base;
          uid = sheet.Spreadsheet.uid;
          rows = Relation.cardinality rel;
        }

let run_line t (st : session_state) text =
  match Script.reach text with
  | Script.Host_files ->
      refused "commands that read or write files do not run on a server"
  | Script.Process_telemetry ->
      refused
        "commands that change telemetry for every session do not run on a \
         server"
  | Script.Sheet_only -> (
      let applied =
        with_engine st (fun () ->
            match st.sess with
            | None -> Error "open required before line"
            | Some sess ->
                let r = Script.run_line sess text in
                Result.iter (fun o -> st.sess <- Some o.Script.session) r;
                r)
      in
      match applied with
      | Error msg -> refused msg
      | Ok { Script.session; output } ->
          t.ops <- t.ops + 1;
          Obs.Metrics.incr (Lazy.force m_ops);
          let sheet = Session.current session in
          Protocol.Applied { uid = sheet.Spreadsheet.uid; output })

let rows_of (st : session_state) =
  let page =
    with_engine st (fun () ->
        Option.map
          (fun sess ->
            let sheet = Session.current sess in
            (sheet, Render.page sheet))
          st.sess)
  in
  match page with
  | None -> refused "open required before rows"
  | Some (sheet, p) ->
      Protocol.Table
        {
          uid = sheet.Spreadsheet.uid;
          columns =
            List.map (fun c -> (c.Render.name, c.Render.ty)) p.Render.columns;
          rows = Array.to_list (Array.map Row.to_list p.Render.rows);
        }

let stats t =
  Protocol.Stats
    {
      sessions = Hashtbl.length t.sessions;
      ops = t.ops;
      busy_rejections = t.busy_rejections;
    }

let quit t conn =
  (match conn.bound with
  | None -> ()
  | Some client ->
      Hashtbl.remove t.sessions client;
      Obs.Metrics.set (Lazy.force m_sessions) (Hashtbl.length t.sessions));
  conn.bound <- None;
  Protocol.Bye

let handle_request t conn req =
  Obs.Metrics.incr (Lazy.force m_requests);
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Status -> stats t
  | Protocol.Hello client -> hello t conn client
  | Protocol.Quit -> quit t conn
  | Protocol.Open base -> (
      match bound_session t conn with
      | None -> refused "hello required before open"
      | Some st -> open_base t st base)
  | Protocol.Line text -> (
      match bound_session t conn with
      | None -> refused "hello required before line"
      | Some st -> (
          match st.sess with
          | None -> refused "open required before line"
          | Some _ ->
              if rate_admit t st then run_line t st text
              else busy t "rate limit exceeded"))
  | Protocol.Rows -> (
      match bound_session t conn with
      | None -> refused "hello required before rows"
      | Some st -> rows_of st)

let handle t conn line =
  let req = Protocol.decode_request line in
  let resp =
    match req with
    | Error e -> refused ("parse error: " ^ e)
    | Ok req -> handle_request t conn req
  in
  (Protocol.encode_response resp, req = Ok Protocol.Quit)

let session_count t = Hashtbl.length t.sessions

let live_clients t =
  Hashtbl.fold (fun c _ acc -> c :: acc) t.sessions []
  |> List.sort String.compare

