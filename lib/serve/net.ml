type listener = {
  server : Server.t;
  path : string;
  sock : Unix.file_descr;
  mutable running : bool;
  conns_mutex : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable accept_thread : Thread.t option;
}

let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ()

let write_line fd line =
  let buf = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length buf in
  let rec go off =
    if off < len then
      let n = Unix.write fd buf off (len - off) in
      go (off + n)
  in
  go 0

let track l fd =
  Mutex.lock l.conns_mutex;
  l.conns <- fd :: l.conns;
  Mutex.unlock l.conns_mutex

let untrack l fd =
  Mutex.lock l.conns_mutex;
  l.conns <- List.filter (fun d -> d != fd) l.conns;
  Mutex.unlock l.conns_mutex

let max_line_bytes = 1 lsl 20

(* The next request line without its newline ([`Eof] at end of input),
   or [`Too_long] once it passes [max_line_bytes] — a client must not
   make the server buffer without bound. *)
let read_request inch =
  let buf = Buffer.create 256 in
  let rec go () =
    match In_channel.input_char inch with
    | None -> if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | Some '\n' -> `Line (Buffer.contents buf)
    | Some _ when Buffer.length buf >= max_line_bytes -> `Too_long
    | Some c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

(* One thread per connection: read lines, answer lines. [Server.handle]
   is total, so the only exits are EOF, [quit], an oversized line, or
   a socket error. *)
let serve_conn l fd =
  let conn = Server.connect l.server in
  let inch = Unix.in_channel_of_descr fd in
  let rec loop () =
    match read_request inch with
    | `Eof -> ()
    | `Too_long ->
        write_line fd
          (Protocol.encode_response
             (Protocol.Refused
                { busy = false; reason = "request line exceeds 1 MiB" }))
    | `Line line ->
        let resp, quit = Server.handle l.server conn line in
        write_line fd resp;
        (* [quit] answers Bye and ends the connection *)
        if not quit then loop ()
  in
  (try loop () with Unix.Unix_error _ | Sys_error _ | End_of_file -> ());
  untrack l fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop l =
  while l.running do
    match Unix.accept l.sock with
    | fd, _ ->
        track l fd;
        ignore (Thread.create (serve_conn l) fd)
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> l.running <- false
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> if l.running then Thread.yield ()
  done

let listen server ~path =
  ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind sock (ADDR_UNIX path);
  Unix.listen sock 128;
  let l =
    {
      server;
      path;
      sock;
      running = true;
      conns_mutex = Mutex.create ();
      conns = [];
      accept_thread = None;
    }
  in
  l.accept_thread <- Some (Thread.create accept_loop l);
  l

let shutdown l =
  if l.running then begin
    l.running <- false;
    (* closing an fd does not wake a thread blocked in [accept] on it;
       a throwaway connection does *)
    (try
       let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
       (try Unix.connect fd (ADDR_UNIX l.path) with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (match l.accept_thread with Some t -> Thread.join t | None -> ());
    l.accept_thread <- None;
    (try Unix.close l.sock with Unix.Unix_error _ -> ());
    Mutex.lock l.conns_mutex;
    let conns = l.conns in
    l.conns <- [];
    Mutex.unlock l.conns_mutex;
    List.iter
      (fun fd ->
        try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    try Unix.unlink l.path with Unix.Unix_error _ -> ()
  end

module Client = struct
  type t = { fd : Unix.file_descr; inch : in_channel }

  let connect ~path =
    ignore_sigpipe ();
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    (try Unix.connect fd (ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; inch = Unix.in_channel_of_descr fd }

  let call c req =
    match
      write_line c.fd (Protocol.encode_request req);
      In_channel.input_line c.inch
    with
    | None -> Error "connection closed by server"
    | Some line -> Protocol.decode_response line
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | exception Sys_error e -> Error e

  let call_exn c req =
    match call c req with
    | Ok resp -> resp
    | Error e -> failwith ("Sheetserve client: " ^ e)

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end
