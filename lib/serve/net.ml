(* A connection: its [Server] state, the unanswered bytes it sent
   ([inbuf] from [pos] on), and the one response line not yet written
   ([out] from [off] on). *)
type conn = {
  fd : Unix.file_descr;
  session : Server.conn;
  mutable inbuf : string;
  mutable pos : int;
  mutable out : string;
  mutable off : int;
  mutable closing : bool;  (* close once no whole line is left *)
}

type listener = {
  server : Server.t;
  path : string;
  sock : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* the loop thread's own *)
  mutable loop : Thread.t option;
}

let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ()

let write_line fd line =
  let line = line ^ "\n" in
  let len = String.length line in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd line off (len - off))
  in
  go 0

let max_line_bytes = 1 lsl 20

(* Live connections past this are answered busy and closed. With the
   listening socket, the wake pipe and the same number of in-process
   clients, every descriptor [select] watches stays below FD_SETSIZE
   (1024). *)
let max_conns = 256

let refusal ~busy reason =
  Protocol.encode_response (Protocol.Refused { busy; reason })

let close_conn l c =
  Hashtbl.remove l.conns c.fd;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* [Server.handle] is total over bytes, but a base resolver or the
   engine underneath may still raise; that request is refused, and the
   connection keeps serving. *)
let answer l c line =
  match Server.handle l.server c.session line with
  | r -> r
  | exception e -> (refusal ~busy:false (Printexc.to_string e), false)

(* Answer whole lines while each answer is written at once; a line
   whose answer the socket does not take now waits for [select]. Lines
   are scanned from [pos]: answering one copies nothing else. *)
let rec serve_lines l c =
  if c.out = "" then begin
    let s = c.inbuf and pos = c.pos in
    match String.index_from_opt s pos '\n' with
    | Some i when i - pos <= max_line_bytes ->
        c.pos <- i + 1;
        let resp, quit = answer l c (String.sub s pos (i - pos)) in
        (* [quit] ends the connection: what follows it is dropped *)
        if quit then c.pos <- String.length s;
        c.closing <- c.closing || quit;
        c.out <- resp ^ "\n";
        flush l c
    | None when String.length s - pos <= max_line_bytes ->
        if c.closing then close_conn l c
    | _ ->
        c.pos <- String.length s;
        c.closing <- true;
        c.out <- refusal ~busy:false "request line exceeds 1 MiB" ^ "\n";
        flush l c
  end

and flush l c =
  match Unix.write_substring c.fd c.out c.off (String.length c.out - c.off) with
  | n ->
      c.off <- c.off + n;
      if c.off = String.length c.out then begin
        c.out <- "";
        c.off <- 0;
        serve_lines l c
      end
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn l c

(* A read keeps the unread tail once, then what it brought in. At end
   of input a last line without its newline is still answered. *)
let read l chunk c =
  let append s =
    c.inbuf <- String.sub c.inbuf c.pos (String.length c.inbuf - c.pos) ^ s;
    c.pos <- 0
  in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
      if c.pos < String.length c.inbuf then append "\n";
      c.closing <- true;
      serve_lines l c
  | n ->
      append (Bytes.sub_string chunk 0 n);
      serve_lines l c
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn l c

let accept l =
  match Unix.accept ~cloexec:true l.sock with
  | fd, _ ->
      Unix.set_nonblock fd;
      if Hashtbl.length l.conns >= max_conns then begin
        (try write_line fd (refusal ~busy:true "server full")
         with Unix.Unix_error _ -> ());
        Unix.close fd
      end
      else
        Hashtbl.replace l.conns fd
          { fd; session = Server.connect l.server; inbuf = ""; pos = 0;
            out = ""; off = 0; closing = false }
  | exception Unix.Unix_error _ -> ()

(* The one thread that reads, runs the engine and writes. A connection
   with an answer pending is watched for writing only, so it buffers
   one response and what one read brought in. *)
let run l =
  let chunk = Bytes.create 65536 in
  let rec loop () =
    let rd, wr =
      Hashtbl.fold
        (fun fd c (rd, wr) -> if c.out = "" then (fd :: rd, wr) else (rd, fd :: wr))
        l.conns
        ([ l.wake_r; l.sock ], [])
    in
    match Unix.select rd wr [] (-1.) with
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | rd, _, _ when List.memq l.wake_r rd -> ()
    | rd, wr, _ ->
        (* the listening socket is no connection: [each] skips it *)
        let each f fds =
          List.iter (fun fd -> Option.iter f (Hashtbl.find_opt l.conns fd)) fds
        in
        each (flush l) wr;
        each (read l chunk) rd;
        if List.memq l.sock rd then accept l;
        loop ()
  in
  loop ()

let listen server ~path =
  ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind sock (ADDR_UNIX path);
  Unix.listen sock 128;
  Unix.set_nonblock sock;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let l =
    { server; path; sock; wake_r; wake_w; conns = Hashtbl.create 64;
      loop = None }
  in
  l.loop <- Some (Thread.create run l);
  l

let shutdown l =
  match l.loop with
  | None -> ()
  | Some t ->
      l.loop <- None;
      write_line l.wake_w "";
      Thread.join t;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        ([ l.sock; l.wake_r; l.wake_w ]
        @ List.of_seq (Hashtbl.to_seq_keys l.conns));
      Hashtbl.reset l.conns;
      try Unix.unlink l.path with Unix.Unix_error _ -> ()

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
