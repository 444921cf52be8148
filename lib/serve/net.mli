(** Socket transport for {!Server}: one thread per listener runs a
    [Unix.select] loop over the Unix-domain listening socket and every
    live connection, and calls {!Server.handle} itself — it is the only
    thread that touches the server, so nothing on the engine path
    takes a lock. Also a tiny blocking client.

    Each connection sends newline-terminated request lines and gets
    back one response line per request. Connections are non-blocking:
    the loop writes what the socket takes now and reads nothing more
    from a connection while its response is unsent, so a connection's
    buffers stay bounded and a client that does not read stalls only
    itself. Malformed bytes, and a
    request that raises, produce a [Refused] line and the connection
    keeps serving. A connection ends on client EOF (a last line
    without its newline is still answered), [quit], a socket error, or
    a request line longer than 1 MiB, which is answered [Refused]
    before the connection closes. [SIGPIPE] is ignored process-wide on
    {!listen} so an abruptly-closed peer surfaces as [EPIPE], which
    ends just that connection. *)

type listener

val max_conns : int
(** Live connections one listener serves at once; one past it is
    answered [Refused {busy = true}] and closed. *)

val listen : Server.t -> path:string -> listener
(** Bind a Unix domain socket at [path] (unlinking any stale one),
    start the loop thread, and serve until {!shutdown}. Run one
    listener per process at a time: two loops would run engine work
    at once. *)

val shutdown : listener -> unit
(** Wake and join the loop thread, close the listening socket and
    every live connection, and unlink the socket path. Idempotent. *)

(** Blocking client used by the binaries, the gate and the load
    driver. Not thread-safe: one [t] per thread. *)
module Client : sig
  type t

  val connect : path:string -> t
  (** @raise Unix.Unix_error when the server is not listening. *)

  val call : t -> Protocol.request -> (Protocol.response, string) result
  (** Send one request and block for its response line. [Error] on
      EOF, socket trouble, or an undecodable response. *)

  val call_exn : t -> Protocol.request -> Protocol.response
  (** {!call}, raising [Failure] on [Error] — for harness code where
      any transport failure is fatal. *)

  val close : t -> unit
end
