(** Socket transport for {!Server}: a Unix-domain-socket accept loop
    (stdlib [Unix] + [Thread], one thread per connection) and a tiny
    blocking client.

    Each connection reads newline-terminated request lines and writes
    back one response line per request. Because {!Server.handle} is
    total, a connection only ends on client EOF, [quit], a socket
    error, or a request line longer than 1 MiB, which is answered
    [Refused] before the connection closes — malformed bytes produce a
    [Refused] line and the connection keeps serving. [SIGPIPE] is ignored process-wide on
    {!listen} so an abruptly-closed peer surfaces as [EPIPE] (which
    ends just that connection's thread) rather than killing the
    process. *)

type listener

val listen : Server.t -> path:string -> listener
(** Bind a Unix domain socket at [path] (unlinking any stale one),
    start the accept thread, and serve until {!shutdown}. *)

val shutdown : listener -> unit
(** Close the listening socket, wake and join the accept thread, close
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
