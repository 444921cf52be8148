(** Sheetserve: the concurrent multi-session server core.

    One process serves many interactive spreadsheet sessions
    (DESIGN.md §10). The transport ({!Net}) hands each connection's
    request lines to {!handle}, which is {e total} — any byte
    sequence, in any state, produces exactly one response line and
    never an exception or a wedged connection.

    A server is driven from one thread — {!Net}'s loop calls {!handle}
    for every connection — and takes no lock: each request's engine
    work, from reading its session's state to writing the new one,
    runs with no other request in between. That loop is the engine's
    one thread ({!Sheet_obs.Obs}, "One engine thread").

    {2 Sessions and determinism}

    A session is keyed by the client id given in [hello] and survives
    disconnects (re-[hello] re-attaches; [quit] destroys). Each
    session allocates uids from its own arena
    ({!Sheet_core.Spreadsheet.in_uid_arena}), so the uid sequence a
    session observes is a function of its own request stream only —
    replaying the same lines serially (same arena, after
    [reset_uid_arena] + [Materialize.reset_cache]) reproduces rows,
    order {e and uids} bit-identically, which is what the load harness
    asserts.

    {2 Admission control}

    [hello] beyond [max_sessions] live sessions, and any [line] past
    the per-session [max_ops_per_s] budget of the current one-second
    window, are refused with [busy = true] — a well-formed "try again
    later", not an error. {!Net} caps live connections the same way.

    {2 What a line may do}

    A [line] runs one Script command in the caller's session, and only
    commands whose {!Sheet_core.Script.reach} is [Sheet_only]: those
    that read or write the daemon's file system ([load], [import],
    [export], [html], [trace export]) or change telemetry for every
    session in the process ([trace mem|off], [flightrec clear])
    are refused with [busy = false]. *)

open Sheet_rel

type config = {
  max_sessions : int;  (** admission cap on concurrently live sessions *)
  max_ops_per_s : int;
      (** per-session [line] budget per fixed one-second window;
          [<= 0] means unlimited *)
  lookup : string -> Relation.t option;
      (** resolver for [open] — typically [Catalog.find] over the
          TPC-H views *)
  now : unit -> float;
      (** clock for rate windows (injectable for tests; the binaries
          pass [Unix.gettimeofday]) *)
}

val config :
  ?max_sessions:int ->
  ?max_ops_per_s:int ->
  ?now:(unit -> float) ->
  (string -> Relation.t option) ->
  config
(** Defaults: 256 sessions, 0 (unlimited) ops/s, [Unix.gettimeofday]. *)

type t

val create : config -> t
(** A fresh server. Arena ids are allocated from a process-global
    counter, so two servers in one process never share a uid
    namespace. *)

type conn
(** Per-connection state: which client id (if any) this connection has
    bound with [hello]. *)

val connect : t -> conn

val handle : t -> conn -> string -> string * bool
(** One raw request line in, one response line (no trailing newline)
    out, and whether the request was [quit] (which ends the
    connection). Total: parse failures and engine refusals come back
    as [Refused] responses. *)

val handle_request : t -> conn -> Protocol.request -> Protocol.response
(** {!handle} after decoding — the seam the in-process tests drive. *)

val session_count : t -> int
val live_clients : t -> string list
(** Sorted client ids of live sessions. *)

val stats : t -> Protocol.response
(** The [Stats] response: live sessions, successfully applied ops,
    busy rejections. *)
