(** The spreadsheet: the paper's quadruple [S = (R, C, G, O)]
    (Definition 1) together with its query state.

    - [R] is the {e base relation}: the data as of the most recent
      point of non-commutativity (initially the relation the sheet was
      created from; replaced wholesale by every binary operator).
      Selections and duplicate elimination accumulated since then live
      in the query state and are applied on materialization, which is
      what makes them modifiable (Section V).
    - [C] is the column list: the base relation's columns (each
      possibly hidden by projection) followed by computed columns.
    - [G] and [O] are the grouping/ordering specification
      ({!Grouping.t}), also part of the query state. *)

open Sheet_rel

type t = {
  uid : int;
      (** unique identity of this immutable sheet value; every operator
          application produces a fresh one. Keys the materialization
          cache. *)
  name : string;  (** display name, used when saving to the store *)
  base_name : string;  (** description of [R], e.g. ["cars × dealers"] *)
  version : int;  (** the paper's superscript [j] *)
  base : Relation.t;
  state : Query_state.t;
}

val fresh_uid : unit -> int
(** For constructors outside this module (e.g. deserialization).
    Allocates from the process-global namespace, or from the current
    arena inside {!in_uid_arena}. *)

(** {1 Uid arenas (Sheetserve)}

    A server session must issue the same uid sequence whether it runs
    alone or interleaved with hundreds of others — uids key the shared
    materialization cache and appear in telemetry, so nondeterministic
    allocation would make per-session replay incomparable. An {e
    arena} is a private uid namespace: inside [in_uid_arena a f],
    every uid is [a * 2^32 + local] where [local] counts up from 1
    privately to arena [a]. Arenas never collide with each other or
    with the default namespace. *)

val in_uid_arena : int -> (unit -> 'a) -> 'a
(** Run a thunk with uid allocation redirected to the given arena
    (1 <= arena <= 2^29; [Invalid_argument] otherwise). The previous
    namespace is restored afterwards, exceptions included. Uid
    allocation is the engine's, so it runs on one thread at a time
    ({!Sheet_obs.Obs}, "One engine thread"). *)

val same_uid_arena : int -> int -> bool
(** Whether two uids were allocated from the same namespace — one
    arena, or both from the default one. *)

val reset_uid_arena : int -> unit
(** Forget an arena's local counter so a replay reissues the same
    uids. The caller must also drop every uid-keyed cache
    ({!Sheet_core.Materialize.reset_cache}) or stale entries keyed by
    the reused uids will be served. Test/load-harness only. *)

val of_relation : name:string -> Relation.t -> t
(** The base spreadsheet [S^0] (Definition 2): columns inherited,
    grouping and ordering empty. A batch-backed relation whose vector
    does not ascend is re-rooted on its rows, so that every sheet's
    base scans in root order: its order is the base order ties and
    folds follow. *)

val bump : t -> t
(** Next version of the same sheet. *)

val grouping : t -> Grouping.t

val base_schema : t -> Schema.t

val full_schema : t -> Schema.t
(** Base columns in base order, then computed columns in definition
    order — including hidden ones. *)

val visible_schema : t -> Schema.t

val visible_columns : t -> string list
val hidden_columns : t -> string list

val is_hidden : t -> string -> bool
val column_exists : t -> string -> bool
(** In the full schema. *)

val is_computed : t -> string -> bool

val pp : Format.formatter -> t -> unit
(** Compact structural summary (not the data — see
    {!Render.to_string}). *)
