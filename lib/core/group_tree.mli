(** The recursive grouped structure itself.

    A spreadsheet is "a recursively grouped set of tuples ... a set of
    (set of ...) sets" (Sec. II-A). {!Materialize} realizes it as a
    flat, ordered relation (the form a screen shows); this module
    recovers the explicit tree — one node per group, rows at the
    leaves — which is what operators that "compute any function of
    groups" conceptually traverse, and what a richer UI (collapsible
    groups) would render. *)

open Sheet_rel

type node = {
  level : int;  (** paper group level of this node's group, [>= 2] *)
  key : (string * Value.t) list;
      (** the group's values on its {e relative} grouping basis *)
  members : members;
}

and members =
  | Groups of node list  (** subgroups, in presentation order *)
  | Rows of Row.t list  (** leaf group: tuples in presentation order *)

type t = {
  schema : Schema.t;
  members : members;  (** the root (paper level 1) group's members *)
}

val build : Spreadsheet.t -> t
(** Build from the cached full materialization
    ({!Materialize.full_cached}, hidden columns included). *)

val rows : t -> Row.t list
(** All tuples, flattened back, in presentation order — inverse of
    {!build} with respect to the materialized row list. *)

val group_count : t -> level:int -> int
(** Number of groups at a paper level ([level 1] is always 1, the
    sheet itself). *)

val depth : t -> int
(** Number of group levels including the root — equals
    [Grouping.num_levels]. *)

val to_string : ?max_rows:int -> t -> string
(** Indented textual rendering: group headers with their key values,
    rows beneath. *)
