(** First-class descriptions of spreadsheet-algebra operator
    invocations.

    Every user manipulation is one of these values; the engine
    interprets them, the history menu displays them ("a numbered list,
    each with meaningful names" — Sec. VI), scripts serialize them,
    and the user-study simulator costs them. *)

open Sheet_rel

type t =
  | Group of { basis : string list; dir : Grouping.dir }
      (** [τ]: full grouping-basis (superset of the current finest) *)
  | Regroup of { basis : string list; dir : Grouping.dir }
      (** destroy the current grouping and group afresh (Sec. VI-A) *)
  | Ungroup  (** destroy all grouping *)
  | Order of { attr : string; dir : Grouping.dir; level : int }  (** [λ] *)
  | Order_groups of { attr : string; dir : Grouping.dir }
      (** extension: order the sibling groups at an aggregate's level
          by that aggregate's value ("largest revenue first") — see
          {!Grouping.level.order_by_value} *)
  | Select of Expr.t  (** [σ] *)
  | Project of string  (** [π]: hide one column *)
  | Unproject of string  (** [Π_ī]: reinstate a hidden column (Sec. V-B) *)
  | Product of string  (** [×] with the named stored spreadsheet *)
  | Union of string  (** [∪] *)
  | Diff of string  (** [−] *)
  | Join of { stored : string; cond : Expr.t }  (** [⋈] *)
  | Aggregate of {
      fn : Expr.agg_fun;
      col : string option;  (** [None] only for count-star *)
      level : int;
      as_name : string option;
    }  (** [η] *)
  | Formula of { name : string option; expr : Expr.t }  (** [θ] *)
  | Dedup  (** [δ], duplicate elimination *)
  | Rename of { old_name : string; new_name : string }

val describe : t -> string
(** Meaningful name for the history menu. *)

val kind : t -> string
(** Short constructor tag ("select", "group", ...) used as the span
    kind by the {!Sheet_obs} instrumentation. *)

val pp : Format.formatter -> t -> unit
