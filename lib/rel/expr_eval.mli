(** Evaluation of expressions against a row environment.

    NULL semantics (documented in DESIGN.md): arithmetic, negation and
    concatenation propagate [Null]; comparisons, [LIKE], [IN] and
    [BETWEEN] involving [Null] are false; [AND]/[OR]/[NOT] treat a
    [Null] operand as false (two-valued simplification of SQL's
    three-valued logic — adequate for a direct-manipulation interface
    where every predicate's effect is immediately visible). Division
    by zero yields [Null]. *)

exception Eval_error of string

val eval :
  lookup:(string -> Value.t) ->
  ?agg:(Expr.agg_fun -> Expr.t option -> Value.t) ->
  Expr.t ->
  Value.t
(** [eval ~lookup e] evaluates [e], resolving column references with
    [lookup]. [Agg] nodes are delegated to [agg] when provided.
    @raise Eval_error on unknown columns (when [lookup] raises
    [Not_found]), type-mismatched operands, or an [Agg] node without
    an [agg] handler. *)

val eval_pred :
  lookup:(string -> Value.t) ->
  ?agg:(Expr.agg_fun -> Expr.t option -> Value.t) ->
  Expr.t ->
  bool
(** Evaluate as a predicate: [Bool true] is true; [Bool false] and
    [Null] are false.
    @raise Eval_error when the expression yields a non-boolean. *)

val compile_with :
  column:(string -> ('h -> Value.t) option) ->
  ?agg:(Expr.agg_fun -> Expr.t option -> 'h -> Value.t) ->
  Expr.t ->
  'h ->
  Value.t
(** The expression compiler, polymorphic in the row handle:
    [column c] resolves a column reference once to a reader of the
    handle ([None]: an unknown column, which raises [Eval_error] when
    the closure runs, as [eval] does). On every handle the closure
    yields the value [eval] yields with [lookup c = read handle], or
    raises the same [Eval_error]. [agg fn arg], when given, resolves
    each [Agg] node once to a reader of the handle, as [eval]'s [agg]
    handler does per call; without it an [Agg] node raises when the
    closure runs. *)

val compile : Schema.t -> Expr.t -> Row.t -> Value.t
(** [compile schema e] resolves [e]'s column references against
    [schema] once and returns a per-row closure equivalent to [eval]
    with a positional lookup: on every row it yields the same value or
    raises the same [Eval_error] (an unknown column or an aggregate
    call raises when the closure runs, not at compile time). It is
    {!compile_with} over positional reads of a row. *)

val compile_pred :
  column:(string -> ('h -> Value.t) option) -> Expr.t -> 'h -> bool
(** {!compile_with}, read as a predicate as {!eval_pred} does. *)

type acc
(** The running state of one aggregate over one group. *)

val acc_create : Expr.agg_fun -> acc
val acc_add : acc -> Value.t -> unit
(** Add one row's value (for [Count_star] the value is ignored).
    @raise Eval_error when [Sum]/[Avg] meet a non-null non-numeric
    value, with {!apply_agg}'s message. *)

val acc_result : acc -> Value.t
(** The aggregate of the values added so far, in the order added;
    it may be read at any time and does not change the state. *)

val apply_agg : Expr.agg_fun -> Value.t list -> Value.t
(** Fold an aggregate function over the column values of one group
    (one element per row; for [Count_star] the values are ignored):
    {!acc_result} after {!acc_add} of each value in list order.
    SQL semantics: [Count]/[Count_star] never null; [Sum]/[Avg]/
    [Min]/[Max] skip nulls and yield [Null] on an empty (or all-null)
    input; [Avg] and [Sum] over any float are floats, [Avg] is always
    a float. Float totals are the left fold from [0.] in value
    order. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE: [%] matches any sequence, [_] any single character. *)
