(** Intervals over the total order of {!Value.compare} — the abstract
    domain behind static predicate analysis ({!Sheetsolve}).

    An interval denotes a set of {e non-null} values; [Null] (and the
    question of whether a constraint tolerates it) is tracked
    separately by the client, because SQL comparisons never accept
    [Null]. Intervals over-approximate the satisfied set of a
    comparison atom: [x < 10] denotes every value below [Int 10] in
    the total order, which contains all the numbers below ten and is
    therefore a sound superset of the values that actually satisfy the
    comparison.

    Integer endpoints are tightened: an open bound at [Int n] is
    closed to [n±1], so [x > 5 AND x < 6] over an integer column is
    recognized as empty. *)

type bound =
  | Unbounded
  | Incl of Value.t  (** closed endpoint *)
  | Excl of Value.t  (** open endpoint *)

type t = { lo : bound; hi : bound }

val full : t
(** Every non-null value. *)

val empty : t
(** A canonical empty interval. *)

val point : Value.t -> t

val of_cmp : Expr.cmp -> Value.t -> t
(** [of_cmp op v] over-approximates [{x | x op v}] (non-null [x]).
    [Ne] yields {!full} — exclusion of a point is not an interval. *)

val is_empty : ?ty:Value.vtype -> t -> bool
(** Provably empty. [ty], when known to be [TInt] or [TDate],
    enables discrete tightening of open integer endpoints. *)

val tighten : Value.vtype option -> t -> t
(** Close open integer/date endpoints one step in ([x > 5] becomes
    [x >= 6]) when the type is discrete; identity otherwise. Lets
    clients ({!Sheetsolve}) enumerate small discrete ranges. *)

val inter : t -> t -> t

val subset : t -> t -> bool
(** [subset a b]: every value of [a] lies in [b] (conservative:
    [false] when not provable). *)

val mem : Value.t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
