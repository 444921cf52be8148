(** Sheetsolve — a small, reusable predicate solver over the
    spreadsheet expression language.

    It is the interval abstraction behind static predicate analysis
    (Sheetlint, which reports unsatisfiable, tautological and implied
    selections; the plan keeps them): each conjunct of a bounded DNF
    is abstracted into one normalized {!constr} per column — an
    over-approximating
    {!Interval.t} over the non-null values, a finite set of
    {e excluded} values (so equality/disequality atoms like
    [x = 3 AND x <> 3] refute each other), and a flag telling whether
    [NULL] can satisfy the conjunct's literals on that column.

    Everything here is a theorem about {!Expr_eval.eval_pred}'s
    two-valued semantics: comparisons involving [NULL] or incomparable
    types are [false], so a {e positive} atom rejects [NULL] but its
    negation [NOT (x < 10)] {e accepts} it. The solver answers
    "don't know" liberally; a definite verdict is always sound.

    On top of satisfiability sits {!subsumes} — a bounded DNF×DNF
    implication procedure that returns a {!proof} object saying {e
    why} [p] entails [q], usable both by lints (witness columns in
    diagnostics) and by execution (the semantic materialization cache
    in [Sheet_core.Materialize]). *)

type verdict = [ `Maybe | `Unsat of string list ]
(** [`Unsat cols] is a proof that no row satisfies the predicate;
    [cols] are columns whose constraints are contradictory (possibly
    empty when the contradiction is not tied to a column). [`Maybe]
    claims nothing. *)

type constr = {
  itv : Interval.t;  (** over-approximation of the non-null values *)
  excluded : Value.t list;  (** values the column provably avoids *)
  null_ok : bool;  (** can [NULL] satisfy the literals? *)
}
(** The normalized per-column constraint: the concretization is
    [(itv \ excluded)  ∪  (NULL when null_ok)]. *)

type witness = {
  w_col : string;  (** column the implication step pivots on *)
  w_note : string;  (** human-readable "have …, forces …" *)
}

type step =
  | Disjunct_unsat of { disjunct : int; cols : string list }
      (** this disjunct of [p] is itself empty — nothing to entail *)
  | Disjunct_absorbed of {
      disjunct : int;
      into : int;  (** index of the absorbing disjunct of [q] *)
      witnesses : witness list;
    }

type proof =
  | By_cases of step list
      (** one step per disjunct of [p]'s DNF, in order *)
  | By_refutation of string list
      (** [p AND NOT q] is unsatisfiable (global fallback); the list
          names the contradicted columns *)

val check : ?type_of:(string -> Value.vtype option) -> Expr.t -> verdict
(** [type_of] supplies declared column types (from a schema); with
    them the analysis also proves comparisons across incomparable
    types unsatisfiable ([Model < 10] on a string column), tightens
    open integer endpoints ([x > 5 AND x < 6] over ints), and can
    refute small enumerable ranges whose every value is excluded. *)

val satisfiable : ?type_of:(string -> Value.vtype option) -> Expr.t -> bool
(** [false] only on a proof of unsatisfiability. *)

val tautology : ?type_of:(string -> Value.vtype option) -> Expr.t -> bool
(** [true] only when the predicate provably holds on {e every} row —
    including rows with nulls, so [x < 10 OR x >= 10] is {e not} a
    tautology but [x < 10 OR x >= 10 OR x IS NULL] is (given [x]'s
    type). *)

val implies :
  ?type_of:(string -> Value.vtype option) -> Expr.t -> Expr.t -> bool
(** [implies p q]: every row satisfying [p] satisfies [q] (provable).
    Equivalent to [subsumes p q <> None]. *)

val subsumes :
  ?type_of:(string -> Value.vtype option) ->
  Expr.t ->
  Expr.t ->
  proof option
(** [subsumes p q] proves that every row satisfying [p] satisfies
    [q], or returns [None] (which claims nothing). The procedure
    tries disjunct-wise absorption first — each disjunct of [p]'s DNF
    is either unsatisfiable or entailed, literal by literal, by some
    disjunct of [q]'s DNF, with a per-column {!witness} for every
    entailed literal — and falls back to refuting [p AND NOT q]
    wholesale, so it is at least as strong as {!implies} ever was. *)

val equivalent :
  ?type_of:(string -> Value.vtype option) -> Expr.t -> Expr.t -> bool
(** Mutual subsumption: [p] and [q] provably select the same rows
    ([Price < 10000] and [Price <= 9999] over an integer column). *)

val contradiction :
  ?type_of:(string -> Value.vtype option) ->
  Expr.t ->
  Expr.t ->
  string list option
(** [contradiction p q = Some cols] proves no row satisfies both,
    naming the contradicted columns ([x = 3] vs [x <> 3] pivots on
    [x]). *)

val explain : proof -> string
(** Render a proof for diagnostics and the flight recorder. *)

val constr_to_string : constr -> string
(** ["[0, 10) \ {3} or NULL"]-style rendering, for witnesses. *)
