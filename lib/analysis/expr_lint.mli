(** Lints on a single predicate, powered by {!Sheet_rel.Sheetsolve}.

    Produced diagnostics:
    - [unknown-column] (error): references a column absent from
      [known] (when supplied);
    - [unsat-predicate] (error): provably satisfied by no row;
    - [tautology] (warning): provably satisfied by every row;
    - [duplicate-conjunct] (hint): a literally repeated conjunct;
    - [equivalent-conjunct] (hint): a conjunct provably equivalent to
      — not just implied by — an earlier one ([Price < 10000] vs
      [Price <= 9999] over an integer column), naming the witness
      column;
    - [redundant-conjunct] (hint): a conjunct implied by the others
      (e.g. [Price < 10 AND Price < 20]);
    - [contradictory-conjunct] (warning, alongside [unsat-predicate]):
      a disequality contradicting an equality on the same column
      ([x = 3 AND x <> 3]), naming the witness column. *)

open Sheet_rel

val lint_pred :
  ?type_of:(string -> Value.vtype option) ->
  ?known:string list ->
  loc:Diagnostic.location ->
  Expr.t ->
  Diagnostic.t list
(** [type_of] supplies column types for sharper verdicts; [known],
    when given, is the full list of legal column names. *)
