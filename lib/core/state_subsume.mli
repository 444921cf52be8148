(** Cross-state subsumption: when is query state [candidate] provably
    answerable from the materialization of query state [cached]?

    Both states must sit over the {e same} base relation (the caller
    checks that — {!Materialize} compares bases physically). Given
    that, [cached]'s full materialization can serve [candidate] when

    - the computed-column lists are equal (same definitions in the
      same order, so both fulls have the same schema and the same
      derived cells),
    - duplicate elimination agrees, and when it is on, the stratum-0
      selections and the hidden {e base} columns agree (they determine
      the dedup key and its surviving representatives),
    - every aggregate (and every formula embedding an aggregate) sees
      the same input rows: the grouping bases and the selections at
      strata below the deepest such column are equal, and
    - [candidate]'s selection conjunction {!Sheetsolve.subsumes}
      [cached]'s.

    Then [candidate]'s rows are exactly [cached]'s rows re-filtered by
    [candidate]'s selections, modulo sort order — grouping and
    ordering never change {e which} rows or cells exist, only their
    arrangement, so the server re-sorts.

    The check is total and exception-free; [Incomparable] is the
    liberal default and claims nothing. *)

open Sheet_rel

type outcome =
  | Equal  (** same selections too: serve by re-sorting alone *)
  | Subsumed of Sheetsolve.proof
      (** serve by re-filtering with [candidate]'s selections, then
          re-sorting *)
  | Incomparable of string  (** no claim; the string says what blocked *)

val check :
  type_of:(string -> Value.vtype option) ->
  budget:int ref ->
  candidate:Query_state.t ->
  cached:Query_state.t ->
  outcome
(** [type_of] should come from the (shared) full schema,
    e.g. [Schema.type_of (Spreadsheet.full_schema sheet)]. A call of
    {!Sheetsolve.subsumes} spends one unit of [budget]; once it is
    spent, a state the structural checks do not settle is
    [Incomparable "solver budget spent"]. *)

val selection_conj : Query_state.t -> Expr.t
(** The state's selections as one conjunction ([TRUE] when none) —
    the formula handed to {!Sheetsolve} and to the re-filter step. *)

val describe : outcome -> string
(** One line for flight-recorder labels and diagnostics. *)
