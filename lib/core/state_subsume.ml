open Sheet_rel

type outcome =
  | Equal
  | Subsumed of Sheetsolve.proof
  | Incomparable of string

(* ---------- structural equalities (no polymorphic compare on
   expression-bearing types) ---------- *)

let spec_equal (a : Computed.spec) (b : Computed.spec) =
  match (a, b) with
  | Computed.Formula e1, Computed.Formula e2 -> Expr.equal e1 e2
  | ( Computed.Aggregate { fn = f1; arg = a1; level = l1 },
      Computed.Aggregate { fn = f2; arg = a2; level = l2 } ) ->
      f1 = f2 && l1 = l2 && Option.equal Expr.equal a1 a2
  | _ -> false

let computed_equal (a : Computed.t) (b : Computed.t) =
  String.equal a.name b.name && a.ty = b.ty && spec_equal a.spec b.spec

let rec multiset_sub eq xs ys =
  match xs with
  | [] -> true
  | x :: rest -> (
      let rec remove_one = function
        | [] -> None
        | y :: ys' ->
            if eq x y then Some ys'
            else Option.map (fun r -> y :: r) (remove_one ys')
      in
      match remove_one ys with
      | None -> false
      | Some ys' -> multiset_sub eq rest ys')

let multiset_equal eq xs ys =
  List.length xs = List.length ys && multiset_sub eq xs ys

let string_set xs = List.sort_uniq String.compare xs

(* ---------- state ingredients ---------- *)

let selection_preds (s : Query_state.t) =
  List.map (fun sel -> sel.Query_state.pred) s.selections

let selection_conj (s : Query_state.t) =
  match selection_preds s with
  | [] -> Expr.Const (Value.Bool true)
  | p :: ps -> List.fold_left (fun acc q -> Expr.And (acc, q)) p ps

let preds_below_stratum (s : Query_state.t) stratum =
  List.filter
    (fun p -> Query_state.selection_stratum s p < stratum)
    (selection_preds s)

let stratum0_preds (s : Query_state.t) =
  List.filter
    (fun p -> Query_state.selection_stratum s p = 0)
    (selection_preds s)

(* Deepest computed column whose cells depend on which rows are
   present: aggregates, and formulas embedding an inline aggregate.
   Plain formulas are row-local — earlier selections cannot change a
   surviving row's formula cells. *)
let max_row_sensitive_rank (s : Query_state.t) =
  List.fold_left
    (fun (rank, acc) (c : Computed.t) ->
      let rank = rank + 1 in
      let sensitive =
        match c.spec with
        | Computed.Aggregate _ -> true
        | Computed.Formula e -> Expr.has_agg e
      in
      (rank, if sensitive then rank else acc))
    (0, 0) s.computed
  |> snd

let grouping_bases (g : Grouping.t) =
  List.map (fun (l : Grouping.level) -> string_set l.basis_add) g.levels

let hidden_base (s : Query_state.t) =
  let computed_names =
    List.map (fun (c : Computed.t) -> c.Computed.name) s.computed
  in
  string_set
    (List.filter (fun h -> not (List.mem h computed_names)) s.hidden)

(* ---------- the check ---------- *)

let check ~type_of ~budget ~(candidate : Query_state.t)
    ~(cached : Query_state.t) : outcome =
  if
    not
      (List.length candidate.computed = List.length cached.computed
      && List.for_all2 computed_equal candidate.computed cached.computed)
  then Incomparable "computed columns differ"
  else if candidate.dedup <> cached.dedup then
    Incomparable "duplicate elimination differs"
  else if
    candidate.dedup
    && not
         (multiset_equal Expr.equal (stratum0_preds candidate)
            (stratum0_preds cached)
         && hidden_base candidate = hidden_base cached)
  then Incomparable "dedup key or its input rows differ"
  else
    let agg_rank = max_row_sensitive_rank candidate in
    if
      agg_rank > 0
      && not
           (grouping_bases candidate.grouping = grouping_bases cached.grouping
           && multiset_equal Expr.equal
                (preds_below_stratum candidate agg_rank)
                (preds_below_stratum cached agg_rank))
    then Incomparable "aggregate input rows differ"
    else if
      multiset_equal Expr.equal (selection_preds candidate)
        (selection_preds cached)
    then Equal
    else if !budget <= 0 then Incomparable "solver budget spent"
    else begin
      decr budget;
      match
        Sheetsolve.subsumes ~type_of (selection_conj candidate)
          (selection_conj cached)
      with
      | Some proof -> Subsumed proof
      | None -> Incomparable "selection not provably implied"
    end

let describe = function
  | Equal -> "equal selections"
  | Subsumed (Sheetsolve.By_cases steps) ->
      Printf.sprintf "subsumed (by cases, %d disjunct(s))" (List.length steps)
  | Subsumed (Sheetsolve.By_refutation cols) ->
      Printf.sprintf "subsumed (by refutation%s)"
        (match cols with
        | [] -> ""
        | cs -> " on " ^ String.concat ", " cs)
  | Incomparable why -> "incomparable: " ^ why
