open Sheet_rel
module Obs = Sheet_obs.Obs

(* The newest computed column of the child, when the operator just
   appended one. *)
let last_computed (child : Spreadsheet.t) =
  match List.rev child.Spreadsheet.state.Query_state.computed with
  | c :: _ -> c
  | [] -> invalid_arg "Incremental.last_computed"

(* Whether the aggregate [c], appended to [parent], can fold to
   another value over the parent's rows in their presented order than
   in base order, where a full replay folds them (it aggregates before
   it sorts). Only a float sum (AVG always sums in floats) and the
   first of equal extremes that are not identical (0. and -0.) depend
   on the order, and only on the order within a group: rows of one
   group tie on every sort key that is a basis column, and the stable
   sort left ties in base order. *)
let fold_order_matters ~(parent : Spreadsheet.t) ~(child : Spreadsheet.t)
    (c : Computed.t) =
  match c.Computed.spec with
  | Computed.Formula _ -> false
  | Computed.Aggregate { fn; arg; level } -> (
      let basis =
        Grouping.cumulative_basis (Spreadsheet.grouping child) level
      in
      let arg_ty =
        match
          Option.map (Expr_check.check (Spreadsheet.full_schema parent)) arg
        with
        | Some (Ok ty) -> ty
        | None | Some (Error _) -> None
      in
      (not
         (List.for_all
            (fun (key, _) -> List.mem key basis)
            (Grouping.sort_keys (Spreadsheet.grouping parent))))
      &&
      match (fn, arg_ty) with
      | (Expr.Count_star | Expr.Count | Expr.Count_distinct), _ -> false
      | Expr.Sum, Some Value.TInt -> false
      | ( (Expr.Min | Expr.Max),
          Some (Value.TInt | Value.TDate | Value.TString | Value.TBool) ) ->
          false
      | _ -> true)

let ascending a =
  let rec go i = i >= Array.length a || (a.(i - 1) < a.(i) && go (i + 1)) in
  go 1

(* The vector of [b], a batch over the rows of [base], in the order a
   full replay scans them in — physically [b]'s own when it is in that
   order already — or [None] when [b] does not select from [base]'s
   rows. *)
let base_order ~base (b : Relation.batch) =
  let root = b.Relation.base and sel = b.Relation.sel in
  (* the vector a replay scans [root]'s rows in, [None] for id order *)
  let scan =
    if base == root then Some None
    else
      let s = Relation.batch base in
      if s.Relation.base != root then None
      else if ascending s.Relation.sel then Some None
      else Some (Some s.Relation.sel)
  in
  match scan with
  | None -> None
  | Some None when ascending sel -> Some sel
  | Some scan ->
      let picked = Bytes.make (Relation.cardinality root) '\000' in
      Array.iter (fun id -> Bytes.set picked id '\001') sel;
      let out = Array.make (Array.length sel) 0 and k = ref 0 in
      let visit id =
        if Bytes.get picked id = '\001' then begin
          out.(!k) <- id;
          incr k
        end
      in
      (match scan with
      | None ->
          for id = 0 to Bytes.length picked - 1 do
            visit id
          done
      | Some scan -> Array.iter visit scan);
      if !k = Array.length sel then Some out else None

(* [rel] with its vector permuted to [sel]. A grouping that numbers
   the old vector numbers [sel] too (group ids are by base row id), so
   it moves along and a later aggregate over [sel] still shares it. *)
let permute rel sel =
  let b = Relation.batch rel in
  let moved = ref [] in
  let move (g : Relation.grouping) =
    if g.Relation.over != b.Relation.sel then g
    else
      match List.assq_opt g !moved with
      | Some g' -> g'
      | None ->
          let g' = { g with Relation.over = sel } in
          moved := (g, g') :: !moved;
          g'
  in
  let cols =
    Array.map
      (function
        | Relation.Broadcast { grouping; values } ->
            Relation.Broadcast { grouping = move grouping; values }
        | col -> col)
      b.Relation.cols
  in
  Relation.of_batch (Relation.schema rel) { b with Relation.sel; cols }

(* Each derivation is a short plan over a [Scan] of the parent's
   cached materialization, run by the one executor, which continues
   from the parent's batch; its profile notes land in the child's
   region (same uid). *)
let derive ~(parent : Spreadsheet.t) ~(op : Op.t) ~(child : Spreadsheet.t) =
  let over_parent plan_of =
    Some
      (Plan.execute ~uid:child.Spreadsheet.uid
         (plan_of (Plan.Scan (Materialize.full_cached parent))))
  in
  let state = child.Spreadsheet.state in
  match op with
  | Op.Project _ | Op.Unproject _ ->
      (* presentational — unless DE keys off the visible column set *)
      if state.Query_state.dedup then None
      else Some (Materialize.full_cached parent)
  | Op.Group _ | Op.Regroup _ | Op.Ungroup | Op.Order _
  | Op.Order_groups _ ->
      (* content is unchanged (the engine refused anything that would
         invalidate computed values); only the presentation order
         moves. A stable re-sort of the parent's rows leaves ties in
         the parent's order, which is base order only among rows
         equal on every parent sort key — so it reproduces a full
         replay exactly when each parent key column is a child key
         column; otherwise the order would depend on the history *)
      let key_cols sheet =
        List.map fst (Grouping.sort_keys (Spreadsheet.grouping sheet))
      in
      if
        List.for_all
          (fun col -> List.mem col (key_cols child))
          (key_cols parent)
      then over_parent (Plan.sorted child)
      else None
  | Op.Select pred ->
      (* safe only when the selection lands in the highest stratum:
         nothing recomputes after it *)
      if
        Query_state.selection_stratum state pred
        = List.length state.Query_state.computed
      then over_parent (fun scan -> Plan.Filter (pred, scan))
      else None
  | Op.Formula _ ->
      (* a fresh computed column is appended after every existing
         stratum; the appended column cannot disturb the sort keys *)
      over_parent (Plan.extend child (last_computed child))
  | Op.Aggregate _ -> (
      (* likewise, but where the aggregate depends on the order its
         fold visits the rows in, it must visit them as a full replay
         does, in base order before the sort: it runs over the
         parent's rows put back in base order, and its result goes
         back to the parent's order *)
      let c = last_computed child in
      let parent_rel = Materialize.full_cached parent in
      let extend scan =
        Plan.execute ~uid:child.Spreadsheet.uid
          (Plan.extend child c (Plan.Scan scan))
      in
      if not (fold_order_matters ~parent ~child c) then
        Some (extend parent_rel)
      else
        let b = Relation.batch parent_rel in
        match base_order ~base:child.Spreadsheet.base b with
        | None -> None
        | Some sel when sel == b.Relation.sel -> Some (extend parent_rel)
        | Some sel ->
            Some (permute (extend (permute parent_rel sel)) b.Relation.sel))
  | Op.Dedup ->
      (* equal visible rows are equal full rows only when nothing is
         hidden and no computed column could differ; the parent's rows
         then carry exactly the base's columns *)
      if
        state.Query_state.hidden = []
        && state.Query_state.computed = []
      then
        let key = Schema.names (Relation.schema child.Spreadsheet.base) in
        over_parent (fun scan -> Plan.Distinct_on (key, scan))
      else None
  | Op.Rename _ | Op.Product _ | Op.Union _ | Op.Diff _ | Op.Join _ ->
      None

let h_derive = Obs.Histogram.histogram Obs.h_incremental_derive

let materialize_after ~parent ~op ~child =
  (* One profile region per derived child; [derive] reaching the
     parent through [Materialize.full_cached] opens (and commits) its
     own region for the parent's uid, while the derivation plan, the
     fallback [Materialize.full child] (its strategy, "full-replay")
     and the seed collapse into this one. *)
  let uid = child.Spreadsheet.uid in
  Obs.Profile.region ~kind:"incremental" ~uid ~rows_out:Relation.cardinality
  @@ fun () ->
  let t0 = Obs.now_ns () in
  let rel =
    match derive ~parent ~op ~child with
    | Some rel ->
        Obs.Histogram.record h_derive (Obs.now_ns () - t0);
        Obs.Profile.note_strategy "incremental";
        rel
    | None -> Materialize.full child
  in
  Materialize.seed_cache child rel;
  rel
