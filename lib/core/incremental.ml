open Sheet_rel
module Obs = Sheet_obs.Obs

(* The newest computed column of the child, when the operator just
   appended one. *)
let last_computed (child : Spreadsheet.t) =
  match List.rev child.Spreadsheet.state.Query_state.computed with
  | c :: _ -> c
  | [] -> invalid_arg "Incremental.last_computed"

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
         moves. A sort orders by its keys, then by root row id, so the
         parent's order is forgotten: with no keys it restores root
         order, as a replay leaves it *)
      over_parent (Plan.sorted child)
  | Op.Select pred ->
      (* safe only when the selection lands in the highest stratum:
         nothing recomputes after it *)
      if
        Query_state.selection_stratum state pred
        = List.length state.Query_state.computed
      then over_parent (fun scan -> Plan.Filter (pred, scan))
      else None
  | Op.Formula _ | Op.Aggregate _ ->
      (* a fresh computed column is appended after every existing
         stratum; the appended column cannot disturb the sort keys,
         and an aggregate folds each group in root order whatever the
         parent's order *)
      over_parent (Plan.extend child (last_computed child))
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
