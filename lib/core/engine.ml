open Sheet_rel
module Obs = Sheet_obs.Obs

let c_ops = Obs.Metrics.counter Obs.k_engine_ops
let c_errors = Obs.Metrics.counter Obs.k_engine_errors

let ( let* ) = Result.bind

let check_visible_pred sheet pred =
  match Expr_check.check_pred (Spreadsheet.visible_schema sheet) pred with
  | Ok () -> Ok ()
  | Error msg -> Errors.fail_type "%s" msg

let update_state sheet state =
  Spreadsheet.bump { sheet with Spreadsheet.state }

(* ---- unary data manipulation ---- *)

let select sheet pred =
  if Expr.has_agg pred then
    Errors.fail_invalid
      "selection predicates cannot contain aggregate calls; create an \
       aggregation column first, then select on it"
  else
    let* () = check_visible_pred sheet pred in
    let state, _sel = Query_state.add_selection sheet.Spreadsheet.state pred in
    Ok (update_state sheet state)

let project sheet col =
  if not (Spreadsheet.column_exists sheet col) then
    Error (Errors.Unknown_column col)
  else if Spreadsheet.is_hidden sheet col then
    Errors.fail_invalid "column %S is already hidden" col
  else
    let state = sheet.Spreadsheet.state in
    let state =
      { state with Query_state.hidden = state.Query_state.hidden @ [ col ] }
    in
    Ok (update_state sheet state)

let unproject sheet col =
  if not (Spreadsheet.is_hidden sheet col) then
    Errors.fail_invalid "column %S is not hidden" col
  else
    let state = sheet.Spreadsheet.state in
    let state =
      { state with
        Query_state.hidden =
          List.filter (fun c -> c <> col) state.Query_state.hidden }
    in
    Ok (update_state sheet state)

let dedup sheet =
  let state = sheet.Spreadsheet.state in
  if state.Query_state.dedup then Ok (Spreadsheet.bump sheet)
  else Ok (update_state sheet { state with Query_state.dedup = true })

(* ---- data organization ---- *)

let check_group_attrs sheet basis =
  let rec go = function
    | [] -> Ok ()
    | a :: rest ->
        if not (Spreadsheet.column_exists sheet a) then
          Error (Errors.Unknown_column a)
        else if Spreadsheet.is_hidden sheet a then
          Errors.fail_invalid "cannot group by hidden column %S" a
        else if Query_state.depends_on_aggregate sheet.Spreadsheet.state a
        then
          Errors.fail_grouping
            "cannot group by %S: it depends on an aggregate, which would \
             be circular"
            a
        else go rest
  in
  go basis

let group sheet ~basis ~dir =
  let* () = check_group_attrs sheet basis in
  let grouping = Spreadsheet.grouping sheet in
  let finest = Grouping.finest_basis grouping in
  let full_basis =
    finest @ List.filter (fun a -> not (List.mem a finest)) basis
  in
  match Grouping.add_level grouping ~basis:full_basis ~dir with
  | Error msg -> Errors.fail_grouping "%s" msg
  | Ok grouping ->
      Ok
        (update_state sheet
           (Query_state.set_grouping sheet.Spreadsheet.state grouping))

let guard_surviving_levels sheet ~surviving_levels ~what =
  match
    Query_state.aggregates_broken_by_grouping_change
      sheet.Spreadsheet.state ~surviving_levels
  with
  | [] -> Ok ()
  | broken ->
      Errors.fail_dependency
        "%s would destroy grouping levels that aggregate column(s) %s \
         depend on; project out those aggregates first"
        what
        (String.concat ", "
           (List.map (fun c -> c.Computed.name) broken))

let regroup sheet ~basis ~dir =
  let* () = guard_surviving_levels sheet ~surviving_levels:1
      ~what:"regrouping" in
  let* () = check_group_attrs sheet basis in
  match Grouping.add_level Grouping.empty ~basis ~dir with
  | Error msg -> Errors.fail_grouping "%s" msg
  | Ok grouping ->
      let grouping =
        { grouping with
          Grouping.leaf_order =
            List.filter
              (fun (a, _) -> not (List.mem a basis))
              (Spreadsheet.grouping sheet).Grouping.leaf_order }
      in
      Ok
        (update_state sheet
           (Query_state.set_grouping sheet.Spreadsheet.state grouping))

let ungroup sheet =
  let* () = guard_surviving_levels sheet ~surviving_levels:1
      ~what:"removing the grouping" in
  let grouping = Grouping.ungroup (Spreadsheet.grouping sheet) in
  Ok
    (update_state sheet
       (Query_state.set_grouping sheet.Spreadsheet.state grouping))

let order sheet ~attr ~dir ~level =
  if not (Spreadsheet.column_exists sheet attr) then
    Error (Errors.Unknown_column attr)
  else if Spreadsheet.is_hidden sheet attr then
    Errors.fail_invalid "cannot order by hidden column %S" attr
  else
    let grouping = Spreadsheet.grouping sheet in
    match Grouping.order grouping ~attr ~dir ~level with
    | Error msg -> Errors.fail_grouping "%s" msg
    | Ok outcome ->
        let* () =
          match outcome.Grouping.destroyed_from with
          | None -> Ok ()
          | Some l ->
              guard_surviving_levels sheet ~surviving_levels:l
                ~what:(Printf.sprintf "ordering by %S at level %d" attr level)
        in
        Ok
          (update_state sheet
             (Query_state.set_grouping sheet.Spreadsheet.state
                outcome.Grouping.spec))

(* Extension: order the groups at an aggregate's own level by the
   aggregate's value. The aggregate is constant within each group at
   its level, so the resulting flat sort keeps groups contiguous. *)
let order_groups sheet ~attr ~dir =
  match Query_state.find_computed sheet.Spreadsheet.state attr with
  | Some { Computed.spec = Computed.Aggregate { level; _ }; _ } ->
      if level < 2 then
        Errors.fail_grouping
          "%S aggregates the whole sheet; there are no sibling groups \
           to order"
          attr
      else (
        match
          Grouping.set_group_order (Spreadsheet.grouping sheet) ~level
            ~by:attr ~dir
        with
        | Ok grouping ->
            Ok
              (update_state sheet
                 (Query_state.set_grouping sheet.Spreadsheet.state grouping))
        | Error msg -> Errors.fail_grouping "%s" msg)
  | Some _ ->
      Errors.fail_invalid
        "%S is not an aggregation column; ordering groups by value \
         requires one"
        attr
  | None ->
      if Spreadsheet.column_exists sheet attr then
        Errors.fail_invalid
          "%S is not an aggregation column; ordering groups by value \
           requires one"
          attr
      else Error (Errors.Unknown_column attr)

(* ---- computed columns ---- *)

let capitalize_fn fn =
  String.capitalize_ascii (Expr.agg_fun_name fn)

let aggregate_default_name fn col =
  match (fn, col) with
  | Expr.Count_star, _ -> "Count"
  | _, Some c -> Printf.sprintf "%s_%s" (capitalize_fn fn) c
  | _, None -> capitalize_fn fn

let fresh_column_name sheet base =
  let schema = Spreadsheet.full_schema sheet in
  if not (Schema.mem schema base) then base
  else
    let rec go i =
      let cand = Printf.sprintf "%s_%d" base i in
      if Schema.mem schema cand then go (i + 1) else cand
    in
    go 2

let aggregate sheet ~fn ~col ~level ~as_name =
  let grouping = Spreadsheet.grouping sheet in
  let n = Grouping.num_levels grouping in
  if level < 1 || level > n then
    Errors.fail_grouping "aggregation group level %d out of range 1..%d"
      level n
  else
    let arg =
      match (fn, col) with
      | Expr.Count_star, _ -> Ok None
      | _, Some c ->
          if not (Spreadsheet.column_exists sheet c) then
            Error (Errors.Unknown_column c)
          else if Spreadsheet.is_hidden sheet c then
            Errors.fail_invalid "cannot aggregate hidden column %S" c
          else Ok (Some (Expr.Col c))
      | _, None ->
          Errors.fail_invalid "aggregate %s needs a column"
            (Expr.agg_fun_name fn)
    in
    let* arg = arg in
    let* ty =
      match
        Expr_check.check ~allow_agg:true
          (Spreadsheet.visible_schema sheet)
          (Expr.Agg (fn, arg))
      with
      | Ok (Some ty) -> Ok ty
      | Ok None -> Ok Value.TString
      | Error msg -> Errors.fail_type "%s" msg
    in
    let name =
      fresh_column_name sheet
        (match as_name with
        | Some n -> n
        | None -> aggregate_default_name fn col)
    in
    let computed =
      { Computed.name; ty; spec = Computed.Aggregate { fn; arg; level } }
    in
    Ok
      (update_state sheet
         (Query_state.add_computed sheet.Spreadsheet.state computed))

let formula sheet ~name ~expr =
  if Expr.has_agg expr then
    Errors.fail_invalid
      "formulas cannot contain aggregate calls; use Aggregation instead"
  else
    let* ty =
      match Expr_check.check (Spreadsheet.visible_schema sheet) expr with
      | Ok (Some ty) -> Ok ty
      | Ok None -> Ok Value.TString
      | Error msg -> Errors.fail_type "%s" msg
    in
    let base_name =
      match name with
      | Some n -> n
      | None ->
          Printf.sprintf "F%d"
            (1 + List.length sheet.Spreadsheet.state.Query_state.computed)
    in
    let col_name = fresh_column_name sheet base_name in
    let computed = { Computed.name = col_name; ty; spec = Computed.Formula expr } in
    Ok
      (update_state sheet
         (Query_state.add_computed sheet.Spreadsheet.state computed))

(* ---- housekeeping ---- *)

let rename sheet ~old_name ~new_name =
  if not (Spreadsheet.column_exists sheet old_name) then
    Error (Errors.Unknown_column old_name)
  else if old_name <> new_name && Spreadsheet.column_exists sheet new_name
  then Errors.fail_invalid "column %S already exists" new_name
  else
    let base =
      if Schema.mem (Spreadsheet.base_schema sheet) old_name then
        (* zero-copy: same row array under the renamed schema *)
        Relation.with_schema
          (Schema.rename (Spreadsheet.base_schema sheet) old_name new_name)
          sheet.Spreadsheet.base
      else sheet.Spreadsheet.base
    in
    let state =
      Query_state.rename_column sheet.Spreadsheet.state ~old_name ~new_name
    in
    Ok (Spreadsheet.bump { sheet with Spreadsheet.base; state })

(* ---- binary operators (points of non-commutativity) ---- *)

let resolve_stored store name =
  match store with
  | None -> Errors.fail_invalid "no spreadsheet store available"
  | Some st -> (
      match Store.open_ st name with
      | Some sheet -> Ok sheet
      | None -> Error (Errors.No_such_sheet name))

(* Rebase the current sheet on a freshly combined relation: accumulated
   selections and DE are baked into the data; computed definitions and
   grouping survive and recompute (Defs. 7-10). Hidden columns do not
   cross a point of non-commutativity: binary operators act on the
   sheet's column list C, from which projection removed them. *)
let rebase sheet ~base ~base_name =
  let state = sheet.Spreadsheet.state in
  let state =
    { Query_state.selections = [];
      hidden = [];
      computed = state.Query_state.computed;
      dedup = false;
      grouping = state.Query_state.grouping }
  in
  Spreadsheet.bump { sheet with Spreadsheet.base; base_name; state }

(* The relation a binary operator sees for one operand: the current
   rows (selections and DE applied) restricted to the visible base
   columns. Hidden columns that the grouping, ordering or a computed
   column still needs must be restored first — they would silently
   vanish in the result otherwise. *)
let binary_operand sheet =
  let hidden = Spreadsheet.hidden_columns sheet in
  let state = sheet.Spreadsheet.state in
  let grouping = Spreadsheet.grouping sheet in
  let needed_hidden =
    List.filter
      (fun h ->
        Grouping.is_group_attr grouping h
        || List.mem_assoc h grouping.Grouping.leaf_order
        || List.exists
             (fun c -> List.mem h (Computed.referenced_columns c))
             state.Query_state.computed)
      hidden
  in
  match needed_hidden with
  | _ :: _ ->
      Errors.fail_dependency
        "hidden column(s) %s are still used by the grouping, ordering or \
         a computed column; restore or release them before a binary \
         operator"
        (String.concat ", " needed_hidden)
  | [] ->
      let visible_base =
        List.filter
          (fun n -> not (List.mem n hidden))
          (Schema.names (Spreadsheet.base_schema sheet))
      in
      Ok
        (Rel_algebra.project visible_base
           (Materialize.current_base_rows sheet))

let product ?store sheet stored_name =
  let* stored = resolve_stored store stored_name in
  let* left = binary_operand sheet in
  let* right = binary_operand stored in
  Ok
    (rebase sheet ~base:(Rel_algebra.product left right)
       ~base_name:
         (Printf.sprintf "%s x %s" sheet.Spreadsheet.base_name stored_name))

let join ?store sheet stored_name cond =
  let* product_sheet = product ?store sheet stored_name in
  if Expr.has_agg cond then
    Errors.fail_invalid "join conditions cannot contain aggregate calls"
  else
    match
      Expr_check.check_pred
        (Spreadsheet.base_schema product_sheet)
        cond
    with
    | Error msg -> Errors.fail_type "join condition: %s" msg
    | Ok () ->
        let base =
          Rel_algebra.select cond product_sheet.Spreadsheet.base
        in
        Ok
          (Spreadsheet.bump
             { product_sheet with
               Spreadsheet.base;
               base_name =
                 Printf.sprintf "%s join %s" sheet.Spreadsheet.base_name
                   stored_name })

let set_op ?store sheet stored_name ~which =
  let* stored = resolve_stored store stored_name in
  let* left = binary_operand sheet in
  let* right = binary_operand stored in
  if
    not
      (Schema.union_compatible (Relation.schema left) (Relation.schema right))
  then
    Error
      (Errors.Incompatible_schemas
         (Printf.sprintf
            "%s requires both spreadsheets to have the same base columns"
            (match which with `Union -> "union" | `Diff -> "difference")))
  else
    let base =
      match which with
      | `Union -> Rel_algebra.union left right
      | `Diff -> Rel_algebra.diff left right
    in
    let opname = match which with `Union -> "+" | `Diff -> "-" in
    Ok
      (rebase sheet ~base
         ~base_name:
           (Printf.sprintf "%s %s %s" sheet.Spreadsheet.base_name opname
              stored_name))

(* ---- dispatch ---- *)

let dispatch ?store sheet (op : Op.t) =
  match op with
  | Op.Group { basis; dir } -> group sheet ~basis ~dir
  | Op.Regroup { basis; dir } -> regroup sheet ~basis ~dir
  | Op.Ungroup -> ungroup sheet
  | Op.Order { attr; dir; level } -> order sheet ~attr ~dir ~level
  | Op.Order_groups { attr; dir } -> order_groups sheet ~attr ~dir
  | Op.Select pred -> select sheet pred
  | Op.Project col -> project sheet col
  | Op.Unproject col -> unproject sheet col
  | Op.Product name -> product ?store sheet name
  | Op.Union name -> set_op ?store sheet name ~which:`Union
  | Op.Diff name -> set_op ?store sheet name ~which:`Diff
  | Op.Join { stored; cond } -> join ?store sheet stored cond
  | Op.Aggregate { fn; col; level; as_name } ->
      aggregate sheet ~fn ~col ~level ~as_name
  | Op.Formula { name; expr } -> formula sheet ~name ~expr
  | Op.Dedup -> dedup sheet
  | Op.Rename { old_name; new_name } -> rename sheet ~old_name ~new_name

let h_apply = Obs.Histogram.histogram Obs.h_engine_apply
let h_apply_kind = Obs.Histogram.family (Obs.h_engine_apply ^ ".")

let apply ?store sheet (op : Op.t) =
  Obs.Metrics.incr c_ops;
  Obs.with_span ~uid:sheet.Spreadsheet.uid ~kind:(Op.kind op) "engine.apply"
  @@ fun () ->
  let t0 = Obs.now_ns () in
  let result = dispatch ?store sheet op in
  let dt = Obs.now_ns () - t0 in
  Obs.Histogram.record h_apply dt;
  Obs.Histogram.record (h_apply_kind (Op.kind op)) dt;
  (match result with Error _ -> Obs.Metrics.incr c_errors | Ok _ -> ());
  result

(* ---- query modification ---- *)

let remove_selection sheet id =
  match Query_state.remove_selection sheet.Spreadsheet.state id with
  | Ok state -> Ok (update_state sheet state)
  | Error msg -> Errors.fail_invalid "%s" msg

let replace_selection sheet id pred =
  if Expr.has_agg pred then
    Errors.fail_invalid "selection predicates cannot contain aggregate calls"
  else
    (* The replacement predicate must be valid against the schema the
       original selection saw; checking against the visible schema
       keeps the direct-manipulation invariant. *)
    let* () = check_visible_pred sheet pred in
    match Query_state.replace_selection sheet.Spreadsheet.state id pred with
    | Ok state -> Ok (update_state sheet state)
    | Error msg -> Errors.fail_invalid "%s" msg

let remove_computed sheet name =
  match Query_state.find_computed sheet.Spreadsheet.state name with
  | None -> Error (Errors.Unknown_column name)
  | Some _ -> (
      match Query_state.column_dependents sheet.Spreadsheet.state name with
      | _ :: _ as deps ->
          Errors.fail_dependency
            "cannot remove %S: depended on by %s" name
            (String.concat "; " deps)
      | [] ->
          let grouping = Spreadsheet.grouping sheet in
          if Grouping.is_group_attr grouping name then
            Errors.fail_dependency
              "cannot remove %S: the grouping uses it" name
          else if List.mem name (Grouping.group_order_columns grouping) then
            Errors.fail_dependency
              "cannot remove %S: groups are ordered by it" name
          else if List.mem_assoc name grouping.Grouping.leaf_order then
            Errors.fail_dependency
              "cannot remove %S: the ordering uses it" name
          else
            let state =
              Query_state.remove_computed sheet.Spreadsheet.state name
            in
            let state =
              { state with
                Query_state.hidden =
                  List.filter (fun c -> c <> name) state.Query_state.hidden }
            in
            Ok (update_state sheet state))

let selections_on sheet col =
  Query_state.selections_on sheet.Spreadsheet.state col
