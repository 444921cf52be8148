(* A deliberately naive interpreter of a spreadsheet's query state —
   the test oracle the engine's one evaluator (Plan.execute, reached
   through Materialize, the semantic cache and Incremental) is
   checked against. It has no fusion, no columnar path, no cache and
   no hash tables: rows are lists, groups are found by scanning, and
   every step is one definition of the paper applied in the order
   Theorem 2 prescribes. *)

open Sheet_rel
open Sheet_core

let lookup cols row name =
  let rec go i = function
    | [] -> invalid_arg ("Oracle: no column " ^ name)
    | c :: rest -> if c = name then Row.get row i else go (i + 1) rest
  in
  go 0 cols

let key cols names row = List.map (lookup cols row) names
let same_key = List.equal Value.equal

(* Def. 5: a selection keeps the rows satisfying its predicate. *)
let select cols pred rows =
  List.filter
    (fun row -> Expr_eval.eval_pred ~lookup:(lookup cols row) pred)
    rows

(* Duplicate elimination on the given columns; the first occurrence
   survives. *)
let dedup cols names rows =
  let _, kept =
    List.fold_left
      (fun (seen, kept) row ->
        let k = key cols names row in
        if List.exists (same_key k) seen then (seen, kept)
        else (k :: seen, row :: kept))
      ([], []) rows
  in
  List.rev kept

(* The groups at a grouping basis: (key, member rows), first
   occurrence order. *)
let groups cols basis rows =
  List.fold_left
    (fun acc row ->
      let k = key cols basis row in
      if List.exists (fun (k', _) -> same_key k k') acc then
        List.map
          (fun (k', members) ->
            if same_key k k' then (k', row :: members) else (k', members))
          acc
      else (k, [ row ]) :: acc)
    [] rows
  |> List.rev_map (fun (k, members) -> (k, List.rev members))

(* Def. 12: a formula column, evaluated on each row. Def. 11: an
   aggregate column, the aggregate over the row's group at the
   column's level, repeated on every row of the group. *)
let compute (sheet : Spreadsheet.t) cols rows (c : Computed.t) =
  match c.Computed.spec with
  | Computed.Formula e ->
      List.map
        (fun row ->
          Row.append1 row (Expr_eval.eval ~lookup:(lookup cols row) e))
        rows
  | Computed.Aggregate { fn; arg; level } ->
      let basis =
        Grouping.cumulative_basis (Spreadsheet.grouping sheet) level
      in
      let value_of members =
        Expr_eval.apply_agg fn
          (List.map
             (fun row ->
               match arg with
               | Some e when fn <> Expr.Count_star ->
                   Expr_eval.eval ~lookup:(lookup cols row) e
               | _ -> Value.Null)
             members)
      in
      let values =
        List.map (fun (k, members) -> (k, value_of members))
          (groups cols basis rows)
      in
      List.map
        (fun row ->
          let k = key cols basis row in
          Row.append1 row
            (snd (List.find (fun (k', _) -> same_key k k') values)))
        rows

(* Theorem 2's precedence: a selection belongs to the stratum of the
   latest-defined computed column it references (0: base columns
   only). *)
let stratum (sheet : Spreadsheet.t) pred =
  let names =
    List.map (fun (c : Computed.t) -> c.Computed.name)
      sheet.Spreadsheet.state.Query_state.computed
  in
  List.fold_left
    (fun acc col ->
      let rec rank i = function
        | [] -> 0
        | n :: rest -> if n = col then i else rank (i + 1) rest
      in
      max acc (rank 1 names))
    0 (Expr.columns pred)

(* The recursive grouping's presentation order: a stable sort on the
   flat keys of Sec. II-A, ties in base order. *)
let present (sheet : Spreadsheet.t) cols rows =
  let keys = Grouping.sort_keys (Spreadsheet.grouping sheet) in
  let compare_rows a b =
    List.fold_left
      (fun c (col, dir) ->
        if c <> 0 then c
        else
          let c = Value.compare (lookup cols a col) (lookup cols b col) in
          match dir with Grouping.Asc -> c | Grouping.Desc -> -c)
      0 keys
  in
  List.stable_sort compare_rows rows

let unsorted (sheet : Spreadsheet.t) =
  let state = sheet.Spreadsheet.state in
  let at k cols rows =
    List.fold_left
      (fun rows (s : Query_state.selection) ->
        if stratum sheet s.Query_state.pred = k then
          select cols s.Query_state.pred rows
        else rows)
      rows state.Query_state.selections
  in
  let base_cols = Schema.names (Spreadsheet.base_schema sheet) in
  let rows = at 0 base_cols (Relation.rows sheet.Spreadsheet.base) in
  let rows =
    if state.Query_state.dedup then
      dedup base_cols
        (List.filter
           (fun n -> not (List.mem n state.Query_state.hidden))
           base_cols)
        rows
    else rows
  in
  let cols, rows, _ =
    List.fold_left
      (fun (cols, rows, k) (c : Computed.t) ->
        let rows = compute sheet cols rows c in
        let cols = cols @ [ c.Computed.name ] in
        (cols, at k cols rows, k + 1))
      (base_cols, rows, 1) state.Query_state.computed
  in
  (cols, rows)

let materialize (sheet : Spreadsheet.t) =
  let cols, rows = unsorted sheet in
  Relation.unsafe_make (Spreadsheet.full_schema sheet) (present sheet cols rows)

let group_count (sheet : Spreadsheet.t) ~level =
  let cols, rows = unsorted sheet in
  List.length
    (groups cols
       (Grouping.cumulative_basis (Spreadsheet.grouping sheet) level)
       rows)

let same_rows_in_order a b =
  Schema.names (Relation.schema a) = Schema.names (Relation.schema b)
  && List.equal Row.equal (Relation.rows a) (Relation.rows b)
