(* A deliberately naive interpreter of a spreadsheet's query state —
   the test oracle the engine's one evaluator (Plan.execute, reached
   through Materialize, the semantic cache and Incremental) is
   checked against — and of single-block SQL, the oracle of the SQL
   executor. It has no fusion, no columnar path, no cache and no hash
   tables: rows are lists, groups are found by scanning, aggregates
   fold lists, and every step is one definition of the paper (or of
   SQL) applied in the order Theorem 2 (or SQL) prescribes. *)

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

let err fmt = Printf.ksprintf (fun s -> raise (Expr_eval.Eval_error s)) fmt

(* An aggregate over the values of one group, one per row: the list
   fold the engine's accumulators must reproduce bit for bit. *)
let apply_agg (g : Expr.agg_fun) (values : Value.t list) : Value.t =
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  match g with
  | Expr.Count_star -> Value.Int (List.length values)
  | Expr.Count -> Value.Int (List.length non_null)
  | Expr.Count_distinct ->
      let distinct =
        List.fold_left
          (fun acc v ->
            if List.exists (fun x -> Value.equal x v) acc then acc
            else v :: acc)
          [] non_null
      in
      Value.Int (List.length distinct)
  | Expr.Sum ->
      if non_null = [] then Value.Null
      else
        let all_int =
          List.for_all (function Value.Int _ -> true | _ -> false) non_null
        in
        if all_int then
          Value.Int
            (List.fold_left
               (fun acc v ->
                 match v with Value.Int i -> acc + i | _ -> acc)
               0 non_null)
        else
          let total =
            List.fold_left
              (fun acc v ->
                match Value.to_float v with
                | Some f -> acc +. f
                | None ->
                    err "sum over non-numeric value %s" (Value.to_string v))
              0. non_null
          in
          Value.Float total
  | Expr.Avg ->
      if non_null = [] then Value.Null
      else
        let total =
          List.fold_left
            (fun acc v ->
              match Value.to_float v with
              | Some f -> acc +. f
              | None ->
                  err "avg over non-numeric value %s" (Value.to_string v))
            0. non_null
        in
        Value.Float (total /. float_of_int (List.length non_null))
  | Expr.Min ->
      List.fold_left
        (fun acc v ->
          match acc with
          | Value.Null -> v
          | _ -> if Value.compare v acc < 0 then v else acc)
        Value.Null non_null
  | Expr.Max ->
      List.fold_left
        (fun acc v ->
          match acc with
          | Value.Null -> v
          | _ -> if Value.compare v acc > 0 then v else acc)
        Value.Null non_null

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
        apply_agg fn
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

(* ---------- single-block SQL ---------- *)

let rec compare_keys dirs a b =
  match (dirs, a, b) with
  | dir :: dirs, x :: a, y :: b ->
      let c = Value.compare x y in
      let c = match dir with `Asc -> c | `Desc -> -c in
      if c <> 0 then c else compare_keys dirs a b
  | _ -> 0

(* The aggregate calls of an expression, in any order. *)
let rec aggs_of (e : Expr.t) =
  match e with
  | Expr.Agg (fn, arg) -> [ (fn, arg) ]
  | Expr.Const _ | Expr.Col _ -> []
  | Expr.Neg a | Expr.Not a | Expr.Is_null a | Expr.Like (a, _)
  | Expr.In_list (a, _) | Expr.Fn (_, a) ->
      aggs_of a
  | Expr.Arith (_, a, b) | Expr.Concat (a, b) | Expr.Cmp (_, a, b)
  | Expr.And (a, b) | Expr.Or (a, b) ->
      aggs_of a @ aggs_of b
  | Expr.Between (a, b, c) -> aggs_of a @ aggs_of b @ aggs_of c
  | Expr.Case (branches, default) ->
      List.concat_map (fun (c, e) -> aggs_of c @ aggs_of e) branches
      @ Option.fold ~none:[] ~some:aggs_of default

(* FROM product -> WHERE -> GROUP BY partition -> every aggregate of
   SELECT, HAVING and ORDER BY over every group -> HAVING -> SELECT
   (one row per group when grouped) -> DISTINCT -> ORDER BY, each
   over lists, every aggregate a fresh list fold over its group. *)
let sql_run catalog (q : Sheet_sql.Sql_ast.query) =
  let open Sheet_sql in
  match Sql_analyzer.analyze catalog q with
  | Error msg -> Error msg
  | Ok resolved -> (
      let q = resolved.Sql_analyzer.query in
      let cols = Schema.names resolved.Sql_analyzer.source_schema in
      let product acc (item : Sql_ast.from_item) =
        let rows =
          match Catalog.find catalog item.Sql_ast.rel with
          | Some rel -> Relation.rows rel
          | None -> invalid_arg ("Oracle: no relation " ^ item.Sql_ast.rel)
        in
        match acc with
        | None -> Some rows
        | Some left ->
            Some
              (List.concat_map
                 (fun a -> List.map (fun b -> Row.append a b) rows)
                 left)
      in
      let source =
        Option.value ~default:[]
          (List.fold_left product None q.Sql_ast.from)
      in
      let eval ?agg row e = Expr_eval.eval ~lookup:(lookup cols row) ?agg e in
      let outputs =
        List.map
          (fun (i : Sql_ast.select_item) -> i.Sql_ast.expr)
          q.Sql_ast.select
      in
      let keys = List.map (fun o -> o.Sql_ast.expr) q.Sql_ast.order_by in
      let aggs =
        List.concat_map aggs_of
          (outputs @ Option.to_list q.Sql_ast.having @ keys)
      in
      let dirs = List.map (fun o -> o.Sql_ast.dir) q.Sql_ast.order_by in
      match
        let rows =
          match q.Sql_ast.where with
          | None -> source
          | Some pred -> select cols pred source
        in
        if not resolved.Sql_analyzer.grouped then
          List.map
            (fun row -> (List.map (eval row) outputs, List.map (eval row) keys))
            rows
        else
          let groups =
            if q.Sql_ast.group_by = [] then [ ([], rows) ]
            else groups cols q.Sql_ast.group_by rows
          in
          List.filter_map
            (fun (_, members) ->
              let repr =
                match members with
                | r :: _ -> r
                | [] -> Row.of_list (List.map (fun _ -> Value.Null) cols)
              in
              let agg fn arg =
                apply_agg fn
                  (List.map
                     (fun r ->
                       match (fn, arg) with
                       | Expr.Count_star, _ | _, None -> Value.Null
                       | _, Some a -> eval r a)
                     members)
              in
              (* aggregates are computed before the expressions that
                 hold them: an error in one is an error even where
                 HAVING drops the group or a CASE branch skips it *)
              List.iter (fun (fn, arg) -> ignore (agg fn arg)) aggs;
              let keep =
                match q.Sql_ast.having with
                | None -> true
                | Some pred -> eval ~agg repr pred = Value.Bool true
              in
              if keep then
                Some
                  (List.map (eval ~agg repr) outputs,
                   List.map (eval ~agg repr) keys)
              else None)
            groups
      with
      | exception Expr_eval.Eval_error msg -> Error msg
      | pairs ->
          let pairs =
            if not q.Sql_ast.distinct then pairs
            else
              List.rev
                (List.fold_left
                   (fun kept (out, k) ->
                     if List.exists (fun (o, _) -> same_key o out) kept then
                       kept
                     else (out, k) :: kept)
                   [] pairs)
          in
          let pairs =
            List.stable_sort (fun (_, a) (_, b) -> compare_keys dirs a b) pairs
          in
          Ok
            (Relation.unsafe_make
               (Schema.of_list resolved.Sql_analyzer.output)
               (List.map (fun (out, _) -> Row.of_list out) pairs)))
