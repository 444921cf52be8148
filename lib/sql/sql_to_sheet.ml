open Sheet_rel
open Sheet_core

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

type plan = {
  first_relation : string;
  ops : Op.t list;
  output : string list;
}

(* Internal: plan plus what `execute` needs to present the result. *)
type full_plan = {
  plan : plan;
  sql_output : (string * Value.vtype) list;
  collapse : bool;  (** grouped or DISTINCT: collapse per-group rows *)
}

(* Rewrite aggregate calls to references to their aggregation columns. *)
let rec rewrite_aggs mapping (e : Expr.t) : Expr.t =
  let rw = rewrite_aggs mapping in
  match e with
  | Expr.Agg (fn, arg) -> (
      match
        List.find_opt
          (fun ((f, a), _) -> f = fn && Option.equal Expr.equal a arg)
          mapping
      with
      | Some (_, col) -> Expr.Col col
      | None -> e (* unreachable: every aggregate was collected *))
  | Expr.Const _ | Expr.Col _ -> e
  | Expr.Neg a -> Expr.Neg (rw a)
  | Expr.Arith (op, a, b) -> Expr.Arith (op, rw a, rw b)
  | Expr.Concat (a, b) -> Expr.Concat (rw a, rw b)
  | Expr.Cmp (op, a, b) -> Expr.Cmp (op, rw a, rw b)
  | Expr.And (a, b) -> Expr.And (rw a, rw b)
  | Expr.Or (a, b) -> Expr.Or (rw a, rw b)
  | Expr.Not a -> Expr.Not (rw a)
  | Expr.Is_null a -> Expr.Is_null (rw a)
  | Expr.Fn (g, a) -> Expr.Fn (g, rw a)
  | Expr.Like (a, p) -> Expr.Like (rw a, p)
  | Expr.In_list (a, vs) -> Expr.In_list (rw a, vs)
  | Expr.Between (a, b, c) -> Expr.Between (rw a, rw b, rw c)
  | Expr.Case (branches, default) ->
      Expr.Case
        (List.map (fun (c, e) -> (rw c, rw e)) branches,
         Option.map rw default)

(* Collect the distinct aggregate calls of an expression. *)
let rec collect_aggs (e : Expr.t) =
  match e with
  | Expr.Agg (fn, arg) -> [ (fn, arg) ]
  | Expr.Const _ | Expr.Col _ -> []
  | Expr.Neg a | Expr.Not a | Expr.Is_null a | Expr.Like (a, _)
  | Expr.In_list (a, _) | Expr.Fn (_, a) ->
      collect_aggs a
  | Expr.Arith (_, a, b) | Expr.Concat (a, b) | Expr.Cmp (_, a, b)
  | Expr.And (a, b) | Expr.Or (a, b) ->
      collect_aggs a @ collect_aggs b
  | Expr.Between (a, b, c) ->
      collect_aggs a @ collect_aggs b @ collect_aggs c
  | Expr.Case (branches, default) ->
      List.concat_map
        (fun (c, e) -> collect_aggs c @ collect_aggs e)
        branches
      @ (match default with Some d -> collect_aggs d | None -> [])

let dedup_aggs aggs =
  List.fold_left
    (fun acc (fn, arg) ->
      if
        List.exists
          (fun (f, a) -> f = fn && Option.equal Expr.equal a arg)
          acc
      then acc
      else acc @ [ (fn, arg) ])
    [] aggs

let translate_full catalog (q : Sql_ast.query) =
  let* resolved = Sql_analyzer.analyze catalog q in
  let q = resolved.Sql_analyzer.query in
  let grouped = resolved.Sql_analyzer.grouped in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let fresh_counter = ref 0 in
  let fresh base =
    incr fresh_counter;
    Printf.sprintf "%s_%d" base !fresh_counter
  in
  (* Step 1: product of the FROM relations, one at a time. *)
  let* first_relation =
    match q.Sql_ast.from with
    | [] -> errf "empty FROM"
    | first :: rest ->
        List.iter (fun (f : Sql_ast.from_item) ->
            emit (Op.Product f.Sql_ast.rel)) rest;
        Ok first.Sql_ast.rel
  in
  (* Step 2: WHERE as a selection (join conditions included — the
     product is already formed, so distributing them is unnecessary). *)
  Option.iter (fun pred -> emit (Op.Select pred)) q.Sql_ast.where;
  (* Step 3: one grouping level per GROUP BY item, left to right. *)
  List.iter
    (fun col -> emit (Op.Group { basis = [ col ]; dir = Grouping.Asc }))
    q.Sql_ast.group_by;
  let finest = 1 + List.length q.Sql_ast.group_by in
  (* Step 4: aggregations (SELECT, HAVING and ORDER BY may all carry
     them), each as an aggregation column at the finest level.
     Aggregates over expressions need the expression as a formula
     column first. *)
  let all_aggs =
    dedup_aggs
      (List.concat_map
         (fun (i : Sql_ast.select_item) -> collect_aggs i.Sql_ast.expr)
         q.Sql_ast.select
      @ (match q.Sql_ast.having with
        | Some e -> collect_aggs e
        | None -> [])
      @ List.concat_map
          (fun (o : Sql_ast.order_item) -> collect_aggs o.Sql_ast.expr)
          q.Sql_ast.order_by)
  in
  let agg_mapping =
    List.map
      (fun (fn, arg) ->
        let col =
          match arg with
          | None -> None
          | Some (Expr.Col c) -> Some c
          | Some e ->
              let fname = fresh "AggArg" in
              emit (Op.Formula { name = Some fname; expr = e });
              Some fname
        in
        let as_name =
          fresh (Engine.aggregate_default_name fn col)
        in
        emit (Op.Aggregate { fn; col; level = finest; as_name = Some as_name });
        ((fn, arg), as_name))
      all_aggs
  in
  (* Step 5: HAVING as a selection on the aggregation columns. *)
  Option.iter
    (fun e -> emit (Op.Select (rewrite_aggs agg_mapping e)))
    q.Sql_ast.having;
  (* Output expressions: plain columns pass through; aggregate calls
     use their aggregation column; anything else becomes a formula. *)
  let output_col_of_expr e =
    match rewrite_aggs agg_mapping e with
    | Expr.Col c -> c
    | rewritten ->
        let fname = fresh "Out" in
        emit (Op.Formula { name = Some fname; expr = rewritten });
        fname
  in
  let output =
    List.map
      (fun (i : Sql_ast.select_item) -> output_col_of_expr i.Sql_ast.expr)
      q.Sql_ast.select
  in
  (* Step 6: ORDER BY. Grouping columns order their group level;
     anything else orders inside the finest groups. *)
  List.iteri
    (fun _ (o : Sql_ast.order_item) ->
      let dir =
        match o.Sql_ast.dir with `Asc -> Grouping.Asc | `Desc -> Grouping.Desc
      in
      let col = output_col_of_expr o.Sql_ast.expr in
      let is_agg_col =
        List.exists (fun (_, name) -> name = col) agg_mapping
      in
      if is_agg_col && finest >= 2 then
        (* extension: SQL's ORDER BY <aggregate> orders the result
           rows, i.e. the groups — expressible with the group
           order-by-value override, which restores even presentation
           order fidelity *)
        emit (Op.Order_groups { attr = col; dir })
      else
        let level =
          let rec position i = function
            | [] -> finest
            | g :: rest -> if g = col then i else position (i + 1) rest
          in
          position 1 q.Sql_ast.group_by
        in
        emit (Op.Order { attr = col; dir; level }))
    q.Sql_ast.order_by;
  (* Step 7: project out every column that is neither an output column
     nor (to keep groups distinguishable for presentation) a grouping
     column. The column set at this point is the base product schema
     plus all formula/aggregate columns created above. *)
  let created_cols =
    List.filter_map
      (fun op ->
        match op with
        | Op.Formula { name = Some n; _ } -> Some n
        | Op.Aggregate { as_name = Some n; _ } -> Some n
        | _ -> None)
      (List.rev !ops)
  in
  let all_cols =
    Schema.names resolved.Sql_analyzer.source_schema @ created_cols
  in
  let keep = output @ q.Sql_ast.group_by in
  List.iter
    (fun col -> if not (List.mem col keep) then emit (Op.Project col))
    all_cols;
  Ok
    { plan = { first_relation; ops = List.rev !ops; output };
      sql_output = resolved.Sql_analyzer.output;
      collapse = grouped || q.Sql_ast.distinct }

let c_translations =
  Sheet_obs.Obs.Metrics.counter Sheet_obs.Obs.k_sql_translations

let translate catalog q =
  Sheet_obs.Obs.Metrics.incr c_translations;
  let* fp = translate_full catalog q in
  Sheet_obs.Obs.Profile.event ~kind:"sql-translation"
    (Printf.sprintf "%s, %d ops" fp.plan.first_relation
       (List.length fp.plan.ops));
  Ok fp.plan

let fresh_session catalog plan =
  match Catalog.find catalog plan.first_relation with
  | None -> errf "unknown relation %S" plan.first_relation
  | Some rel ->
      let session = Session.create ~name:plan.first_relation rel in
      (* make every catalog relation available as a stored sheet *)
      List.iter
        (fun name ->
          Store.save (Session.store session) ~name
            (Spreadsheet.of_relation ~name (Catalog.find_exn catalog name)))
        (Catalog.names catalog);
      Ok session

let session_of_plan catalog plan =
  let* session = fresh_session catalog plan in
  List.fold_left
    (fun acc op ->
      let* session = acc in
      match Session.apply session op with
      | Ok session -> Ok session
      | Error e ->
          errf "applying %s: %s" (Op.describe op) (Errors.to_string e))
    (Ok session) plan.ops

let execute catalog q =
  let* fp = translate_full catalog q in
  let* session = session_of_plan catalog fp.plan in
  let rel = Materialize.visible (Session.current session) in
  (* Presentation collapse: grouped sheets repeat group values on every
     row of the group; displaying one row per group is the spreadsheet
     equivalent of SQL's one-tuple-per-group output. The surviving
     grouping columns keep distinct groups apart even when they are
     not part of the SQL output. *)
  let rel = if fp.collapse then Rel_algebra.distinct rel else rel in
  (* Project to the SQL output columns (positionally) and rename to
     the SQL output names. Duplicates in the output list are allowed,
     so build the row projection manually. *)
  let schema = Relation.schema rel in
  let positions =
    Array.of_list
      (List.map (fun name -> Schema.index_exn schema name) fp.plan.output)
  in
  let out_schema = Schema.of_list fp.sql_output in
  Ok
    (Relation.unsafe_of_array out_schema
       (Array.map
          (fun row -> Row.project_arr row positions)
          (Relation.to_array rel)))
