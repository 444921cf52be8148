open Sheet_rel

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Comparison of sort-key vectors with per-key direction. *)
let compare_keys dirs a b =
  let rec go i =
    if i >= Array.length a then 0
    else
      let c = Value.compare a.(i) b.(i) in
      let c = match dirs.(i) with `Asc -> c | `Desc -> -c in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* A group of a grouped query: its first row, which every non-aggregated
   reference reads (the analyzer admits only GROUP BY columns there),
   and one accumulator per distinct aggregate of the query. *)
type group = { repr : Row.t; accs : Expr_eval.acc array }

(* The [Agg] resolver: the query's distinct aggregates are registered
   while its SELECT, HAVING and ORDER BY compile, newest first with
   their accumulator index, and each node reads its accumulator's
   result; equal nodes share one accumulator. *)
let register aggs fn arg =
  let same (fn', arg', _) = fn = fn' && Option.equal Expr.equal arg arg' in
  let k =
    match List.find_opt same !aggs with
    | Some (_, _, k) -> k
    | None ->
        let k = List.length !aggs in
        aggs := (fn, arg, k) :: !aggs;
        k
  in
  fun g -> Expr_eval.acc_result g.accs.(k)

let grouped_pairs ~column ~keep (q : Sql_ast.query) schema source select
    order =
  let aggs = ref [] in
  let on_group e =
    Expr_eval.compile_with
      ~column:(fun c -> Option.map (fun read g -> read g.repr) (column c))
      ~agg:(register aggs) e
  in
  let having = Option.map on_group q.Sql_ast.having in
  let select = Array.map on_group select in
  let order = Array.map on_group order in
  (* each aggregate's argument, compiled once (the analyzer gives
     every aggregate but COUNT star one) *)
  let fns, args =
    List.rev !aggs
    |> List.map (fun (fn, arg, _) ->
           match (fn, arg) with
           | Expr.Count_star, _ | _, None -> (fn, fun _ -> Value.Null)
           | _, Some a -> (fn, Expr_eval.compile_with ~column a))
    |> Array.of_list |> Array.split
  in
  let groups = Vec.create () in
  let new_group row =
    let g = { repr = row; accs = Array.map Expr_eval.acc_create fns } in
    Vec.push groups g;
    g
  in
  (* groups keep first-appearance order *)
  let group_of =
    match
      Array.of_list (List.map (Schema.index_exn schema) q.Sql_ast.group_by)
    with
    | [||] ->
        (* aggregates without GROUP BY: one group over everything, even
           no rows; nothing reads its row outside an aggregate *)
        let only = new_group (Array.make (Schema.arity schema) Value.Null) in
        fun _ -> only
    | ps ->
        let tbl = Row.Tbl.create 64 in
        fun row ->
          let k = Row.project_arr row ps in
          (match Row.Tbl.find tbl k with
          | g -> g
          | exception Not_found ->
              let g = new_group row in
              Row.Tbl.add tbl k g;
              g)
  in
  (* one pass: WHERE, then each survivor folds into its group's
     accumulators in input order *)
  Array.iter
    (fun row ->
      if keep row then begin
        let g = group_of row in
        for k = 0 to Array.length args - 1 do
          Expr_eval.acc_add g.accs.(k) (args.(k) row)
        done
      end)
    source;
  let out = Vec.create () in
  Array.iter
    (fun g ->
      let kept =
        match having with
        | None -> true
        | Some pred -> ( match pred g with Value.Bool b -> b | _ -> false)
      in
      if kept then
        Vec.push out
          (Array.map (fun f -> f g) select, Array.map (fun f -> f g) order))
    (Vec.to_array groups);
  Vec.to_array out

let plain_pairs ~column ~keep source select order =
  let select = Array.map (Expr_eval.compile_with ~column) select in
  let order = Array.map (Expr_eval.compile_with ~column) order in
  let out = Vec.create () in
  Array.iter
    (fun row ->
      if keep row then
        Vec.push out
          (Array.map (fun f -> f row) select, Array.map (fun f -> f row) order))
    source;
  Vec.to_array out

let c_executions =
  Sheet_obs.Obs.Metrics.counter Sheet_obs.Obs.k_sql_executions

let h_run = Sheet_obs.Obs.Histogram.histogram Sheet_obs.Obs.h_sql_run

let run catalog (q : Sql_ast.query) =
  Sheet_obs.Obs.Metrics.incr c_executions;
  Sheet_obs.Obs.with_span ~kind:"sql" "sql.run" @@ fun () ->
  let t0 = Sheet_obs.Obs.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Sheet_obs.Obs.Histogram.record h_run (Sheet_obs.Obs.now_ns () - t0))
  @@ fun () ->
  let* resolved = Sql_analyzer.analyze catalog q in
  let q = resolved.Sql_analyzer.query in
  (* FROM: product of the named relations (renaming handled by
     Rel_algebra.product, mirroring the analyzer). *)
  let* source =
    List.fold_left
      (fun acc (item : Sql_ast.from_item) ->
        let* acc = acc in
        match (Catalog.find catalog item.Sql_ast.rel, acc) with
        | None, _ -> errf "unknown relation %S" item.Sql_ast.rel
        | Some rel, None -> Ok (Some rel)
        | Some rel, Some left -> Ok (Some (Rel_algebra.product left rel)))
      (Ok None) q.Sql_ast.from
  in
  let* source =
    match source with None -> errf "empty FROM" | Some s -> Ok s
  in
  let schema = Relation.schema source in
  assert (Schema.equal schema resolved.Sql_analyzer.source_schema);
  (* every expression compiles once, to positional reads of a row *)
  let column c =
    Option.map (fun (i, _) row -> Row.get row i) (Schema.find schema c)
  in
  let keep =
    match q.Sql_ast.where with
    | None -> fun _ -> true
    | Some pred -> Expr_eval.compile_pred ~column pred
  in
  let select =
    Array.of_list
      (List.map
         (fun (i : Sql_ast.select_item) -> i.Sql_ast.expr)
         q.Sql_ast.select)
  in
  let order_by = Array.of_list q.Sql_ast.order_by in
  let order = Array.map (fun o -> o.Sql_ast.expr) order_by in
  let dirs = Array.map (fun o -> o.Sql_ast.dir) order_by in
  match
    (* (output row, sort key) pairs, one per row or per kept group *)
    let rows = Relation.to_array source in
    if resolved.Sql_analyzer.grouped then
      grouped_pairs ~column ~keep q schema rows select order
    else plain_pairs ~column ~keep rows select order
  with
  | exception Expr_eval.Eval_error msg -> Error msg
  | pairs ->
      (* DISTINCT (on output rows), then ORDER BY. *)
      let pairs =
        if not q.Sql_ast.distinct then pairs
        else begin
          let seen = Row.Tbl.create (max 16 (Array.length pairs)) in
          Vec.filter_array
            (fun (out, _) ->
              if Row.Tbl.mem seen out then false
              else begin
                Row.Tbl.add seen out ();
                true
              end)
            pairs
        end
      in
      let pairs =
        if dirs = [||] then pairs
        else
          Vec.stable_sorted
            (fun (_, ka) (_, kb) -> compare_keys dirs ka kb)
            pairs
      in
      Ok
        (Relation.unsafe_of_array
           (Schema.of_list resolved.Sql_analyzer.output)
           (Array.map fst pairs))

let run_string catalog text =
  let* q = Sql_parser.parse text in
  run catalog q

let run_exn catalog text =
  match run_string catalog text with
  | Ok rel -> rel
  | Error msg -> invalid_arg ("Sql_executor.run_exn: " ^ msg)
