open Sheet_rel

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Comparison of sort-key vectors with per-key direction. *)
let compare_keys dirs a b =
  let rec go i =
    if i >= Array.length a then 0
    else
      let c = Value.compare a.(i) b.(i) in
      let c = match List.nth dirs i with `Asc -> c | `Desc -> -c in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let eval_plain index row e =
  Expr_eval.eval ~lookup:(fun name -> Row.get row (index name)) e

let eval_with_group index group_rows row e =
  let agg fn arg =
    let values =
      match (fn, arg) with
      | Expr.Count_star, _ -> List.map (fun _ -> Value.Null) group_rows
      | _, Some a -> List.map (fun r -> eval_plain index r a) group_rows
      | _, None -> failwith "aggregate without argument"
    in
    Expr_eval.apply_agg fn values
  in
  Expr_eval.eval ~lookup:(fun name -> Row.get row (index name)) ~agg e

let c_executions =
  Sheet_obs.Obs.Metrics.counter Sheet_obs.Obs.k_sql_executions

let h_run = Sheet_obs.Obs.Histogram.histogram Sheet_obs.Obs.h_sql_run

let run catalog (q : Sql_ast.query) =
  Sheet_obs.Obs.Metrics.incr c_executions;
  Sheet_obs.Obs.with_span ~kind:"sql" "sql.run" @@ fun () ->
  let t0 = Sheet_obs.Obs.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Sheet_obs.Obs.now_ns () - t0 in
      Sheet_obs.Obs.Histogram.record h_run dt;
      let labels = Sheet_obs.Obs.ambient_labels () in
      if not (Sheet_obs.Obs.Labels.is_empty labels) then
        Sheet_obs.Obs.Histogram.record
          (Sheet_obs.Obs.Histogram.histogram_labeled Sheet_obs.Obs.h_sql_run
             labels)
          dt)
  @@ fun () ->
  let* resolved = Sql_analyzer.analyze catalog q in
  let q = resolved.Sql_analyzer.query in
  (* FROM: product of the named relations (renaming handled by
     Rel_algebra.product, mirroring the analyzer). *)
  let* source =
    List.fold_left
      (fun acc (item : Sql_ast.from_item) ->
        let* acc = acc in
        let rel = Catalog.find_exn catalog item.Sql_ast.rel in
        match acc with
        | None -> Ok (Some rel)
        | Some left -> Ok (Some (Rel_algebra.product left rel)))
      (Ok None) q.Sql_ast.from
  in
  let* source =
    match source with None -> errf "empty FROM" | Some s -> Ok s
  in
  let schema = Relation.schema source in
  assert (Schema.equal schema resolved.Sql_analyzer.source_schema);
  let index = Schema.compile_index schema in
  (* WHERE *)
  let rows =
    match q.Sql_ast.where with
    | None -> Relation.to_array source
    | Some pred ->
        Vec.filter_array
          (fun row ->
            Expr_eval.eval_pred
              ~lookup:(fun name -> Row.get row (index name))
              pred)
          (Relation.to_array source)
  in
  let out_schema =
    Schema.of_list resolved.Sql_analyzer.output
  in
  let select_exprs =
    List.map (fun (i : Sql_ast.select_item) -> i.Sql_ast.expr) q.Sql_ast.select
  in
  let order_dirs = List.map (fun o -> o.Sql_ast.dir) q.Sql_ast.order_by in
  let order_exprs = List.map (fun o -> o.Sql_ast.expr) q.Sql_ast.order_by in
  (* Produce (output row, sort key) pairs. *)
  let pairs =
    if not resolved.Sql_analyzer.grouped then
      Array.map
        (fun row ->
          let out =
            Array.of_list (List.map (eval_plain index row) select_exprs)
          in
          let key =
            Array.of_list (List.map (eval_plain index row) order_exprs)
          in
          (out, key))
        rows
    else begin
      let groups =
        if q.Sql_ast.group_by = [] then
          (* aggregates without GROUP BY: one group over everything,
             even when empty *)
          [ (Row.of_list [], Array.to_list rows) ]
        else
          Rel_algebra.group_rows q.Sql_ast.group_by
            (Relation.unsafe_of_array schema rows)
      in
      let out = Vec.create () in
      List.iter
        (fun (_, group_rows) ->
          let repr =
            match group_rows with
            | r :: _ -> r
            | [] -> Row.of_list (List.map (fun _ -> Value.Null)
                                   (Schema.names schema))
          in
          let keep =
            match q.Sql_ast.having with
            | None -> true
            | Some pred -> (
                match eval_with_group index group_rows repr pred with
                | Value.Bool b -> b
                | Value.Null -> false
                | _ -> false)
          in
          if keep then
            let o =
              Array.of_list
                (List.map (eval_with_group index group_rows repr)
                   select_exprs)
            in
            let key =
              Array.of_list
                (List.map (eval_with_group index group_rows repr)
                   order_exprs)
            in
            Vec.push out (o, key))
        groups;
      Vec.to_array out
    end
  in
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
    if order_exprs = [] then pairs
    else
      Vec.stable_sorted
        (fun (_, ka) (_, kb) -> compare_keys order_dirs ka kb)
        pairs
  in
  Ok (Relation.unsafe_of_array out_schema (Array.map fst pairs))

let run_string catalog text =
  let* q = Sql_parser.parse text in
  run catalog q

let run_exn catalog text =
  match run_string catalog text with
  | Ok rel -> rel
  | Error msg -> invalid_arg ("Sql_executor.run_exn: " ^ msg)
