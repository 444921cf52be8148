open Sheet_rel
open Sheet_core

let err reason = Error (`Not_single_block reason)

(* Substitute computed-column references by their definitions:
   formula columns inline as their expression, aggregate columns as an
   [Agg] node. One pass, applied to fixpoint over the definition list
   (definitions may reference earlier computed columns). *)
let rec resolve_expr computed (e : Expr.t) : (Expr.t, string) result =
  let resolve = resolve_expr computed in
  let map2 ctor a b =
    match (resolve a, resolve b) with
    | Ok a, Ok b -> Ok (ctor a b)
    | (Error _ as x), _ | _, (Error _ as x) -> x
  in
  match e with
  | Expr.Const _ -> Ok e
  | Expr.Col c -> (
      match
        List.find_opt (fun x -> x.Computed.name = c) computed
      with
      | None -> Ok e
      | Some def -> (
          match def.Computed.spec with
          | Computed.Formula body -> resolve body
          | Computed.Aggregate { fn; arg; _ } -> (
              match arg with
              | None -> Ok (Expr.Agg (fn, None))
              | Some a -> (
                  match resolve a with
                  | Ok a ->
                      if Expr.has_agg a then
                        Error
                          (Printf.sprintf
                             "aggregate %s is nested over another \
                              aggregate"
                             c)
                      else Ok (Expr.Agg (fn, Some a))
                  | Error _ as x -> x))))
  | Expr.Neg a -> Result.map (fun a -> Expr.Neg a) (resolve a)
  | Expr.Not a -> Result.map (fun a -> Expr.Not a) (resolve a)
  | Expr.Is_null a -> Result.map (fun a -> Expr.Is_null a) (resolve a)
  | Expr.Like (a, p) -> Result.map (fun a -> Expr.Like (a, p)) (resolve a)
  | Expr.In_list (a, vs) ->
      Result.map (fun a -> Expr.In_list (a, vs)) (resolve a)
  | Expr.Fn (g, a) -> Result.map (fun a -> Expr.Fn (g, a)) (resolve a)
  | Expr.Arith (op, a, b) -> map2 (fun a b -> Expr.Arith (op, a, b)) a b
  | Expr.Concat (a, b) -> map2 (fun a b -> Expr.Concat (a, b)) a b
  | Expr.Cmp (op, a, b) -> map2 (fun a b -> Expr.Cmp (op, a, b)) a b
  | Expr.And (a, b) -> map2 (fun a b -> Expr.And (a, b)) a b
  | Expr.Or (a, b) -> map2 (fun a b -> Expr.Or (a, b)) a b
  | Expr.Between (a, b, c) -> (
      match (resolve a, resolve b, resolve c) with
      | Ok a, Ok b, Ok c -> Ok (Expr.Between (a, b, c))
      | (Error _ as x), _, _ | _, (Error _ as x), _ | _, _, (Error _ as x)
        ->
          x)
  | Expr.Case (branches, default) -> (
      let resolved =
        List.map
          (fun (c, v) -> (resolve c, resolve v))
          branches
      in
      let bad =
        List.find_map
          (fun (c, v) ->
            match (c, v) with
            | Error (m : string), _ | _, Error m -> Some m
            | _ -> None)
          resolved
      in
      match bad with
      | Some m -> Error m
      | None -> (
          let branches =
            List.map
              (fun (c, v) -> (Result.get_ok c, Result.get_ok v))
              resolved
          in
          match default with
          | None -> Ok (Expr.Case (branches, None))
          | Some d ->
              Result.map
                (fun d -> Expr.Case (branches, Some d))
                (resolve d)))
  | Expr.Agg (fn, arg) -> (
      match arg with
      | None -> Ok e
      | Some a ->
          Result.map (fun a -> Expr.Agg (fn, Some a)) (resolve a))

let c_inverse_translations =
  Sheet_obs.Obs.Metrics.counter Sheet_obs.Obs.k_sql_inverse_translations

let compile ~table (sheet : Spreadsheet.t) =
  Sheet_obs.Obs.Metrics.incr c_inverse_translations;
  let state = sheet.Spreadsheet.state in
  let computed = state.Query_state.computed in
  let grouping = Spreadsheet.grouping sheet in
  let group_by = Grouping.finest_basis grouping in
  let grouped =
    group_by <> []
    || List.exists Computed.is_aggregate computed
  in
  (* aggregates must sit at the finest level (SQL's only level) *)
  let bad_level =
    List.find_opt
      (fun c ->
        match c.Computed.spec with
        | Computed.Aggregate { level; _ } ->
            level <> Grouping.num_levels grouping
        | Computed.Formula _ -> false)
      computed
  in
  match bad_level with
  | Some c ->
      err
        (Printf.sprintf
           "aggregate %s is computed at an intermediate group level; \
            single-block SQL aggregates only at the finest level"
           c.Computed.name)
  | None -> (
      (* classify selections by stratum *)
      let rec bare_columns (e : Expr.t) =
        match e with
        | Expr.Agg _ | Expr.Const _ -> []
        | Expr.Col c -> [ c ]
        | Expr.Neg a | Expr.Not a | Expr.Is_null a | Expr.Like (a, _)
        | Expr.In_list (a, _) | Expr.Fn (_, a) ->
            bare_columns a
        | Expr.Arith (_, a, b) | Expr.Concat (a, b) | Expr.Cmp (_, a, b)
        | Expr.And (a, b) | Expr.Or (a, b) ->
            bare_columns a @ bare_columns b
        | Expr.Between (a, b, c) ->
            bare_columns a @ bare_columns b @ bare_columns c
        | Expr.Case (branches, default) ->
            List.concat_map
              (fun (c, v) -> bare_columns c @ bare_columns v)
              branches
            @ (match default with Some d -> bare_columns d | None -> [])
      in
      let where = ref [] and having = ref [] in
      let resolve_error = ref None in
      List.iter
        (fun (s : Query_state.selection) ->
          match resolve_expr computed s.Query_state.pred with
          | Error m -> resolve_error := Some m
          | Ok pred ->
              if Expr.has_agg pred then
                (* a HAVING predicate may compare aggregates with
                   grouping columns only; a bare non-grouped column
                   here is the paper's introduction example — it needs
                   a nested query and a self-join in SQL *)
                match
                  List.find_opt
                    (fun c -> not (List.mem c group_by))
                    (bare_columns pred)
                with
                | Some c ->
                    resolve_error :=
                      Some
                        (Printf.sprintf
                           "selection %s compares row column %s \
                            against an aggregate; in SQL this needs a \
                            nested query, not a single block"
                           (Expr.to_string s.Query_state.pred)
                           c)
                | None -> having := pred :: !having
              else where := pred :: !where)
        state.Query_state.selections;
      match !resolve_error with
      | Some m -> err m
      | None -> (
          let conj = function
            | [] -> None
            | e :: rest ->
                Some (List.fold_left (fun acc x -> Expr.And (acc, x)) e rest)
          in
          (* output: visible columns; in a grouped query every visible
             base column must be part of the grouping basis *)
          let visible = Spreadsheet.visible_columns sheet in
          let is_computed c =
            List.exists (fun x -> x.Computed.name = c) computed
          in
          let bad_visible =
            if not grouped then None
            else
              List.find_opt
                (fun c -> (not (is_computed c)) && not (List.mem c group_by))
                visible
          in
          (* the sheet eliminates duplicates on the visible base
             columns before any computed column exists (Plan.of_sheet);
             SELECT DISTINCT agrees only when no aggregate sees the
             deduplicated rows and no visible formula reads a hidden
             column *)
          let reads_hidden c =
            match resolve_expr computed (Expr.Col c) with
            | Ok e ->
                List.exists
                  (fun col -> List.mem col state.Query_state.hidden)
                  (Expr.columns e)
            | Error _ -> false
          in
          let bad_dedup =
            if not state.Query_state.dedup then None
            else if List.exists Computed.is_aggregate computed then
              Some
                "the sheet eliminates duplicates before aggregating; \
                 single-block SQL aggregates every row"
            else
              List.find_opt (fun c -> is_computed c && reads_hidden c) visible
              |> Option.map
                   (Printf.sprintf
                      "the sheet eliminates duplicates before computing \
                       %s, which reads a hidden column; SELECT DISTINCT \
                       would keep rows the sheet drops")
          in
          match (bad_visible, bad_dedup) with
          | Some c, _ ->
              err
                (Printf.sprintf
                   "column %s is neither grouped nor aggregated; the \
                    sheet shows it per row, SQL would collapse it \
                    (project it out first)"
                   c)
          | None, Some why -> err why
          | None, None when visible = [] ->
              err "every column is hidden; SQL has no empty select list"
          | None, None -> (
              let select_items = ref [] in
              let select_error = ref None in
              List.iter
                (fun c ->
                  match resolve_expr computed (Expr.Col c) with
                  | Error m -> select_error := Some m
                  | Ok expr ->
                      select_items :=
                        { Sql_ast.expr;
                          alias =
                            (match expr with
                            | Expr.Col name when name = c -> None
                            | _ -> Some c) }
                        :: !select_items)
                visible;
              match !select_error with
              | Some m -> err m
              | None ->
                  let order_by =
                    List.filter_map
                      (fun (attr, dir) ->
                        let dir =
                          match dir with
                          | Grouping.Asc -> `Asc
                          | Grouping.Desc -> `Desc
                        in
                        match resolve_expr computed (Expr.Col attr) with
                        | Ok expr when List.mem attr visible ->
                            Some { Sql_ast.expr; dir }
                        | _ -> None)
                      (Grouping.sort_keys grouping)
                  in
                  Ok
                    { Sql_ast.distinct =
                        state.Query_state.dedup && not grouped;
                      select = List.rev !select_items;
                      from = [ { Sql_ast.rel = table; alias = None } ];
                      where = conj (List.rev !where);
                      group_by = (if grouped then group_by else []);
                      having = conj (List.rev !having);
                      order_by })))

let to_string ~table sheet =
  match compile ~table sheet with
  | Ok q -> Ok (Sql_ast.to_string q)
  | Error (`Not_single_block reason) -> Error reason
