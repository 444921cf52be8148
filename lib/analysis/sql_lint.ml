open Sheet_rel
open Sheet_sql

let dup_diags ~code ~what items =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun item ->
      let key = String.lowercase_ascii item in
      if Hashtbl.mem seen key then
        Some
          (Diagnostic.warning ~code ~loc:(Diagnostic.Clause what)
             (Printf.sprintf "%s lists %s more than once" what item))
      else begin
        Hashtbl.add seen key ();
        None
      end)
    items

(* Structural findings of the translated sheet. Per-clause predicate
   lints are reported above against the SQL text, and the translation
   hides every non-output column by construction, so those codes are
   dropped here to avoid double and spurious reports. *)
let translated_diags catalog query =
  match Sql_to_sheet.translate catalog query with
  | Error _ -> []
  | Ok plan -> (
      match Sql_to_sheet.session_of_plan catalog plan with
      | Error _ -> []
      | Ok session ->
          let clause_level =
            [ "unsat-predicate"; "tautology"; "duplicate-conjunct";
              "redundant-conjunct"; "hidden-referenced";
              "aggregate-selection" ]
          in
          Sheet_core.Session.current session
          |> State_lint.lint
          |> List.filter (fun (d : Diagnostic.t) ->
                 not (List.mem d.code clause_level)))

let lint_query (catalog : Catalog.t) (query : Sql_ast.query) :
    Diagnostic.t list =
  match Sql_analyzer.analyze catalog query with
  | Error msg ->
      [ Diagnostic.error ~code:"invalid-query" ~loc:Diagnostic.Query msg ]
  | Ok resolved ->
      let type_of = Schema.type_of resolved.source_schema in
      let clause name pred =
        match pred with
        | None -> []
        | Some p ->
            Expr_lint.lint_pred ~type_of ~loc:(Diagnostic.Clause name) p
      in
      let q = resolved.query in
      let where = clause "WHERE" q.where in
      let having = clause "HAVING" q.having in
      (* WHERE and HAVING can contradict each other on group columns *)
      let cross =
        match (q.where, q.having) with
        | Some w, Some h
          when (not (Diagnostic.has_errors (where @ having)))
               && not
                    (Sheetsolve.satisfiable ~type_of (Expr.And (w, h))) ->
            [ Diagnostic.error ~code:"conflicting-clauses"
                ~loc:(Diagnostic.Clause "HAVING")
                "contradicts the WHERE clause — no group can satisfy both" ]
        | _ -> []
      in
      let dups =
        dup_diags ~code:"duplicate-group-by" ~what:"GROUP BY" q.group_by
        @ dup_diags ~code:"duplicate-order-by" ~what:"ORDER BY"
            (List.map
               (fun (o : Sql_ast.order_item) -> Expr.to_string o.expr)
               q.order_by)
      in
      where @ having @ cross @ dups @ translated_diags catalog query

let lint_string catalog text =
  match Sql_parser.parse text with
  | Error msg ->
      [ Diagnostic.error ~code:"parse-error" ~loc:Diagnostic.Query msg ]
  | Ok query -> lint_query catalog query
