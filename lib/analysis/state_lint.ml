open Sheet_rel
open Sheet_core

let referenced_columns = Query_state.referenced_columns

let and_all = function
  | [] -> Expr.Const (Value.Bool true)
  | p :: ps -> List.fold_left (fun a b -> Expr.And (a, b)) p ps

(* Selections: per-predicate lints, then cross-selection contradiction
   and subsumption. Any row of the materialization satisfies every
   selection predicate (columns are never mutated after a predicate is
   checked), so an unsatisfiable conjunction proves an empty result
   whatever the strata. *)
let selection_diags ~type_of (state : Query_state.t) =
  let sels = Array.of_list state.selections in
  let n = Array.length sels in
  let per_pred =
    Array.to_list sels
    |> List.concat_map (fun (s : Query_state.selection) ->
           Expr_lint.lint_pred ~type_of ~loc:(Diagnostic.Selection s.id) s.pred)
  in
  let sat i = Sheetsolve.satisfiable ~type_of sels.(i).Query_state.pred in
  let cross = ref [] in
  let add d = cross := d :: !cross in
  let pair_conflict = ref false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let pi = sels.(i).Query_state.pred and pj = sels.(j).Query_state.pred in
      let idi = sels.(i).Query_state.id and idj = sels.(j).Query_state.id in
      if sat i && sat j then
        if not (Sheetsolve.satisfiable ~type_of (Expr.And (pi, pj))) then begin
          pair_conflict := true;
          add
            (Diagnostic.error ~code:"conflicting-selections"
               ~loc:(Diagnostic.Selection idj)
               (Printf.sprintf
                  "contradicts selection #%d (%s) — together they filter out every row"
                  idi (Expr.to_string pi)))
        end
        else begin
          let i_implies_j = Sheetsolve.implies ~type_of pi pj
          and j_implies_i = Sheetsolve.implies ~type_of pj pi in
          if i_implies_j && j_implies_i then
            add
              (Diagnostic.warning ~code:"duplicate-selection"
                 ~loc:(Diagnostic.Selection idj)
                 (Printf.sprintf "equivalent to selection #%d — it filters nothing further"
                    idi))
          else if i_implies_j then
            add
              (Diagnostic.warning ~code:"subsumed-selection"
                 ~loc:(Diagnostic.Selection idj)
                 (Printf.sprintf
                    "already implied by selection #%d (%s) — it filters nothing further"
                    idi (Expr.to_string pi)))
          else if j_implies_i then
            add
              (Diagnostic.warning ~code:"subsumed-selection"
                 ~loc:(Diagnostic.Selection idi)
                 (Printf.sprintf
                    "already implied by selection #%d (%s) — it filters nothing further"
                    idj (Expr.to_string pj)))
        end
    done
  done;
  (* a contradiction only visible across three or more predicates *)
  if
    n >= 3
    && (not !pair_conflict)
    && List.for_all (fun i -> sat i) (List.init n Fun.id)
    && not
         (Sheetsolve.satisfiable ~type_of
            (and_all
               (List.map
                  (fun (s : Query_state.selection) -> s.pred)
                  (Array.to_list sels))))
  then
    add
      (Diagnostic.error ~code:"conflicting-selections" ~loc:Diagnostic.Query
         "the selections are jointly unsatisfiable — they filter out every row");
  per_pred @ List.rev !cross

let column_diags (sheet : Spreadsheet.t) =
  let state = sheet.Spreadsheet.state in
  let read = referenced_columns state in
  let is_read c = List.mem c read in
  let hidden = Spreadsheet.hidden_columns sheet in
  List.filter_map
    (fun c ->
      let computed = Spreadsheet.is_computed sheet c in
      if is_read c then
        let deps =
          match Query_state.column_dependents state c with
          | [] -> "the grouping/ordering"
          | ds -> String.concat "; " ds
        in
        Some
          (Diagnostic.hint ~code:"hidden-referenced" ~loc:(Diagnostic.Column c)
             (Printf.sprintf "hidden column %s is still read by: %s" c deps))
      else if computed then
        Some
          (Diagnostic.warning ~code:"dead-computed-column"
             ~loc:(Diagnostic.Column c)
             (Printf.sprintf
                "computed column %s is hidden and nothing reads it — it only costs work"
                c))
      else None)
    hidden

let grouping_diags (state : Query_state.t) =
  let g = state.grouping in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* a column appearing twice among the flat sort keys: the second
     occurrence can never break a tie *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c, _) ->
      if Hashtbl.mem seen c then
        add
          (Diagnostic.warning ~code:"duplicate-order-key"
             ~loc:Diagnostic.Ordering
             (Printf.sprintf
                "column %s appears more than once in the ordering — the later key is dead"
                c))
      else Hashtbl.add seen c ())
    (Grouping.sort_keys g);
  (* a leaf-order key constant within the finest groups orders nothing *)
  let constant_in_finest c =
    Grouping.is_group_attr g c
    || List.exists
         (fun (cc : Computed.t) ->
           cc.name = c
           &&
           match cc.spec with
           | Computed.Aggregate { level; _ } ->
               level <= Grouping.num_levels g
           | Computed.Formula _ -> false)
         state.computed
  in
  List.iter
    (fun (c, _) ->
      if constant_in_finest c then
        add
          (Diagnostic.warning ~code:"dead-order-key" ~loc:Diagnostic.Ordering
             (Printf.sprintf
                "ordering by %s has no effect — it is constant within the finest groups"
                c)))
    g.leaf_order;
  (* whole-sheet aggregates alongside grouping: legal (Definition 11
     level 1) but often the user meant the finest level *)
  if g.levels <> [] then
    List.iter
      (fun (cc : Computed.t) ->
        match cc.spec with
        | Computed.Aggregate { level = 1; _ } ->
            add
              (Diagnostic.hint ~code:"whole-sheet-aggregate"
                 ~loc:(Diagnostic.Column cc.name)
                 (Printf.sprintf
                    "aggregate %s is computed over the whole sheet, not per group"
                    cc.name))
        | _ -> ())
      state.computed;
  List.rev !diags

(* Theorem 2 replay puts a selection right after the highest-ranked
   computed column it reads: selecting on an aggregate is HAVING, and
   the aggregate is not recomputed over the filtered rows. Worth a
   note, not a warning — it is exactly what HAVING-style tasks want. *)
let precedence_diags (state : Query_state.t) =
  List.filter_map
    (fun (s : Query_state.selection) ->
      let stratum = Query_state.selection_stratum state s.pred in
      let reads_agg =
        List.exists
          (fun c ->
            match Query_state.find_computed state c with
            | Some cc -> Computed.is_aggregate cc
            | None -> false)
          (Expr.columns s.pred)
      in
      if stratum > 0 && reads_agg then
        Some
          (Diagnostic.hint ~code:"aggregate-selection"
             ~loc:(Diagnostic.Selection s.id)
             "applies after aggregation — aggregates are not recomputed over the filtered rows")
      else None)
    state.selections

let lint (sheet : Spreadsheet.t) : Diagnostic.t list =
  let state = sheet.Spreadsheet.state in
  let type_of = Schema.type_of (Spreadsheet.full_schema sheet) in
  selection_diags ~type_of state
  @ column_diags sheet
  @ grouping_diags state
  @ precedence_diags state
