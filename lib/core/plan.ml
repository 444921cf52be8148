open Sheet_rel
module Obs = Sheet_obs.Obs

type node =
  | Scan of Relation.t
  | Project of string list * node
  | Filter of Expr.t * node
  | Distinct_on of string list * node
  | Extend_formula of extend * node
  | Extend_aggregate of extend_agg * node
  | Sort of (string * [ `Asc | `Desc ]) list * node

and extend = { name : string; ty : Value.vtype; expr : Expr.t }

and extend_agg = {
  agg_name : string;
  agg_ty : Value.vtype;
  fn : Expr.agg_fun;
  arg : Expr.t option;
  basis : string list;
}

(* ---------- compilation: stratified replay as an operator chain ---- *)

let sort_keys (sheet : Spreadsheet.t) =
  List.map
    (fun (attr, dir) ->
      (attr, match dir with Grouping.Asc -> `Asc | Grouping.Desc -> `Desc))
    (Grouping.sort_keys (Spreadsheet.grouping sheet))

let sorted sheet plan = Sort (sort_keys sheet, plan)

let extend (sheet : Spreadsheet.t) (c : Computed.t) plan =
  match c.Computed.spec with
  | Computed.Formula expr ->
      Extend_formula
        ({ name = c.Computed.name; ty = c.Computed.ty; expr }, plan)
  | Computed.Aggregate { fn; arg; level } ->
      Extend_aggregate
        ( { agg_name = c.Computed.name;
            agg_ty = c.Computed.ty;
            fn;
            arg;
            basis =
              Grouping.cumulative_basis (Spreadsheet.grouping sheet) level },
          plan )

let unsorted (sheet : Spreadsheet.t) =
  let state = sheet.Spreadsheet.state in
  let filters_at k plan =
    List.fold_left
      (fun plan (s : Query_state.selection) ->
        if Query_state.selection_stratum state s.Query_state.pred = k then
          Filter (s.Query_state.pred, plan)
        else plan)
      plan state.Query_state.selections
  in
  let base_schema = Spreadsheet.base_schema sheet in
  let plan = filters_at 0 (Scan sheet.Spreadsheet.base) in
  let plan =
    (* duplicate elimination keys on the columns the user can see
       (projection removes a column from the sheet's C, Def. 6) *)
    if state.Query_state.dedup then
      Distinct_on
        ( List.filter
            (fun n -> not (List.mem n state.Query_state.hidden))
            (Schema.names base_schema),
          plan )
    else plan
  in
  fst
    (List.fold_left
       (fun (plan, k) c -> (filters_at k (extend sheet c plan), k + 1))
       (plan, 1) state.Query_state.computed)

(* a replay scans the base in root order: with no keys, nothing to sort *)
let of_sheet sheet =
  match sort_keys sheet with
  | [] -> unsorted sheet
  | keys -> Sort (keys, unsorted sheet)

let base_rows (sheet : Spreadsheet.t) =
  Project (Schema.names (Spreadsheet.base_schema sheet), unsorted sheet)

(* ---------- node labels and kinds ---------- *)

let child = function
  | Scan _ -> None
  | Project (_, c)
  | Filter (_, c)
  | Distinct_on (_, c)
  | Extend_formula (_, c)
  | Extend_aggregate (_, c)
  | Sort (_, c) ->
      Some c

let node_label = function
  | Scan rel ->
      Printf.sprintf "Scan (%d rows, %d columns)"
        (Relation.cardinality rel)
        (Schema.arity (Relation.schema rel))
  | Project (cols, _) ->
      Printf.sprintf "Project [%s]" (String.concat ", " cols)
  | Filter (pred, _) -> Printf.sprintf "Filter %s" (Expr.to_string pred)
  | Distinct_on (keys, _) ->
      Printf.sprintf "Distinct on [%s]" (String.concat ", " keys)
  | Extend_formula (e, _) ->
      Printf.sprintf "Extend %s = %s" e.name (Expr.to_string e.expr)
  | Extend_aggregate (e, _) ->
      Printf.sprintf "ExtendAgg %s = %s(%s) over [%s]" e.agg_name
        (Expr.agg_fun_name e.fn)
        (match e.arg with Some a -> Expr.to_string a | None -> "*")
        (String.concat ", " e.basis)
  | Sort (keys, _) ->
      Printf.sprintf "Sort [%s]"
        (String.concat ", "
           (List.map
              (fun (col, d) ->
                col ^ (match d with `Asc -> " asc" | `Desc -> " desc"))
              keys))

let node_kind = function
  | Scan _ -> "scan"
  | Project _ -> "project"
  | Filter _ -> "filter"
  | Distinct_on _ -> "distinct"
  | Extend_formula _ -> "extend"
  | Extend_aggregate _ -> "extend-agg"
  | Sort _ -> "sort"

(* ---------- execution ----------

   A plan is a chain (every node has zero or one child). The executor
   linearizes it and runs it over a {e batch}: the scanned relation's
   [Relation.batch] — a selection vector over a row-backed base plus
   a column map — which every node narrows, permutes or extends
   without building a row ([Rel_algebra]'s unary operators over
   batch-backed relations). A scan of a batch-backed relation (a
   cached materialization) continues from its batch, so a derivation
   over it extends its parent's batch. Rows are built once, on first
   row access to the result.

   Each node is one {e unit}, and notes one node (start, time, rows,
   path, and which path its predicate or formula took and why) in the
   open Sheetdoctor profile region — the record EXPLAIN ANALYZE
   renders and the trace draws. Nothing else is written beside it:
   the record's commit reads the [plan.*] counters, the per-kind node
   histograms and the selection totals off its nodes. *)

let linearize node =
  let rec go acc = function
    | Scan rel -> (rel, acc)
    | n -> (
        match child n with
        | Some c -> go (n :: acc) c
        | None -> invalid_arg "Plan.linearize: inner node without child")
  in
  go [] node

(* Grouped aggregation with per-row broadcast (Table III), with no
   per-group list: [Rel_algebra.grouping] gives every position of the
   vector its group — shared with an earlier aggregate of the same
   level over the same vector — one pass folds each row's argument,
   in root-id order, into its group's accumulator, and every row gets
   its group's value. A float sum and the first of equal extremes
   depend on the order of the fold, so it never depends on the order
   of the vector: the pass visits the positions in vector order when
   each group's ids ascend along it (always over a scan in root
   order, and after a sort whose keys are basis columns), else in
   root order ([Rel_algebra.root_positions]).
   The folds reproduce [Expr_eval.apply_agg] over the group's values
   in root order exactly: a sum keeps an int total beside a float
   total accumulated in that order, so either result is
   bit-identical, a minimum or maximum keeps the first of equal
   values under [Value.compare], and the first ill-typed argument in
   root order raises.

   An argument that is a typed column (of the base image, read
   through the vector, or computed by the typed kernel) folds its
   unboxed array: COUNT reads only the validity bitmap, SUM/AVG an
   [Ints] or [Floats] array, MIN/MAX an [Ints], [Dates] or [Floats]
   array — none of them can fail. Every other argument folds boxed
   cells into one [Expr_eval.acc] per group, the accumulator
   [apply_agg] itself folds. *)

(* The boxed fold over [n] positions in [order] ([None]: vector
   order): [arg] reads a row's cell by position. *)
let aggregate_boxed fn arg (g : Relation.grouping) order n =
  let accs = Array.init g.Relation.groups (fun _ -> Expr_eval.acc_create fn) in
  let group = g.Relation.group in
  for j = 0 to n - 1 do
    let p = Col_pred.at order j in
    Expr_eval.acc_add accs.(Array.unsafe_get group p) (arg p)
  done;
  Array.map Expr_eval.acc_result accs

(* A typed fold, or [None] when [fn] over [col] takes the boxed one.
   Loops visit the positions as [aggregate_boxed] does and skip null
   cells. *)
let aggregate_typed fn { Col_pred.col; through } (g : Relation.grouping) order
    n =
  let groups = g.Relation.groups and group = g.Relation.group in
  let validity = col.Column.validity in
  let[@inline] valid id =
    match validity with None -> true | Some bits -> Column.valid_bit bits id
  in
  let count = Array.make groups 0 in
  (* visit the valid cells: [f group id] after counting the cell, [id]
     its index in the column *)
  let[@inline] fold f =
    for j = 0 to n - 1 do
      let p = Col_pred.at order j in
      let id = Col_pred.at through p in
      if valid id then begin
        let g = Array.unsafe_get group p in
        f g id;
        count.(g) <- count.(g) + 1
      end
    done
  in
  let per_group f =
    Some (Array.init groups (fun g -> if count.(g) = 0 then Value.Null else f g))
  in
  (* the first of equal values is kept: a later one replaces it only
     when strictly smaller (MIN) or larger (MAX) *)
  let sign = if fn = Expr.Min then -1 else 1 in
  let extreme_ints box (a : int array) =
    let best = Array.make groups 0 in
    fold (fun g id ->
        let x = Array.unsafe_get a id in
        if count.(g) = 0 || sign * Int.compare x best.(g) > 0 then
          best.(g) <- x);
    per_group (fun g -> box best.(g))
  in
  match (fn, col.Column.repr) with
  | Expr.Count, (Column.Ints _ | Column.Floats _ | Column.Dates _
                | Column.Bools _ | Column.Strings _) ->
      fold (fun _ _ -> ());
      Some (Array.map (fun c -> Value.Int c) count)
  | Expr.Sum, Column.Ints a ->
      let sum = Array.make groups 0 in
      fold (fun g id -> sum.(g) <- sum.(g) + Array.unsafe_get a id);
      per_group (fun g -> Value.Int sum.(g))
  | Expr.Avg, Column.Ints a ->
      let sum = Array.make groups 0. in
      fold (fun g id ->
          sum.(g) <- sum.(g) +. float_of_int (Array.unsafe_get a id));
      per_group (fun g -> Value.Float (sum.(g) /. float_of_int count.(g)))
  | (Expr.Sum | Expr.Avg), Column.Floats a ->
      let sum = Array.make groups 0. in
      fold (fun g id -> sum.(g) <- sum.(g) +. Array.unsafe_get a id);
      per_group (fun g ->
          Value.Float
            (if fn = Expr.Avg then sum.(g) /. float_of_int count.(g)
             else sum.(g)))
  | (Expr.Min | Expr.Max), Column.Ints a ->
      extreme_ints (fun x -> Value.Int x) a
  | (Expr.Min | Expr.Max), Column.Dates a ->
      extreme_ints (fun x -> Value.Date x) a
  | (Expr.Min | Expr.Max), Column.Floats a ->
      let best = Array.make groups 0. in
      fold (fun g id ->
          let x = Array.unsafe_get a id in
          if count.(g) = 0 || sign * Float.compare x best.(g) > 0 then
            best.(g) <- x);
      per_group (fun g -> Value.Float best.(g))
  | _ -> None

(* Whether each group's ids ascend along [sel]. *)
let groups_ascend (g : Relation.grouping) sel =
  let last = Array.make g.Relation.groups (-1) and group = g.Relation.group in
  let rec go j =
    j >= Array.length sel
    ||
    let id = Array.unsafe_get sel j in
    let gi = Array.unsafe_get group j in
    id > Array.unsafe_get last gi
    && (Array.unsafe_set last gi id;
        go (j + 1))
  in
  go 0

(* The aggregate's per-group values, and whether a typed fold (or no
   argument read at all, COUNT( * )) produced them. *)
let aggregate fn arg r (g : Relation.grouping) =
  let sel = (Relation.batch r).sel in
  let n = Array.length sel in
  let order =
    if groups_ascend g sel then None else Some (Rel_algebra.root_positions r)
  in
  let typed =
    match (fn, arg) with
    | Expr.Count_star, _ -> None
    | _, Some (Expr.Col name) -> Rel_algebra.typed_arg r name
    | _ -> None
  in
  match Option.bind typed (fun src -> aggregate_typed fn src g order n) with
  | Some values -> (values, true)
  | None ->
      let arg =
        match (fn, arg, typed) with
        | Expr.Count_star, _, _ -> fun _ -> Value.Null
        | _, _, Some { Col_pred.col; through } ->
            fun p -> Column.get col (Col_pred.at through p)
        | _, Some e, None -> Rel_algebra.compile r e
        | _, None, None ->
            if g.Relation.groups > 0 then
              raise
                (Rel_algebra.Algebra_error
                   (Printf.sprintf "aggregate %s needs an argument"
                      (Expr.agg_fun_name fn)));
            fun _ -> Value.Null
      in
      (aggregate_boxed fn arg g order n, fn = Expr.Count_star)

let extend_aggregate { agg_name; agg_ty; fn; arg; basis } r =
  let schema = Relation.schema r in
  let out = Schema.append schema { Schema.name = agg_name; ty = agg_ty } in
  let grouping =
    Rel_algebra.grouping r (List.map (Schema.index_exn schema) basis)
  in
  let values, typed = aggregate fn arg r grouping in
  let b = Relation.batch r in
  ( Relation.of_batch out
      { b with
        cols =
          Array.append b.cols [| Relation.Broadcast { grouping; values } |] },
    typed )

(* Run one node over its input: the result, the path its profile node
   shows, and on the row path of a filter or formula the subtree the
   compiler refused. *)
let run_node node r =
  let refused = function
    | out, `Columnar -> (out, "columnar", None)
    | out, `Row blocker -> (out, "row", Some blocker)
  in
  match node with
  | Filter (pred, _) -> refused (Rel_algebra.select_path pred r)
  | Project (cols, _) -> (Rel_algebra.project cols r, "batch", None)
  | Extend_formula ({ name; ty; expr }, _) ->
      refused (Rel_algebra.extend_path { Schema.name; ty } expr r)
  | Extend_aggregate (e, _) ->
      let out, typed = extend_aggregate e r in
      (out, (if typed then "columnar" else "row"), None)
  | Sort (keys, _) -> (Rel_algebra.sort keys r, "batch", None)
  | Distinct_on (keys, _) -> (Rel_algebra.distinct_on keys r, "batch", None)
  | Scan _ -> invalid_arg "Plan.run_node: scan"

(* One executed unit: [run_node] and the one profile node it notes. A
   compiled filter names its predicate; a filter or formula on the row
   path names its expression and why. *)
let run_unit node r =
  let rows_in = Relation.cardinality r in
  let a0 = Gc.allocated_bytes () in
  let t0 = Obs.now_ns () in
  let out, path, blocker = run_node node r in
  let dt = Obs.now_ns () - t0 in
  (* labels render predicates: only worth it when collection is on
     ([execute] has opened the region) *)
  if Obs.Profile.enabled () then begin
    let compiled, fallback =
      match (node, blocker) with
      | (Filter (e, _) | Extend_formula ({ expr = e; _ }, _)), Some blocker ->
          let reason = Rel_algebra.fallback_reason r e ~blocker in
          (None, Some (Expr.to_string e, reason))
      | Filter (pred, _), None -> (Some (Expr.to_string pred), None)
      | _ -> (None, None)
    in
    Obs.Profile.note_node ~rows_in ~rows_out:(Relation.cardinality out) ~path
      ?compiled ?fallback ~kind:(node_kind node) ~label:(node_label node)
      ~start_ns:t0 ~time_ns:dt
      ~alloc_bytes:(Gc.allocated_bytes () -. a0)
      ()
  end;
  out

(* the one per-kind series written here: a scan notes no node *)
let h_scan = Obs.Histogram.histogram (Obs.h_plan_node_prefix ^ "scan")

let run node =
  let base, ops = linearize node in
  (* with no unit to run the answer is the scanned relation itself,
     memoized columnar image and all *)
  if ops = [] then base
  else begin
    let t0 = Obs.now_ns () in
    let scan = Relation.of_batch (Relation.schema base) (Relation.batch base) in
    Obs.Histogram.record h_scan (Obs.now_ns () - t0);
    List.fold_left (fun r node -> run_unit node r) scan ops
  end

let execute ?(uid = 0) node =
  Obs.Profile.region ~kind:"plan" ~uid ~rows_out:Relation.cardinality
    (fun () -> run node)

let explain_analyze ?(uid = 0) node =
  let rel = execute ~uid node in
  let text =
    match Obs.Profile.find ~uid with
    | Some r when Obs.Profile.enabled () -> Obs.Profile.render_record r
    | _ -> "no profile recorded (profile collection is off)"
  in
  (rel, text)

(* ---------- explain ---------- *)

let explain plan =
  let buf = Buffer.create 512 in
  let rec go indent node =
    Buffer.add_string buf
      (Printf.sprintf "%s%s\n" indent (node_label node));
    match child node with
    | Some c -> go (indent ^ "  ") c
    | None -> ()
  in
  go "" plan;
  Buffer.contents buf
