(* Differential execution battery.

   Every path that materializes a query state — Materialize.full,
   the cache (Materialize.full_cached, exact and subsumed hits) and
   the incremental derivations behind Session — runs the one plan
   executor (the sheet's own plan, the one [explain] prints, or a
   short plan over a cached scan), so the battery checks each of
   them, rows and order, against two
   independent references: the naive list interpreter in
   test/oracle (Defs 5, 11, 12 and Theorem 2, no fusion, no columnar
   path, no cache) and — where the state is a single-block query —
   the SQL engine via the inverse translation. Random query states
   over relations up to 10k rows must agree on all of them, and so
   must the windows Render.page cuts from them (cells and group
   breaks) and the sheet's plan run over two scans of its base data
   (a fresh base, and a batch-backed relation). Formulas the typed
   kernel computes, and aggregates folding them, are among the
   generated states, and so are the cases that stay on the row path
   whatever the data: predicates the compiler does not take, and a
   formula of mixed Int/Float cells — a Boxed column that sorts,
   groups, filters and aggregates from its cells. Both row paths are
   asserted to run at least once.

   A second battery attacks the hash-table paths (equijoin / distinct
   / diff / grouping all key on Value.hash or Row.hash): a generator
   draws key values from a pool containing a genuinely colliding
   string pair (found by birthday search at startup) plus numerically
   equal Int/Float values, and the results are compared against naive
   reference implementations that use no hashing at all. *)

open Sheet_rel
open Sheet_core
module Obs = Sheet_obs.Obs

let ( let* ) = QCheck.Gen.( let* ) [@@warning "-32"]

(* ---------- generators over the cars schema ---------- *)

let models = [ "Jetta"; "Civic"; "Accord" ]
let conditions = [ "Excellent"; "Good"; "Fair" ]

let gen_small_relation : Relation.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 0 40 in
  let* rows =
    list_repeat n
      (let* id = int_range 1 999 in
       let* model = oneofl models in
       let* price = int_range 8000 30000 in
       let* year = int_range 2000 2008 in
       let* mileage = int_range 0 150000 in
       let* condition = oneofl conditions in
       return
         (Row.of_list
            [ Value.Int id; Value.String model; Value.Int price;
              Value.Int year; Value.Int mileage; Value.String condition ]))
  in
  return (Relation.make Sample_cars.schema rows)

(* Large inputs are built deterministically from a seed so qcheck
   shrinks over (seed, size) instead of a 10k-element list. *)
let large_relation ~seed n =
  let st = Random.State.make [| seed |] in
  let model = [| "Jetta"; "Civic"; "Accord"; "Camry"; "Focus" |] in
  let condition = [| "Excellent"; "Good"; "Fair" |] in
  Relation.of_array Sample_cars.schema
    (Array.init n (fun i ->
         Row.of_list
           [ Value.Int (i + 1);
             Value.String model.(Random.State.int st 5);
             Value.Int (8000 + Random.State.int st 22000);
             Value.Int (2000 + Random.State.int st 9);
             Value.Int (Random.State.int st 150000);
             Value.String condition.(Random.State.int st 3) ]))

let numeric_cols = [ "Price"; "Year"; "Mileage" ]
let string_cols = [ "Model"; "Condition" ]

let gen_pred : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    oneof
      [ (let* col = oneofl numeric_cols in
         let* op = oneofl [ Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Eq ] in
         let* v = int_range 1990 120000 in
         return (Expr.Cmp (op, Expr.Col col, Expr.Const (Value.Int v))));
        (let* col = oneofl string_cols in
         let* v = oneofl (models @ conditions) in
         return
           (Expr.Cmp (Expr.Eq, Expr.Col col, Expr.Const (Value.String v))));
        (let* col = oneofl numeric_cols in
         let* lo = int_range 0 20000 in
         let* width = int_range 1 50000 in
         return
           (Expr.Between
              ( Expr.Col col,
                Expr.Const (Value.Int lo),
                Expr.Const (Value.Int (lo + width)) )));
        (* arithmetic under a comparison: never compiled, the row path *)
        (let* col = oneofl numeric_cols in
         let* op = oneofl [ Expr.Lt; Expr.Ge; Expr.Eq ] in
         let* v = int_range 0 6 in
         return
           (Expr.Cmp
              ( op,
                Expr.Arith (Expr.Mod, Expr.Col col, Expr.Const (Value.Int 7)),
                Expr.Const (Value.Int v) ))) ]
  in
  oneof
    [ atom;
      (let* a = atom in
       let* b = atom in
       oneofl [ Expr.And (a, b); Expr.Or (a, b) ]);
      (let* a = atom in
       return (Expr.Not a)) ]

let gen_formula_expr : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* a = oneofl numeric_cols in
  let* b = oneofl numeric_cols in
  let* op = oneofl [ Expr.Add; Expr.Sub; Expr.Mul ] in
  let* k = int_range 1 4 in
  oneofl
    [ Expr.Arith (op, Expr.Col a, Expr.Col b);
      Expr.Arith (op, Expr.Col a, Expr.Const (Value.Int k)) ]

(* Formulas the typed kernel computes: integer division and modulo
   (by zero on some rows), an int beside a float constant, negation. *)
let gen_kernel_formula : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* a = oneofl numeric_cols in
  let* b = oneofl numeric_cols in
  let* op = oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod ] in
  let* k = oneofl [ Value.Int 0; Value.Int 3; Value.Float 0.5; Value.Float (-0.0) ] in
  oneofl
    [ Expr.Arith (op, Expr.Col a, Expr.Arith (Expr.Mod, Expr.Col b, Expr.Const (Value.Int 7)));
      Expr.Arith (op, Expr.Col a, Expr.Const k);
      Expr.Neg (Expr.Arith (op, Expr.Const k, Expr.Col b)) ]

(* A formula, then an aggregate over it at the first level. *)
let gen_formula_then_aggregate ~tag : Op.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let* expr = gen_kernel_formula in
  let* fn = oneofl [ Expr.Sum; Expr.Avg; Expr.Min; Expr.Max; Expr.Count ] in
  let name = Printf.sprintf "fk_%s" tag in
  return
    [ Op.Formula { name = Some name; expr };
      Op.Aggregate
        { fn; col = Some name; level = 1;
          as_name = Some (Printf.sprintf "ak_%s" tag) } ]

(* A formula whose cells are Int on some rows and the equal Float on
   others — a Boxed column, so ties between 1 and 1.0 abound — then an
   operator over it that reads its cells: a sort, a grouping, a
   selection or an aggregate (COUNT DISTINCT among them). *)
let gen_mixed_formula_then_use ~tag : Op.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let* a = oneofl numeric_cols in
  let* cond = oneofl numeric_cols in
  let* k = int_range 2000 80000 in
  let name = Printf.sprintf "mx_%s" tag in
  let cell = Expr.Arith (Expr.Mod, Expr.Col a, Expr.Const (Value.Int 3)) in
  let expr =
    Expr.Case
      ( [ (Expr.Cmp (Expr.Gt, Expr.Col cond, Expr.Const (Value.Int k)), cell) ],
        Some (Expr.Arith (Expr.Mul, cell, Expr.Const (Value.Float 1.0))) )
  in
  let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
  let* use =
    oneof
      [ return (Op.Order { attr = name; dir; level = 1 });
        return (Op.Group { basis = [ name ]; dir });
        (let* op = oneofl [ Expr.Lt; Expr.Ge; Expr.Eq ] in
         let* v = oneofl [ Value.Int 1; Value.Float 1.0; Value.Float 1.5 ] in
         return (Op.Select (Expr.Cmp (op, Expr.Col name, Expr.Const v))));
        (let* fn =
           oneofl
             Expr.[ Sum; Avg; Min; Max; Count; Count_distinct ]
         in
         return
           (Op.Aggregate
              { fn; col = Some name; level = 1;
                as_name = Some (Printf.sprintf "am_%s" tag) })) ]
  in
  return [ Op.Formula { name = Some name; expr }; use ]

(* A typed float formula with NaN on some rows ([inf - inf] where
   the column is positive), [-0.] and [0.] on others, then a sort,
   a grouping or duplicate elimination keyed on it: the float-key
   ranking of a [Floats] computed column. Duplicate elimination keys
   on the visible columns, so every base column but [Model] is hidden
   first. *)
let gen_float_key_then_use ~tag : Op.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let* a = oneofl numeric_cols in
  let* cond = oneofl numeric_cols in
  let* k = int_range 2000 80000 in
  let name = Printf.sprintf "fl_%s" tag in
  let col = Expr.Col a in
  let mul x f = Expr.Arith (Expr.Mul, x, Expr.Const (Value.Float f)) in
  let inf = mul (mul col 1e308) 10.0 in
  let mod3 = Expr.Arith (Expr.Mod, col, Expr.Const (Value.Int 3)) in
  let expr =
    Expr.Case
      ( [ (Expr.Cmp (Expr.Gt, Expr.Col cond, Expr.Const (Value.Int k)), mul mod3 (-1.0));
          ( Expr.Cmp (Expr.Lt, Expr.Col cond, Expr.Const (Value.Int (k / 2))),
            Expr.Arith (Expr.Sub, inf, inf) ) ],
        Some (mul mod3 1.0) )
  in
  let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
  let* use =
    oneofl
      [ [ Op.Order { attr = name; dir; level = 1 } ];
        [ Op.Group { basis = [ name ]; dir } ];
        List.map
          (fun c -> Op.Project c)
          [ "ID"; "Price"; "Year"; "Mileage"; "Condition" ]
        @ [ Op.Dedup ] ]
  in
  return (Op.Formula { name = Some name; expr } :: use)

let gen_unary_op ~tag : Op.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [ (let* p = gen_pred in
       return (Op.Select p));
      (let* col = oneofl (numeric_cols @ string_cols) in
       return (Op.Project col));
      (let* fn = oneofl [ Expr.Sum; Expr.Avg; Expr.Min; Expr.Max ] in
       let* col = oneofl numeric_cols in
       return
         (Op.Aggregate
            { fn; col = Some col; level = 1;
              as_name = Some (Printf.sprintf "agg_%s" tag) }));
      (let* expr = gen_formula_expr in
       return (Op.Formula { name = Some (Printf.sprintf "fc_%s" tag); expr }));
      return Op.Dedup;
      (let* col = oneofl (string_cols @ [ "Year" ]) in
       let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
       return (Op.Group { basis = [ col ]; dir }));
      (let* col = oneofl (numeric_cols @ string_cols) in
       let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
       return (Op.Order { attr = col; dir; level = 1 }));
      return Op.Ungroup;
      (let* col = oneofl (string_cols @ [ "Year" ]) in
       let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
       return (Op.Regroup { basis = [ col ]; dir }));
      (* the leaf order of a sheet grouped once (refused otherwise) *)
      (let* col = oneofl numeric_cols in
       let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
       return (Op.Order { attr = col; dir; level = 2 })) ]

(* A grouping, then a leaf order inside it. *)
let gen_group_then_order : Op.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let* basis = oneofl (string_cols @ [ "Year" ]) in
  let* attr = oneofl numeric_cols in
  let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
  return
    [ Op.Group { basis = [ basis ]; dir };
      Op.Order { attr; dir; level = 2 } ]

let gen_ops lo hi =
  let open QCheck.Gen in
  map List.concat
    (list_size (int_range lo hi)
       (let* i = int_range 0 999 in
        let tag = string_of_int i in
        frequency
          [ (6, map (fun op -> [ op ]) (gen_unary_op ~tag));
            (1, gen_group_then_order);
            (1, gen_formula_then_aggregate ~tag);
            (1, gen_mixed_formula_then_use ~tag);
            (1, gen_float_key_then_use ~tag) ]))

let print_case (_, ops) =
  String.concat "; " (List.map Op.describe ops)

(* ---------- the differential check itself ---------- *)

let has_aggregate (sheet : Spreadsheet.t) =
  List.exists
    (fun (c : Computed.t) ->
      match c.Computed.spec with
      | Computed.Aggregate _ -> true
      | Computed.Formula _ -> false)
    sheet.Spreadsheet.state.Query_state.computed

(* Where the inverse translation yields a single-block query, the SQL
   engine must agree with the sheet. A grouped/aggregated sheet
   repeats each group's values on every member row while SQL returns
   one row per group, so both sides are collapsed before comparing. *)
let sql_agrees sheet base =
  match Sheet_sql.Sql_of_sheet.compile ~table:"cars" sheet with
  | Error (`Not_single_block _) -> true
  | Ok q -> (
      let catalog = Sheet_sql.Catalog.of_list [ ("cars", base) ] in
      match Sheet_sql.Sql_executor.run catalog q with
      | Error _ -> false
      | Ok sql_rel ->
          let vis = Materialize.visible sheet in
          if
            Grouping.num_levels (Spreadsheet.grouping sheet) > 0
            || has_aggregate sheet
          then
            (* an empty sheet with a whole-sheet aggregate still
               yields one SQL row (the usual COUNT-over-empty
               asymmetry); skip that corner *)
            Relation.cardinality vis = 0
            || Relation.equal_unordered_data
                 (Relation.normalize (Rel_algebra.distinct sql_rel))
                 (Relation.normalize (Rel_algebra.distinct vis))
          else
            Relation.equal_unordered_data (Relation.normalize sql_rel)
              (Relation.normalize vis))

(* Semantic-cache differential: rebuild the same ops with fresh uids
   (bypassing Session so nothing seeds the candidate's own uid), warm
   the cache with a relaxed parent — the last Select dropped — and
   require that whatever the subsumption scan decides (exact hit,
   proven subsumer, or full replay), the served relation equals the
   oracle's, rows and order. The relaxed parent is warmed twice: as
   it is, and sorted on other keys (ID descending, then Mileage, at
   its finest level), whose order a subsumed hit must not leak. *)
let subsumption_agrees rel ops =
  let build ops =
    List.fold_left
      (fun sheet op ->
        match Engine.apply sheet op with Ok s -> s | Error _ -> sheet)
      (Spreadsheet.of_relation ~name:"cars" rel)
      ops
  in
  let drop_last_select ops =
    let is_select = function Op.Select _ -> true | _ -> false in
    let rec go = function
      | [] -> []
      | Op.Select _ :: rest when not (List.exists is_select rest) -> rest
      | op :: rest -> op :: go rest
    in
    go ops
  in
  let relaxed = build (drop_last_select ops) in
  let level = Grouping.num_levels (Spreadsheet.grouping relaxed) in
  let resorted =
    List.fold_left
      (fun sheet (attr, dir) ->
        match Engine.apply sheet (Op.Order { attr; dir; level }) with
        | Ok s -> s
        | Error _ -> sheet)
      relaxed
      [ ("ID", Grouping.Desc); ("Mileage", Grouping.Asc) ]
  in
  List.for_all
    (fun parent ->
      Materialize.reset_cache ();
      ignore (Materialize.full_cached parent);
      let candidate = build ops in
      let served = Materialize.full_cached candidate in
      let ok =
        Oracle.same_rows_in_order served (Oracle.materialize candidate)
      in
      Materialize.reset_cache ();
      ok)
    [ relaxed; resorted ]

(* Render.page against the oracle: for windows at the start, around
   the first finest-group break, past the end and over the whole
   sheet, the page's cells are the oracle's visible rows in that
   window and its break flags are the breaks between the oracle's own
   consecutive rows, read off the finest grouping basis by name. *)
let pages_agree (sheet : Spreadsheet.t) expected =
  let names = Schema.names (Relation.schema expected) in
  let rows = Array.of_list (Relation.rows expected) in
  let n = Array.length rows in
  let cell row col =
    let rec find i = function
      | [] -> invalid_arg col
      | c :: rest -> if c = col then Row.get row i else find (i + 1) rest
    in
    find 0 names
  in
  let project cols row = List.map (cell row) cols in
  let basis = Grouping.finest_basis (Spreadsheet.grouping sheet) in
  (* a finest-level group ends after row i *)
  let ends_group i =
    basis <> []
    && i < n - 1
    && not
         (List.equal Value.equal (project basis rows.(i))
            (project basis rows.(i + 1)))
  in
  let first_break =
    let rec go i = if i >= n || ends_group i then i else go (i + 1) in
    go 0
  in
  let visible = Spreadsheet.visible_columns sheet in
  let window (offset, limit) =
    let p = Render.page ~offset ?limit sheet in
    let lo = max 0 (min offset n) in
    let hi = match limit with Some l -> min n (lo + max 0 l) | None -> n in
    p.Render.total = n
    && p.Render.offset = lo
    && List.map (fun c -> c.Render.name) p.Render.columns = visible
    && List.equal (List.equal Value.equal)
         (Array.to_list (Array.map Row.to_list p.Render.rows))
         (List.init (hi - lo) (fun k -> project visible rows.(lo + k)))
    && Array.to_list p.Render.breaks
       = List.init (hi - lo) (fun k -> lo + k < hi - 1 && ends_group (lo + k))
  in
  List.for_all window
    [ (0, None); (0, Some 3); (first_break - 1, Some 3); (first_break, Some 2);
      (n / 2, Some 4); (n - 2, Some 5); (n + 3, Some 2); (1, Some 0) ]

(* The same data scanned two ways: a fresh base, whose first scan
   builds its Sheetcol image whatever its size, and a batch-backed
   relation from an earlier run, whose selection vector skips rows of
   its root and whose second column is a computed one. A scan reads
   its root in root order, so the batch's root holds the rows in base
   order, each followed by another base row (in reverse) that the
   vector skips. *)
let two_scans base =
  let schema = Relation.schema base in
  let rows = Relation.to_array base in
  let n = Array.length rows in
  let fresh = Relation.unsafe_of_array schema (Array.copy rows) in
  let names = Schema.names schema in
  let second = List.nth names 1 in
  let hidden = "__" ^ second in
  (* the second column renamed, each row's position appended: [-1]
     for a row the vector skips *)
  let root =
    Relation.unsafe_of_array
      (Schema.append
         (Schema.of_list
            (List.map
               (fun (c : Schema.column) ->
                 ((if c.Schema.name = second then hidden else c.Schema.name),
                  c.Schema.ty))
               (Schema.columns schema)))
         { Schema.name = "__pos"; ty = Value.TInt })
      (Array.init (2 * n) (fun k ->
           let i = k / 2 in
           if k mod 2 = 0 then Row.append rows.(i) [| Value.Int i |]
           else Row.append rows.(n - 1 - i) [| Value.Int (-1) |]))
  in
  let batch =
    Plan.execute
      (Plan.Project
         ( names,
           Plan.Extend_formula
             ( { Plan.name = second;
                 ty = (Schema.column_at schema 1).Schema.ty;
                 expr = Expr.Col hidden },
               Plan.Filter
                 ( Expr.Cmp (Expr.Ge, Expr.Col "__pos", Expr.Const (Value.Int 0)),
                   Plan.Scan root ) ) ))
  in
  [ ("fresh", fresh); ("batch", batch) ]

(* [plan] reading [scan] in place of its scan of the base *)
let rec rescan scan = function
  | Plan.Scan _ -> Plan.Scan scan
  | Plan.Project (c, n) -> Plan.Project (c, rescan scan n)
  | Plan.Filter (p, n) -> Plan.Filter (p, rescan scan n)
  | Plan.Distinct_on (k, n) -> Plan.Distinct_on (k, rescan scan n)
  | Plan.Extend_formula (e, n) -> Plan.Extend_formula (e, rescan scan n)
  | Plan.Extend_aggregate (e, n) -> Plan.Extend_aggregate (e, rescan scan n)
  | Plan.Sort (k, n) -> Plan.Sort (k, rescan scan n)

let scans_agree (sheet : Spreadsheet.t) expected =
  let plan = Plan.of_sheet sheet in
  List.for_all
    (fun (_, scan) ->
      Oracle.same_rows_in_order (Plan.execute (rescan scan plan)) expected)
    (two_scans sheet.Spreadsheet.base)

(* How many of the battery's materializations ran each row path: a
   selection on the row path, and a ranking of the mixed formula's
   cells — a sort, duplicate elimination or grouping keyed on it. *)
let row_filters = ref 0
let cell_ranks = ref 0
let float_key_ranks = ref 0

let mentions prefix s =
  let n = String.length s and k = String.length prefix in
  let rec go i = i + k <= n && (String.sub s i k = prefix || go (i + 1)) in
  go 0

let note_row_paths (r : Obs.Profile.t) =
  List.iter
    (fun { Obs.Profile.n_kind; n_label; n_path; n_rows_in; _ } ->
      let keys =
        match n_kind with
        | "sort" | "distinct" -> n_label
        | "extend-agg" ->
            (* the basis follows the argument *)
            let i = Option.value ~default:0 (String.rindex_opt n_label '[') in
            String.sub n_label i (String.length n_label - i)
        | _ -> ""
      in
      if n_kind = "filter" && n_path = "row" then incr row_filters;
      if n_rows_in >= 2 then begin
        if mentions "mx_" keys then incr cell_ranks;
        if mentions "fl_" keys then incr float_key_ranks
      end)
    r.Obs.Profile.p_nodes

let check_state rel ops =
  let session = Session.create ~name:"cars" rel in
  let session =
    List.fold_left
      (fun session op ->
        match Session.apply session op with
        | Ok session -> session
        | Error _ -> session)
      session ops
  in
  let sheet = Session.current session in
  let expected = Oracle.materialize sheet in
  let agrees rel = Oracle.same_rows_in_order rel expected in
  let full = Materialize.full sheet in
  (* the Sheetdoctor profile of the run agrees with its result — and
     collecting it (always on, sink Off throughout this battery) must
     not change any result *)
  let profile_agrees =
    Obs.Profile.open_regions () = 0
    &&
    match Obs.Profile.find ~uid:sheet.Spreadsheet.uid with
    | Some r ->
        note_row_paths r;
        r.Obs.Profile.p_kind = "materialize"
        && r.Obs.Profile.p_rows_out = Relation.cardinality full
    | None -> false
  in
  let disabled_agrees =
    Obs.Profile.set_enabled false;
    Fun.protect ~finally:(fun () -> Obs.Profile.set_enabled true)
    @@ fun () -> agrees (Plan.execute (Plan.of_sheet sheet))
  in
  agrees full && profile_agrees
  && agrees (Materialize.full_cached sheet)
  && Oracle.same_rows_in_order (Session.materialized session)
       (Rel_algebra.project (Spreadsheet.visible_columns sheet) expected)
  && disabled_agrees
  && pages_agree sheet expected
  && scans_agree sheet expected
  && sql_agrees sheet rel
  && subsumption_agrees rel ops

let differential_small =
  QCheck.Test.make ~count:950
    ~name:"differential: plan == replay == incremental == SQL (small)"
    QCheck.(
      make ~print:print_case
        Gen.(
          let* rel = gen_small_relation in
          let* ops = gen_ops 0 8 in
          return (rel, ops)))
    (fun (rel, ops) -> check_state rel ops)

(* After the two batteries: each row path ran, and so did the
   float-key ranking, so the oracle has checked them. *)
let test_row_paths_taken () =
  Alcotest.(check bool)
    (Printf.sprintf "row-path selections (%d)" !row_filters)
    true (!row_filters > 0);
  Alcotest.(check bool)
    (Printf.sprintf "rankings of Boxed cells (%d)" !cell_ranks)
    true (!cell_ranks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "rankings of float formula keys (%d)" !float_key_ranks)
    true (!float_key_ranks > 0)

let differential_large =
  QCheck.Test.make ~count:30
    ~name:"differential: plan == replay == incremental == SQL (1k-10k rows)"
    QCheck.(
      make
        ~print:(fun ((seed, n), ops) ->
          Printf.sprintf "seed %d, %d rows: %s" seed n
            (String.concat "; " (List.map Op.describe ops)))
        Gen.(
          let* seed = int_range 0 1_000_000 in
          let* n = int_range 1_000 10_000 in
          let* ops = gen_ops 1 5 in
          return ((seed, n), ops)))
    (fun ((seed, n), ops) -> check_state (large_relation ~seed n) ops)

(* ---------- adversarial hash collisions ---------- *)

(* Two distinct short strings with the same [Value.hash], found by
   birthday search: [Hashtbl.hash] folds into ~2^30 buckets, so a
   collision among generated strings appears after a few tens of
   thousands of probes. *)
let colliding_strings =
  lazy
    (let tbl = Hashtbl.create (1 lsl 17) in
     let rec go i =
       if i > 3_000_000 then failwith "no Value.hash collision found"
       else
         let s = "k" ^ string_of_int i in
         let h = Value.hash (Value.String s) in
         match Hashtbl.find_opt tbl h with
         | Some s' -> (s', s)
         | None ->
             Hashtbl.add tbl h s;
             go (i + 1)
     in
     go 0)

(* Key pool: the colliding pair (distinct values, equal hashes), a
   numerically equal Int/Float pair (equal values, so they must land
   in the same bucket *and* compare equal), Null, and "". *)
let collision_pool () =
  let s1, s2 = Lazy.force colliding_strings in
  [| Value.String s1; Value.String s2; Value.Int 7; Value.Float 7.0;
     Value.Null; Value.String "" |]

(* Mixed-type columns on purpose: the algebra is untyped underneath,
   and the hash paths must cope — hence [unsafe_make]. *)
let gen_adversarial_relation key_col val_col : Relation.t QCheck.Gen.t =
  let open QCheck.Gen in
  let schema = Schema.of_list [ (key_col, Value.TString); (val_col, Value.TInt) ] in
  let* n = int_range 0 30 in
  let* cells =
    list_repeat n
      (let* k = int_range 0 5 in
       let* v = int_range 0 8 in
       return (k, v))
  in
  let pool = collision_pool () in
  return
    (Relation.unsafe_make schema
       (List.map
          (fun (k, v) ->
            Row.of_list
              [ pool.(k); (if v < 6 then pool.(v) else Value.Int (v - 6)) ])
          cells))

(* Reference implementations: no hash tables, only Row/Value equality
   and list scans. *)

let ref_equijoin ~ki ~ri a b =
  List.concat_map
    (fun ra ->
      let ka = Row.get ra ki in
      if Value.is_null ka then []
      else
        List.filter_map
          (fun rb ->
            if Value.equal ka (Row.get rb ri) then Some (Row.append ra rb)
            else None)
          (Relation.rows b))
    (Relation.rows a)

let ref_distinct rows =
  List.rev
    (List.fold_left
       (fun acc r -> if List.exists (Row.equal r) acc then acc else r :: acc)
       [] rows)

let count_of r rows = List.length (List.filter (Row.equal r) rows)

(* Bag difference cancelling the earliest left occurrences first. *)
let ref_diff a_rows b_rows =
  let budget =
    List.map (fun r -> (r, ref (count_of r b_rows))) (ref_distinct a_rows)
  in
  List.filter
    (fun r ->
      let _, cell = List.find (fun (k, _) -> Row.equal k r) budget in
      if !cell > 0 then begin
        decr cell;
        false
      end
      else true)
    a_rows

let inter_cardinality a_rows b_rows =
  List.fold_left
    (fun acc r -> acc + min (count_of r a_rows) (count_of r b_rows))
    0 (ref_distinct a_rows)

let gen_adversarial_pair =
  let open QCheck.Gen in
  let* a = gen_adversarial_relation "k" "va" in
  let* b = gen_adversarial_relation "rk" "vb" in
  return (a, b)

let print_pair (a, b) =
  Format.asprintf "a =@ %a@ b =@ %a" Relation.pp a Relation.pp b

let equijoin_under_collisions =
  QCheck.Test.make ~count:300
    ~name:"collisions: equijoin == nested-loop reference (exact order)"
    (QCheck.make ~print:print_pair gen_adversarial_pair)
    (fun (a, b) ->
      let j = Rel_algebra.equijoin ~on:("k", "rk") a b in
      List.equal Row.equal (Relation.rows j) (ref_equijoin ~ki:0 ~ri:0 a b))

let distinct_under_collisions =
  QCheck.Test.make ~count:300
    ~name:"collisions: distinct == first-occurrence reference (exact order)"
    (QCheck.make ~print:print_pair gen_adversarial_pair)
    (fun (a, _) ->
      List.equal Row.equal
        (Relation.rows (Rel_algebra.distinct a))
        (ref_distinct (Relation.rows a)))

let diff_under_collisions =
  QCheck.Test.make ~count:300
    ~name:"collisions: diff == earliest-first reference (exact order)"
    (QCheck.make ~print:print_pair gen_adversarial_pair)
    (fun (a, b) ->
      let b = Relation.with_schema (Relation.schema a) b in
      List.equal Row.equal
        (Relation.rows (Rel_algebra.diff a b))
        (ref_diff (Relation.rows a) (Relation.rows b)))

let bag_law_difference =
  QCheck.Test.make ~count:300
    ~name:"bag law: |A - B| = |A| - |A intersect B|"
    (QCheck.make ~print:print_pair gen_adversarial_pair)
    (fun (a, b) ->
      let b = Relation.with_schema (Relation.schema a) b in
      Relation.cardinality (Rel_algebra.diff a b)
      = Relation.cardinality a
        - inter_cardinality (Relation.rows a) (Relation.rows b))

let distinct_idempotent =
  QCheck.Test.make ~count:300
    ~name:"bag law: distinct (distinct A) == distinct A (exact order)"
    (QCheck.make ~print:print_pair gen_adversarial_pair)
    (fun (a, _) ->
      let d = Rel_algebra.distinct a in
      List.equal Row.equal
        (Relation.rows (Rel_algebra.distinct d))
        (Relation.rows d))

(* ---------- 10k-row diff: correctness at scale ---------- *)

(* Heavy duplication on purpose: only 15 distinct rows across 10k, so
   every hash bucket is enormous. The reference counts occurrences
   with plain integer keys — independent of Value/Row hashing — and
   the check is exact, including the earliest-first cancellation
   order. (Timing is bench/main.ml's job; this is correctness only.) *)
let test_diff_10k () =
  let tags = [| "x"; "y"; "z" |] in
  let schema = Schema.of_list [ ("g", Value.TInt); ("tag", Value.TString) ] in
  let mk shift i =
    Row.of_list [ Value.Int (i mod 5); Value.String tags.((i + shift) mod 3) ]
  in
  let a = Relation.of_array schema (Array.init 10_000 (mk 0)) in
  let b = Relation.of_array schema (Array.init 4_000 (mk 1)) in
  let key row =
    match Row.to_list row with
    | [ Value.Int g; Value.String t ] -> (g, t)
    | _ -> Alcotest.fail "unexpected row shape"
  in
  let counts rel =
    let tbl = Hashtbl.create 16 in
    Relation.iter
      (fun r ->
        let k = key r in
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      rel;
    tbl
  in
  let inter =
    let ca = counts a and cb = counts b in
    Hashtbl.fold
      (fun k na acc ->
        acc + min na (Option.value ~default:0 (Hashtbl.find_opt cb k)))
      ca 0
  in
  let budget = counts b in
  let expected =
    List.filter
      (fun r ->
        let k = key r in
        match Hashtbl.find_opt budget k with
        | Some c when c > 0 ->
            Hashtbl.replace budget k (c - 1);
            false
        | _ -> true)
      (Relation.rows a)
  in
  let d = Rel_algebra.diff a b in
  Alcotest.(check int)
    "bag law at 10k" (10_000 - inter) (Relation.cardinality d);
  Alcotest.(check bool)
    "earliest-first cancellation, order preserved" true
    (List.equal Row.equal expected (Relation.rows d))

let () =
  let suite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "sheet_diff_exec"
    [ ( "differential",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ differential_small; differential_large ]
        @ [ Alcotest.test_case "row paths taken" `Quick test_row_paths_taken ] );
      suite "collisions"
        [ equijoin_under_collisions; distinct_under_collisions;
          diff_under_collisions ];
      suite "bag-laws" [ bag_law_difference; distinct_idempotent ];
      ( "scale",
        [ Alcotest.test_case "diff at 10k rows" `Quick test_diff_10k ] ) ]
