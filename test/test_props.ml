(* Property-based tests (qcheck):

   - Theorem 2: unary data manipulation operators commute with one
     another and with grouping/ordering, whenever both application
     orders satisfy the precedence relations.
   - Theorem 3 / query modification: replacing a selection in the
     query state is the same as having issued the new predicate from
     the start.
   - Theorem 1: a random core single-block SQL query evaluates to the
     same multiset through the SQL executor and through the translated
     spreadsheet-operator sequence.
   - assorted engine invariants (undo/redo, DE idempotence, selection
     conjunction splitting, expression parser roundtrip, CSV
     roundtrip). *)

open Sheet_rel
open Sheet_core
module Sql_ast = Sheet_sql.Sql_ast

let ( let* ) = QCheck.Gen.( let* ) [@@warning "-32"]

(* ---------- generators over the cars schema ---------- *)

let models = [ "Jetta"; "Civic"; "Accord" ]
let conditions = [ "Excellent"; "Good"; "Fair" ]

let gen_base_relation : Relation.t QCheck.Gen.t =
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

(* numeric columns of the base schema *)
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
        (let* col = oneofl string_cols in
         let* vs = oneofl [ models; conditions ] in
         return
           (Expr.In_list
              (Expr.Col col, List.map (fun s -> Value.String s) vs)));
        (let* col = oneofl numeric_cols in
         let* lo = int_range 0 20000 in
         let* width = int_range 1 50000 in
         return
           (Expr.Between
              ( Expr.Col col,
                Expr.Const (Value.Int lo),
                Expr.Const (Value.Int (lo + width)) ))) ]
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

(* A random unary operator with deterministic explicit names so that
   application order cannot leak into auto-generated column names. *)
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
       return
         (Op.Formula
            { name = Some (Printf.sprintf "fc_%s" tag); expr }));
      return Op.Dedup;
      (let* col = oneofl (string_cols @ [ "Year" ]) in
       let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
       return (Op.Group { basis = [ col ]; dir }));
      (let* col = oneofl (numeric_cols @ string_cols) in
       let* dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
       return (Op.Order { attr = col; dir; level = 1 })) ]

let is_group_or_order = function
  | Op.Group _ | Op.Regroup _ | Op.Ungroup | Op.Order _ -> true
  | _ -> false

(* Canonical comparison: sort columns by name, then rows. *)
let canonical sheet =
  let rel = Materialize.full sheet in
  let names = List.sort String.compare (Schema.names (Relation.schema rel)) in
  Relation.normalize (Rel_algebra.project names rel)

let apply_ops sheet ops =
  List.fold_left
    (fun acc op ->
      match acc with
      | Error _ as e -> e
      | Ok sheet -> Engine.apply sheet op)
    (Ok sheet) ops

(* ---------- Theorem 2 ---------- *)

let commutativity =
  QCheck.Test.make ~count:500 ~name:"theorem2: unary operators commute"
    QCheck.(
      make ~print:(fun (_, a, b) ->
          Printf.sprintf "%s THEN %s" (Op.describe a) (Op.describe b))
        Gen.(
          let* rel = gen_base_relation in
          let* a = gen_unary_op ~tag:"a" in
          let* b = gen_unary_op ~tag:"b" in
          return (rel, a, b)))
    (fun (rel, a, b) ->
      (* grouping and ordering need not commute with each other *)
      QCheck.assume (not (is_group_or_order a && is_group_or_order b));
      let sheet = Spreadsheet.of_relation ~name:"t" rel in
      match (apply_ops sheet [ a; b ], apply_ops sheet [ b; a ]) with
      | Ok s1, Ok s2 -> Relation.equal (canonical s1) (canonical s2)
      | _ ->
          (* a precedence relation was violated in at least one order;
             Theorem 2 does not apply *)
          QCheck.assume_fail ())

(* A deeper version: a whole pipeline of operators applied in two
   different interleavings (the grouping/ordering subsequence kept in
   relative order) gives the same sheet. *)
let pipeline_permutation =
  QCheck.Test.make ~count:200
    ~name:"theorem2: data-manipulation ops permute around group/order"
    QCheck.(
      make ~print:(fun (_, ops, k) ->
          Printf.sprintf "insert op %d of [%s]" k
            (String.concat "; " (List.map Op.describe ops)))
        Gen.(
          let* rel = gen_base_relation in
          (* one tag per op: two aggregates of one name would change
             which column the name denotes when one of them moves *)
          let* n = int_range 2 5 in
          let* ops =
            flatten_l
              (List.init n (fun i -> gen_unary_op ~tag:(string_of_int i)))
          in
          let* k = int_range 0 (List.length ops - 1) in
          return (rel, ops, k)))
    (fun (rel, ops, k) ->
      (* move the k-th op to the front unless the move crosses another
         grouping/ordering op *)
      let target = List.nth ops k in
      let before = List.filteri (fun i _ -> i < k) ops in
      QCheck.assume
        (not
           (is_group_or_order target
           && List.exists is_group_or_order before));
      let moved = (target :: before)
                  @ List.filteri (fun i _ -> i > k) ops in
      let sheet = Spreadsheet.of_relation ~name:"t" rel in
      match (apply_ops sheet ops, apply_ops sheet moved) with
      | Ok s1, Ok s2 -> Relation.equal (canonical s1) (canonical s2)
      | _ -> QCheck.assume_fail ())

let order_groups_commutes =
  QCheck.Test.make ~count:300
    ~name:"theorem2 extension: Order_groups commutes with DM operators"
    QCheck.(
      make ~print:(fun (_, op) -> Op.describe op)
        Gen.(
          let* rel = gen_base_relation in
          let* op =
            oneof
              [ (let* p = gen_pred in
                 return (Op.Select p));
                (let* col = oneofl (numeric_cols @ string_cols) in
                 return (Op.Project col));
                (let* expr = gen_formula_expr in
                 return (Op.Formula { name = Some "fc_x"; expr }));
                return Op.Dedup ]
          in
          return (rel, op)))
    (fun (rel, op) ->
      let base =
        apply_ops
          (Spreadsheet.of_relation ~name:"t" rel)
          [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
            Op.Aggregate
              { fn = Expr.Avg; col = Some "Price"; level = 2;
                as_name = Some "ap" } ]
      in
      match base with
      | Error _ -> QCheck.assume_fail ()
      | Ok base -> (
          let og = Op.Order_groups { attr = "ap"; dir = Grouping.Desc } in
          match
            (apply_ops base [ og; op ], apply_ops base [ op; og ])
          with
          | Ok s1, Ok s2 ->
              Relation.equal (canonical s1) (canonical s2)
          | _ -> QCheck.assume_fail ()))

(* ---------- Theorem 3: query modification ---------- *)

let modification_equals_rewrite =
  QCheck.Test.make ~count:300
    ~name:"theorem3: replacing a selection == issuing it originally"
    QCheck.(
      make ~print:(fun (_, p1, p2, ops) ->
          Printf.sprintf "sel %s -> %s among [%s]" (Expr.to_string p1)
            (Expr.to_string p2)
            (String.concat "; " (List.map Op.describe ops)))
        Gen.(
          let* rel = gen_base_relation in
          let* p1 = gen_pred in
          let* p2 = gen_pred in
          let* ops =
            list_size (int_range 0 4)
              (let* i = int_range 0 999 in
               gen_unary_op ~tag:(string_of_int i))
          in
          return (rel, p1, p2, ops)))
    (fun (rel, p1, p2, ops) ->
      let sheet = Spreadsheet.of_relation ~name:"t" rel in
      match apply_ops sheet (Op.Select p1 :: ops) with
      | Error _ -> QCheck.assume_fail ()
      | Ok with_p1 -> (
          let sel_id =
            match
              with_p1.Spreadsheet.state.Query_state.selections
            with
            | s :: _ -> s.Query_state.id
            | [] -> -1
          in
          match
            ( Engine.replace_selection with_p1 sel_id p2,
              apply_ops sheet (Op.Select p2 :: ops) )
          with
          | Ok modified, Ok fresh ->
              Relation.equal (canonical modified) (canonical fresh)
          | _ -> QCheck.assume_fail ()))

let removal_equals_never_issued =
  QCheck.Test.make ~count:300
    ~name:"theorem3: removing a selection == never having issued it"
    QCheck.(
      make ~print:(fun (_, p1, ops) ->
          Printf.sprintf "drop %s among [%s]" (Expr.to_string p1)
            (String.concat "; " (List.map Op.describe ops)))
        Gen.(
          let* rel = gen_base_relation in
          let* p1 = gen_pred in
          let* ops =
            list_size (int_range 0 4)
              (let* i = int_range 0 999 in
               gen_unary_op ~tag:(string_of_int i))
          in
          return (rel, p1, ops)))
    (fun (rel, p1, ops) ->
      let sheet = Spreadsheet.of_relation ~name:"t" rel in
      match (apply_ops sheet (Op.Select p1 :: ops), apply_ops sheet ops) with
      | Ok with_p1, Ok without -> (
          let sel_id =
            match with_p1.Spreadsheet.state.Query_state.selections with
            | s :: _ -> s.Query_state.id
            | [] -> -1
          in
          match Engine.remove_selection with_p1 sel_id with
          | Ok removed ->
              Relation.equal (canonical removed) (canonical without)
          | Error _ -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

(* ---------- engine invariants ---------- *)

let dedup_idempotent =
  QCheck.Test.make ~count:200 ~name:"duplicate elimination is idempotent"
    (QCheck.make gen_base_relation)
    (fun rel ->
      let sheet = Spreadsheet.of_relation ~name:"t" rel in
      match apply_ops sheet [ Op.Dedup; Op.Dedup ] with
      | Ok twice -> (
          match apply_ops sheet [ Op.Dedup ] with
          | Ok once -> Relation.equal (canonical once) (canonical twice)
          | Error _ -> false)
      | Error _ -> false)

let selection_conjunction_splits =
  QCheck.Test.make ~count:300
    ~name:"select (a AND b) == select a; select b"
    QCheck.(
      make
        Gen.(
          let* rel = gen_base_relation in
          let* a = gen_pred in
          let* b = gen_pred in
          return (rel, a, b)))
    (fun (rel, a, b) ->
      let sheet = Spreadsheet.of_relation ~name:"t" rel in
      match
        ( apply_ops sheet [ Op.Select (Expr.And (a, b)) ],
          apply_ops sheet [ Op.Select a; Op.Select b ] )
      with
      | Ok s1, Ok s2 -> Relation.equal (canonical s1) (canonical s2)
      | _ -> false)

let project_unproject_roundtrip =
  QCheck.Test.make ~count:200 ~name:"hide then show restores the sheet"
    QCheck.(
      make
        Gen.(
          let* rel = gen_base_relation in
          let* col = oneofl (numeric_cols @ string_cols) in
          return (rel, col)))
    (fun (rel, col) ->
      let sheet = Spreadsheet.of_relation ~name:"t" rel in
      match apply_ops sheet [ Op.Project col; Op.Unproject col ] with
      | Ok restored ->
          Relation.equal (canonical sheet) (canonical restored)
      | Error _ -> false)

let undo_redo_roundtrip =
  QCheck.Test.make ~count:150 ~name:"undo^k; redo^k is the identity"
    QCheck.(
      make
        Gen.(
          let* rel = gen_base_relation in
          let* ops =
            list_size (int_range 1 5)
              (let* i = int_range 0 999 in
               gen_unary_op ~tag:(string_of_int i))
          in
          let* k = int_range 1 5 in
          return (rel, ops, k)))
    (fun (rel, ops, k) ->
      let session = Session.create ~name:"t" rel in
      let session =
        List.fold_left
          (fun s op ->
            match Session.apply s op with Ok s -> s | Error _ -> s)
          session ops
      in
      let before = canonical (Session.current session) in
      let undone = Session.undo_many session k in
      let redone =
        let rec go s n =
          if n = 0 then s
          else match Session.redo s with Some s -> go s (n - 1) | None -> s
        in
        go undone k
      in
      Relation.equal before (canonical (Session.current redone)))

let group_retains_content =
  QCheck.Test.make ~count:200
    ~name:"grouping and ordering never change the multiset of rows"
    QCheck.(
      make
        Gen.(
          let* rel = gen_base_relation in
          let* col = oneofl (string_cols @ [ "Year" ]) in
          let* ocol = oneofl numeric_cols in
          return (rel, col, ocol)))
    (fun (rel, col, ocol) ->
      let sheet = Spreadsheet.of_relation ~name:"t" rel in
      match
        apply_ops sheet
          [ Op.Group { basis = [ col ]; dir = Grouping.Asc };
            Op.Order { attr = ocol; dir = Grouping.Desc; level = 2 } ]
      with
      | Ok organized ->
          Relation.equal (canonical sheet) (canonical organized)
      | Error _ -> QCheck.assume_fail ())

(* ---------- expression parser / printer ---------- *)

let expr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"expression pp/parse roundtrip"
    (QCheck.make ~print:Expr.to_string gen_pred)
    (fun e ->
      match Expr_parse.parse_string (Expr.to_string e) with
      | Ok e2 -> Expr.equal e e2
      | Error _ -> false)

(* ---------- CSV ---------- *)

let csv_roundtrip =
  QCheck.Test.make ~count:200 ~name:"CSV write/read roundtrip"
    (QCheck.make gen_base_relation)
    (fun rel ->
      match
        Csv.load_relation ~schema:Sample_cars.schema (Csv.of_relation rel)
      with
      | Ok again -> Relation.equal rel again
      | Error msg -> QCheck.Test.fail_report msg)

(* ---------- persistence ---------- *)

let gen_sheet_with_state : Spreadsheet.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* rel = gen_base_relation in
  let* ops =
    list_size (int_range 0 6)
      (let* i = int_range 0 999 in
       gen_unary_op ~tag:(string_of_int i))
  in
  let sheet =
    List.fold_left
      (fun sheet op ->
        match Engine.apply sheet op with Ok s -> s | Error _ -> sheet)
      (Spreadsheet.of_relation ~name:"t" rel)
      ops
  in
  return sheet

let persist_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"persist: save/load preserves the materialization and state"
    (QCheck.make gen_sheet_with_state)
    (fun sheet ->
      let sheet2 = Result.get_ok (Persist.of_string (Persist.to_string sheet)) in
      Relation.equal (Materialize.full sheet) (Materialize.full sheet2)
      && Spreadsheet.hidden_columns sheet = Spreadsheet.hidden_columns sheet2
      && Grouping.equal (Spreadsheet.grouping sheet)
           (Spreadsheet.grouping sheet2)
      && List.length sheet.Spreadsheet.state.Query_state.selections
         = List.length sheet2.Spreadsheet.state.Query_state.selections)

(* ---------- group tree ---------- *)

let group_tree_flatten =
  QCheck.Test.make ~count:200
    ~name:"group tree: flattening inverts building"
    (QCheck.make gen_sheet_with_state)
    (fun sheet ->
      let tree = Group_tree.build sheet in
      List.equal Row.equal
        (Relation.rows (Materialize.full sheet))
        (Group_tree.rows tree)
      && ((* an empty grouped sheet has no structural depth *)
          Relation.cardinality (Materialize.full sheet) = 0
         || Group_tree.depth tree
            = Grouping.num_levels (Spreadsheet.grouping sheet)))

let group_tree_counts =
  QCheck.Test.make ~count:200
    ~name:"group tree: node counts agree with Materialize.full (oracle count)"
    (QCheck.make gen_sheet_with_state)
    (fun sheet ->
      let tree = Group_tree.build sheet in
      let n = Grouping.num_levels (Spreadsheet.grouping sheet) in
      QCheck.assume (Relation.cardinality (Materialize.full sheet) > 0);
      List.for_all
        (fun level ->
          Group_tree.group_count tree ~level
          = Oracle.group_count sheet ~level)
        (List.init n (fun i -> i + 1)))

(* ---------- relational substrate ---------- *)

let equijoin_equals_join =
  QCheck.Test.make ~count:200
    ~name:"equijoin == product-then-select join"
    QCheck.(
      make
        Gen.(
          let* left = gen_base_relation in
          let* right = gen_base_relation in
          return (left, right)))
    (fun (left, right) ->
      let renamed =
        Relation.unsafe_make
          (List.fold_left
             (fun s n -> Schema.rename s n ("r_" ^ n))
             (Relation.schema right)
             (Schema.names (Relation.schema right)))
          (Relation.rows right)
      in
      let a = Rel_algebra.equijoin ~on:("Year", "r_Year") left renamed in
      let b =
        Rel_algebra.join
          (Expr.Cmp (Expr.Eq, Expr.Col "Year", Expr.Col "r_Year"))
          left renamed
      in
      Relation.equal (Relation.normalize a) (Relation.normalize b))

let value_compare_total_order =
  QCheck.Test.make ~count:500 ~name:"Value.compare is a total order"
    QCheck.(
      make
        Gen.(
          let value =
            oneof
              [ return Value.Null;
                (let* b = bool in
                 return (Value.Bool b));
                (let* i = int_range (-100) 100 in
                 return (Value.Int i));
                (let* f = float_bound_inclusive 100.0 in
                 return (Value.Float f));
                (let* s = oneofl [ "a"; "b"; "zz"; "" ] in
                 return (Value.String s));
                (let* d = int_range (-1000) 20000 in
                 return (Value.Date d)) ]
          in
          let* a = value in
          let* b = value in
          let* c = value in
          return (a, b, c)))
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      sgn (Value.compare a b) = -sgn (Value.compare b a)
      && ((not (Value.compare a b <= 0 && Value.compare b c <= 0))
          || Value.compare a c <= 0)
      && Value.equal a b = (Value.compare a b = 0))

let date_roundtrip =
  QCheck.Test.make ~count:500 ~name:"civil date conversion roundtrips"
    QCheck.(make Gen.(int_range (-200_000) 200_000))
    (fun days ->
      let y, m, d = Value.ymd_of_days days in
      Value.equal (Value.of_ymd y m d) (Value.Date days)
      && m >= 1 && m <= 12 && d >= 1 && d <= 31)

(* ---------- plan compiler ---------- *)

let plan_equals_interpreter =
  QCheck.Test.make ~count:300
    ~name:"plan: compile/execute equals the interpreter"
    (QCheck.make gen_sheet_with_state)
    (fun sheet ->
      Relation.equal
        (Plan.execute (Plan.of_sheet sheet))
        (Materialize.full sheet))

(* States seeded with selections the analyzer can prove degenerate:
   contradictory pairs, subsumed pairs, tautologies, empty ranges. The
   semantic cache, whose subsumption proofs come from the same
   analyzer, and the incremental derivations behind Session must
   answer them exactly as a full replay does. *)
let gen_conflicting_ops : Op.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let cmp op col v = Expr.Cmp (op, Expr.Col col, Expr.Const (Value.Int v)) in
  let* col = oneofl numeric_cols in
  let* x = int_range 1990 120000 in
  let* gap = int_range 0 1000 in
  oneofl
    [ (* contradictory pair *)
      [ Op.Select (cmp Expr.Lt col x); Op.Select (cmp Expr.Gt col (x + gap)) ];
      (* contradictory pair on a string column *)
      [ Op.Select
          (Expr.Cmp
             (Expr.Eq, Expr.Col "Model", Expr.Const (Value.String "Jetta")));
        Op.Select
          (Expr.Cmp
             (Expr.Eq, Expr.Col "Model", Expr.Const (Value.String "Civic")))
      ];
      (* subsumed pair *)
      [ Op.Select (cmp Expr.Lt col x); Op.Select (cmp Expr.Le col (x + gap)) ];
      (* tautology *)
      [ Op.Select
          (Expr.Or
             ( cmp Expr.Lt col x,
               Expr.Or (cmp Expr.Ge col x, Expr.Is_null (Expr.Col col)) ))
      ];
      (* empty BETWEEN *)
      [ Op.Select
          (Expr.Between
             ( Expr.Col col,
               Expr.Const (Value.Int x),
               Expr.Const (Value.Int (x - 1)) ))
      ];
      (* integer gap: no int strictly between x and x+1 *)
      [ Op.Select (cmp Expr.Gt col x); Op.Select (cmp Expr.Lt col (x + 1)) ]
    ]

let gen_sheet_with_conflicts : (Relation.t * Op.t list) QCheck.Gen.t =
  let open QCheck.Gen in
  let* rel = gen_base_relation in
  let* ops =
    list_size (int_range 0 6)
      (let* i = int_range 0 999 in
       gen_unary_op ~tag:(string_of_int i))
  in
  let* extra = gen_conflicting_ops in
  return (rel, ops @ extra)

(* The session derives and caches every step; the same state rebuilt
   through the engine has fresh uids, so the cache answers it by a
   subsumed hit over one of the session's steps or by a replay. *)
let plan_pruning_preserves =
  QCheck.Test.make ~count:1000
    ~name:"plan: analysis-driven pruning preserves semantics"
    (QCheck.make gen_sheet_with_conflicts)
    (fun (rel, ops) ->
      let session =
        List.fold_left
          (fun s op -> match Session.apply s op with Ok s -> s | Error _ -> s)
          (Session.create ~name:"t" rel) ops
      in
      let sheet =
        List.fold_left
          (fun sheet op ->
            match Engine.apply sheet op with Ok s -> s | Error _ -> sheet)
          (Spreadsheet.of_relation ~name:"t" rel)
          ops
      in
      let full = Materialize.full sheet in
      Oracle.same_rows_in_order (Materialize.full_cached sheet) full
      && Oracle.same_rows_in_order (Session.materialized session)
           (Rel_algebra.project (Spreadsheet.visible_columns sheet) full))

let domain_unsat_sound =
  QCheck.Test.make ~count:1000
    ~name:"sheetsolve: an Unsat verdict means no row satisfies"
    QCheck.(
      make ~print:(fun (_, p) -> Expr.to_string p)
        Gen.(
          let* rel = gen_base_relation in
          let* p = gen_pred in
          return (rel, p)))
    (fun (rel, p) ->
      match
        Sheetsolve.check ~type_of:(Schema.type_of Sample_cars.schema) p
      with
      | `Maybe -> true
      | `Unsat _ -> Relation.cardinality (Rel_algebra.select p rel) = 0)

(* ---------- incremental materialization ---------- *)

let incremental_consistency =
  QCheck.Test.make ~count:200
    ~name:"incremental: session cache always equals a fresh replay"
    QCheck.(
      make ~print:(fun (_, ops) ->
          String.concat "; " (List.map Op.describe ops))
        Gen.(
          let* rel = gen_base_relation in
          let* ops =
            list_size (int_range 1 8)
              (let* i = int_range 0 999 in
               gen_unary_op ~tag:(string_of_int i))
          in
          return (rel, ops)))
    (fun (rel, ops) ->
      let session = Session.create ~name:"t" rel in
      let session =
        List.fold_left
          (fun session op ->
            match Session.apply session op with
            | Ok session -> session
            | Error _ -> session)
          session ops
      in
      let cached = Session.materialized session in
      let fresh =
        Rel_algebra.project
          (Spreadsheet.visible_columns (Session.current session))
          (Materialize.full (Session.current session))
      in
      Relation.equal cached fresh)

(* ---------- Theorem 1 on random SQL ---------- *)

let table_prefixes = [ "t1"; "t2" ]

let gen_catalog : Sheet_sql.Catalog.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* rels =
    QCheck.Gen.flatten_l
      (List.map
         (fun prefix ->
           let schema =
             Schema.of_list
               [ (prefix ^ "_k", Value.TInt);
                 (prefix ^ "_cat", Value.TString);
                 (prefix ^ "_num", Value.TInt);
                 (prefix ^ "_f", Value.TFloat) ]
           in
           let* n = int_range 1 25 in
           let* rows =
             list_repeat n
               (let* k = int_range 1 8 in
                let* cat = oneofl [ "a"; "b"; "c" ] in
                let* num = int_range 0 100 in
                let* f = float_bound_inclusive 50.0 in
                return
                  (Row.of_list
                     [ Value.Int k; Value.String cat; Value.Int num;
                       Value.Float f ]))
           in
           return (prefix, Relation.make schema rows))
         table_prefixes)
  in
  return (Sheet_sql.Catalog.of_list rels)

let gen_sql_query : Sql_ast.query QCheck.Gen.t =
  let open QCheck.Gen in
  let* two_tables = bool in
  let from =
    if two_tables then
      [ { Sql_ast.rel = "t1"; alias = None };
        { Sql_ast.rel = "t2"; alias = None } ]
    else [ { Sql_ast.rel = "t1"; alias = None } ]
  in
  let prefix_cols =
    if two_tables then [ "t1"; "t2" ] else [ "t1" ]
  in
  let any_num =
    oneofl (List.map (fun p -> p ^ "_num") prefix_cols)
  in
  let any_cat =
    oneofl (List.map (fun p -> p ^ "_cat") prefix_cols)
  in
  let* where =
    let join_cond =
      if two_tables then
        [ Expr.Cmp (Expr.Eq, Expr.Col "t1_k", Expr.Col "t2_k") ]
      else []
    in
    let* extra =
      option
        (let* col = any_num in
         let* v = int_range 0 100 in
         let* op = oneofl [ Expr.Lt; Expr.Ge ] in
         return (Expr.Cmp (op, Expr.Col col, Expr.Const (Value.Int v))))
    in
    let conjuncts = join_cond @ Option.to_list extra in
    return
      (match conjuncts with
      | [] -> None
      | c :: rest ->
          Some (List.fold_left (fun acc x -> Expr.And (acc, x)) c rest))
  in
  let* grouped = bool in
  if grouped then
    let* gcol = any_cat in
    let* agg_fn = oneofl [ Expr.Sum; Expr.Avg; Expr.Min; Expr.Count ] in
    let* acol = any_num in
    let* with_having = bool in
    let* having =
      if with_having then
        let* threshold = int_range 1 4 in
        return
          (Some
             (Expr.Cmp
                ( Expr.Ge,
                  Expr.Agg (Expr.Count_star, None),
                  Expr.Const (Value.Int threshold) )))
      else return None
    in
    let* second_agg = bool in
    let* order_mode = int_range 0 2 in
    let select =
      [ { Sql_ast.expr = Expr.Col gcol; alias = None };
        { Sql_ast.expr = Expr.Agg (agg_fn, Some (Expr.Col acol));
          alias = Some "the_agg" } ]
      @
      if second_agg then
        [ { Sql_ast.expr = Expr.Agg (Expr.Count_star, None);
            alias = Some "the_count" } ]
      else []
    in
    return
      { Sql_ast.distinct = false;
        select;
        from;
        where;
        group_by = [ gcol ];
        having;
        order_by =
          (match order_mode with
          | 1 -> [ { Sql_ast.expr = Expr.Col gcol; dir = `Asc } ]
          | 2 ->
              (* ordering by the aggregate alias: content equivalence *)
              [ { Sql_ast.expr = Expr.Col "the_agg"; dir = `Desc } ]
          | _ -> []) }
  else
    let* c1 = any_cat in
    let* c2 = any_num in
    let* distinct = bool in
    let* ordered = bool in
    return
      { Sql_ast.distinct;
        select =
          [ { Sql_ast.expr = Expr.Col c1; alias = None };
            { Sql_ast.expr = Expr.Col c2; alias = None } ];
        from;
        where;
        group_by = [];
        having = None;
        order_by =
          (if ordered then [ { Sql_ast.expr = Expr.Col c2; dir = `Desc } ]
           else []) }

let theorem1_random_sql =
  QCheck.Test.make ~count:300
    ~name:"theorem1: random SQL == translated spreadsheet script"
    QCheck.(
      make ~print:(fun (_, q) -> Sql_ast.to_string q)
        Gen.(
          let* catalog = gen_catalog in
          let* q = gen_sql_query in
          return (catalog, q)))
    (fun (catalog, q) ->
      match
        ( Sheet_sql.Sql_executor.run catalog q,
          Sheet_sql.Sql_to_sheet.execute catalog q )
      with
      | Ok expected, Ok actual ->
          Relation.equal_unordered_data
            (Relation.normalize expected)
            (Relation.normalize actual)
      | Error _, _ | _, Error _ -> QCheck.assume_fail ())

let () =
  let suite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "sheet_props"
    [ suite "theorem2"
        [ commutativity; pipeline_permutation; order_groups_commutes ];
      suite "theorem3"
        [ modification_equals_rewrite; removal_equals_never_issued ];
      suite "invariants"
        [ dedup_idempotent; selection_conjunction_splits;
          project_unproject_roundtrip; undo_redo_roundtrip;
          group_retains_content ];
      suite "parser" [ expr_roundtrip ];
      suite "io" [ csv_roundtrip; persist_roundtrip ];
      suite "structure"
        [ group_tree_flatten; group_tree_counts; equijoin_equals_join;
          value_compare_total_order; date_roundtrip ];
      suite "incremental" [ incremental_consistency ];
      suite "plan"
        [ plan_equals_interpreter; plan_pruning_preserves ];
      suite "analysis" [ domain_unsat_sound ];
      suite "theorem1" [ theorem1_random_sql ] ]
