(* Sheetsolve soundness battery.

   The solver's contract is that every definite answer is a theorem
   about Expr_eval.eval_pred's two-valued semantics. The qcheck oracle
   here generates random predicates over a cars-like schema together
   with random rows (including NULLs and values straddling the
   predicate constants) and checks each definite verdict pointwise:

   - implies p q        => no row satisfies p but not q
   - subsumes p q       => same, and the proof renders (explain total)
   - check p = Unsat    => no row satisfies p
   - tautology p        => every row satisfies p
   - equivalent p q     => p and q agree on every row

   Each property runs both typed (with a schema-derived type_of) and
   typeless. Unit tests pin the adversarial NULL cases documented in
   sheetsolve.mli, the proof shapes, cross-state
   subsumption on real sessions, and the semantic materialization
   cache (hit kinds, serving equality, oldest-half eviction). *)

open Sheet_rel
open Sheet_core

let ( let* ) = QCheck.Gen.( let* ) [@@warning "-32"]

(* ---------- random rows ---------- *)

(* Small pools overlapping the predicate constants so implications are
   exercised on satisfying rows, not vacuously. *)
let columns = [ "P"; "Y"; "M" ]

let type_of = function
  | "P" | "Y" -> Some Value.TInt
  | "M" -> Some Value.TString
  | _ -> None

let gen_value col =
  let open QCheck.Gen in
  let* null = int_range 0 4 in
  if null = 0 then return Value.Null
  else
    match col with
    | "P" -> QCheck.Gen.map (fun i -> Value.Int i) (int_range (-5) 15)
    | "Y" -> QCheck.Gen.map (fun i -> Value.Int i) (int_range 0 5)
    | _ -> QCheck.Gen.map (fun s -> Value.String s) (oneofl [ "a"; "ab"; "b"; "c" ])

let gen_row : (string * Value.t) list QCheck.Gen.t =
  let open QCheck.Gen in
  flatten_l (List.map (fun c -> map (fun v -> (c, v)) (gen_value c)) columns)

(* ---------- random predicates ---------- *)

let gen_atom : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let int_const = map (fun i -> Expr.Const (Value.Int i)) (int_range (-4) 12) in
  let str_const = map (fun s -> Expr.Const (Value.String s)) (oneofl [ "a"; "ab"; "b"; "c" ]) in
  let cmp_op = oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
  let num_col = map (fun c -> Expr.Col c) (oneofl [ "P"; "Y" ]) in
  oneof
    [
      (let* op = cmp_op in
       let* col = num_col in
       let* c = int_const in
       (* constant on either side *)
       let* flip = bool in
       return (if flip then Expr.Cmp (op, c, col) else Expr.Cmp (op, col, c)));
      (let* op = cmp_op in
       let* c = str_const in
       return (Expr.Cmp (op, Expr.Col "M", c)));
      (let* vs = list_size (int_range 1 4) (int_range (-4) 12) in
       let* with_null = bool in
       let vs = List.map (fun i -> Value.Int i) vs in
       let vs = if with_null then Value.Null :: vs else vs in
       return (Expr.In_list (Expr.Col "P", vs)));
      (let* vs = list_size (int_range 1 3) (oneofl [ "a"; "ab"; "b"; "c" ]) in
       return (Expr.In_list (Expr.Col "M", List.map (fun s -> Value.String s) vs)));
      (let* col = oneofl columns in
       return (Expr.Is_null (Expr.Col col)));
      (let* lo = int_range (-4) 6 in
       let* hi = int_range 0 12 in
       return
         (Expr.Between
            (Expr.Col "P", Expr.Const (Value.Int lo), Expr.Const (Value.Int hi))));
      (let* pat = oneofl [ "a%"; "%b"; "a_"; "c" ] in
       return (Expr.Like (Expr.Col "M", pat)));
    ]

let rec gen_pred depth : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  if depth = 0 then gen_atom
  else
    frequency
      [
        (3, gen_atom);
        ( 2,
          let* a = gen_pred (depth - 1) in
          let* b = gen_pred (depth - 1) in
          return (Expr.And (a, b)) );
        ( 2,
          let* a = gen_pred (depth - 1) in
          let* b = gen_pred (depth - 1) in
          return (Expr.Or (a, b)) );
        ( 1,
          let* a = gen_pred (depth - 1) in
          return (Expr.Not a) );
      ]

(* [None] when evaluation fails (the oracle then skips the row — the
   solver reasons about rows the evaluator accepts). *)
let eval row pred =
  let lookup name =
    match List.assoc_opt name row with Some v -> v | None -> raise Not_found
  in
  match Expr_eval.eval_pred ~lookup pred with
  | b -> Some b
  | exception Expr_eval.Eval_error _ -> None

(* ---------- qcheck oracle ---------- *)

let gen_case =
  let open QCheck.Gen in
  let* p = gen_pred 3 in
  let* q = gen_pred 3 in
  let* rows = list_size (int_range 40 120) gen_row in
  return (p, q, rows)

let print_case (p, q, rows) =
  Printf.sprintf "p = %s\nq = %s\n(%d rows)" (Expr.to_string p)
    (Expr.to_string q) (List.length rows)

let arb_case = QCheck.make ~print:print_case gen_case

let for_both_typings f =
  (* the typeless run must be sound too — it just proves less *)
  f None && f (Some type_of)

let implies_sound =
  QCheck.Test.make ~name:"implies p q => pointwise" ~count:800 arb_case
    (fun (p, q, rows) ->
      for_both_typings (fun ty ->
          if not (Sheetsolve.implies ?type_of:ty p q) then true
          else
            List.for_all
              (fun row ->
                match (eval row p, eval row q) with
                | Some true, Some false -> false
                | _ -> true)
              rows))

let subsumes_sound =
  QCheck.Test.make ~name:"subsumes p q => pointwise, explain total"
    ~count:800 arb_case (fun (p, q, rows) ->
      for_both_typings (fun ty ->
          match Sheetsolve.subsumes ?type_of:ty p q with
          | None -> true
          | Some proof ->
              String.length (Sheetsolve.explain proof) >= 0
              && List.for_all
                   (fun row ->
                     match (eval row p, eval row q) with
                     | Some true, Some false -> false
                     | _ -> true)
                   rows))

let unsat_sound =
  QCheck.Test.make ~name:"check = Unsat => no satisfying row" ~count:800
    arb_case (fun (p, _q, rows) ->
      for_both_typings (fun ty ->
          match Sheetsolve.check ?type_of:ty p with
          | `Maybe -> true
          | `Unsat _ ->
              List.for_all (fun row -> eval row p <> Some true) rows))

let tautology_sound =
  QCheck.Test.make ~name:"tautology => every row satisfies" ~count:800
    arb_case (fun (p, q, rows) ->
      (* tautologies are rare from the raw generator; OR in the
         complement shape to hit the interesting branch *)
      let p = Expr.Or (p, Expr.Not q) in
      for_both_typings (fun ty ->
          if not (Sheetsolve.tautology ?type_of:ty p) then true
          else List.for_all (fun row -> eval row p <> Some false) rows))

let equivalent_sound =
  QCheck.Test.make ~name:"equivalent => pointwise equal" ~count:800 arb_case
    (fun (p, q, rows) ->
      for_both_typings (fun ty ->
          if not (Sheetsolve.equivalent ?type_of:ty p q) then true
          else
            List.for_all
              (fun row ->
                match (eval row p, eval row q) with
                | Some a, Some b -> a = b
                | _ -> true)
              rows))

(* ---------- NULL-discipline unit cases (from the .mli docs) ---------- *)

let p = Expr_parse.parse_string_exn
let ty = Some Value.TInt
let int_ty _ = ty

let check_null_discipline () =
  (* NOT (x < 10) accepts NULL, so the "excluded middle" conjunction
     is satisfiable — by the all-null row *)
  Alcotest.(check bool)
    "NOT (x < 10) AND NOT (x >= 10) satisfiable (NULL)" true
    (Sheetsolve.satisfiable ~type_of:int_ty
       (p "NOT (x < 10) AND NOT (x >= 10)"));
  (* ... and the corresponding disjunction is not a tautology *)
  Alcotest.(check bool)
    "x < 10 OR x >= 10 not a tautology" false
    (Sheetsolve.tautology ~type_of:int_ty (p "x < 10 OR x >= 10"));
  Alcotest.(check bool)
    "x < 10 OR x >= 10 OR x IS NULL is a tautology" true
    (Sheetsolve.tautology ~type_of:int_ty
       (p "x < 10 OR x >= 10 OR x IS NULL"));
  (* negation of a positive comparison does not entail its flip *)
  Alcotest.(check bool)
    "NOT (x < 10) does not imply x >= 10" false
    (Sheetsolve.implies ~type_of:int_ty (p "NOT (x < 10)") (p "x >= 10"));
  Alcotest.(check bool)
    "NOT (x < 10) AND x IS NOT NULL implies x >= 10" true
    (Sheetsolve.implies ~type_of:int_ty
       (p "NOT (x < 10) AND NOT (x IS NULL)")
       (p "x >= 10"))

let check_equality_atoms () =
  (* needs no type information: the point sits in the excluded set *)
  (match Sheetsolve.check (p "x = 3 AND x <> 3") with
  | `Unsat cols ->
      Alcotest.(check (list string)) "witness column" [ "x" ] cols
  | `Maybe -> Alcotest.fail "x = 3 AND x <> 3 should be Unsat (typeless)");
  Alcotest.(check bool)
    "x = 3 implies x <> 4 (typed)" true
    (Sheetsolve.implies ~type_of:int_ty (p "x = 3") (p "x <> 4"));
  (* ... but not typeless: NOT (x <> 4) also holds on values from
     other comparability bands, so the negation must stay Top *)
  Alcotest.(check bool)
    "x = 3 vs x <> 4 unprovable typeless" false
    (Sheetsolve.implies (p "x = 3") (p "x <> 4"));
  Alcotest.(check bool)
    "x = 1 implies NOT (x IN (2, 3)) (typeless)" true
    (Sheetsolve.implies (p "x = 1") (p "NOT (x IN (2, 3))"));
  Alcotest.(check bool)
    "x IN (1, 2) implies x BETWEEN 1 AND 2" true
    (Sheetsolve.implies ~type_of:int_ty (p "x IN (1, 2)") (p "x BETWEEN 1 AND 2"));
  (match Sheetsolve.contradiction (p "x = 3") (p "x <> 3") with
  | Some cols -> Alcotest.(check (list string)) "pivot column" [ "x" ] cols
  | None -> Alcotest.fail "x = 3 / x <> 3 should be a contradiction")

let check_integer_tightening () =
  Alcotest.(check bool)
    "x < 10 implies x <= 9 over ints" true
    (Sheetsolve.implies ~type_of:int_ty (p "x < 10") (p "x <= 9"));
  Alcotest.(check bool)
    "x < 10 equivalent to x <= 9 over ints" true
    (Sheetsolve.equivalent ~type_of:int_ty (p "x < 10") (p "x <= 9"));
  Alcotest.(check bool)
    "... but not without the type" false
    (Sheetsolve.equivalent (p "x < 10") (p "x <= 9"));
  Alcotest.(check bool)
    "x > 5 AND x < 6 unsat over ints" false
    (Sheetsolve.satisfiable ~type_of:int_ty (p "x > 5 AND x < 6"))

let check_proof_shape () =
  match
    Sheetsolve.subsumes ~type_of:int_ty
      (p "(x >= 0 AND x < 10) OR x > 20")
      (p "x >= 0")
  with
  | Some (Sheetsolve.By_cases steps) ->
      Alcotest.(check int) "one step per disjunct" 2 (List.length steps);
      List.iter
        (function
          | Sheetsolve.Disjunct_absorbed { witnesses; _ } ->
              Alcotest.(check bool) "has a witness" true (witnesses <> [])
          | Sheetsolve.Disjunct_unsat _ ->
              Alcotest.fail "both disjuncts are satisfiable")
        steps
  | Some (Sheetsolve.By_refutation _) ->
      Alcotest.fail "expected a disjunct-wise By_cases proof"
  | None -> Alcotest.fail "range pair should be proven"

(* ---------- cross-state subsumption on real sessions ---------- *)

let apply_exn sheet op =
  match Engine.apply sheet op with
  | Ok s -> s
  | Error e -> Alcotest.failf "engine: %s" (Errors.to_string e)

let cars () = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation

let state_check candidate cached =
  let type_of = Schema.type_of (Spreadsheet.full_schema candidate) in
  State_subsume.check ~type_of ~budget:(ref max_int)
    ~candidate:candidate.Spreadsheet.state
    ~cached:cached.Spreadsheet.state

let check_state_subsume () =
  let base = cars () in
  let b = apply_exn base (Op.Select (p "Price < 25000")) in
  let a = apply_exn b (Op.Select (p "Year >= 2003")) in
  (match state_check a b with
  | State_subsume.Subsumed _ -> ()
  | o -> Alcotest.failf "extra selection should subsume: %s" (State_subsume.describe o));
  (* same selections, different arrangement: Equal *)
  let g = apply_exn b (Op.Group { basis = [ "Model" ]; dir = Grouping.Asc }) in
  (match state_check g b with
  | State_subsume.Equal -> ()
  | o -> Alcotest.failf "grouping-only diff should be Equal: %s" (State_subsume.describe o));
  (* an aggregate whose input rows differ blocks the claim *)
  let agg sheet =
    apply_exn
      (apply_exn sheet (Op.Group { basis = [ "Model" ]; dir = Grouping.Asc }))
      (Op.Aggregate { fn = Expr.Avg; col = Some "Price"; level = 1; as_name = None })
  in
  let a2 = agg (apply_exn base (Op.Select (p "Year >= 2003"))) in
  let b2 = agg base in
  (match state_check a2 b2 with
  | State_subsume.Incomparable _ -> ()
  | o ->
      Alcotest.failf "aggregate over different rows must not be claimed: %s"
        (State_subsume.describe o))

(* ---------- the semantic materialization cache ---------- *)

let check_cache_hit_kinds () =
  let base = cars () in
  let b = apply_exn base (Op.Select (p "Price < 25000")) in
  let a = apply_exn b (Op.Select (p "Year >= 2003")) in
  Materialize.reset_cache ();
  ignore (Materialize.full_cached b);
  let served = Materialize.full_cached a in
  Alcotest.(check bool)
    "subsumption-served equals full replay" true
    (Relation.equal served (Materialize.full a));
  let s = Materialize.cache_stats () in
  Alcotest.(check int) "one subsumed hit" 1 s.Materialize.subsumed_hits;
  ignore (Materialize.full_cached a);
  let s = Materialize.cache_stats () in
  Alcotest.(check int) "second lookup is exact" 1 s.Materialize.hits;
  Alcotest.(check int) "requests = hits + subsumed + misses"
    s.Materialize.requests
    (s.Materialize.hits + s.Materialize.subsumed_hits + s.Materialize.misses);
  Materialize.reset_cache ()

(* A subsumer sorted on keys that are not a prefix of the request's —
   Price descending, where the request orders by Year — still serves
   a subsumed hit, rows and order those of a full replay: the re-sort
   breaks Year's ties by base row, not by the cached Price order. *)
let check_cache_resorted_subsumer () =
  let b =
    apply_exn (cars ())
      (Op.Order { attr = "Price"; dir = Grouping.Desc; level = 1 })
  in
  let a =
    apply_exn
      (apply_exn (cars ()) (Op.Select (p "Price < 17000")))
      (Op.Order { attr = "Year"; dir = Grouping.Asc; level = 1 })
  in
  Materialize.reset_cache ();
  ignore (Materialize.full_cached b);
  let served = Materialize.full_cached a in
  Alcotest.(check int) "a subsumed hit" 1
    (Materialize.cache_stats ()).Materialize.subsumed_hits;
  Alcotest.(check bool) "rows and order of a full replay" true
    (List.equal Row.equal (Relation.rows served)
       (Relation.rows (Materialize.full a)));
  Materialize.reset_cache ()

let check_cache_eviction () =
  Materialize.reset_cache ();
  let rel = Sample_cars.relation in
  let sheets =
    (* distinct uids over the same physical base *)
    Array.init 514 (fun _ -> Spreadsheet.of_relation ~name:"cars" rel)
  in
  Array.iter (fun s -> Materialize.seed_cache s rel) sheets;
  let s = Materialize.cache_stats () in
  (* the 514th seed found 513 > 512 entries and dropped the oldest 256,
     leaving 257 before its own insert *)
  Alcotest.(check int) "one eviction event" 1 s.Materialize.evictions;
  Alcotest.(check int) "oldest half dropped" 258 s.Materialize.entries;
  (* evicted states are still served semantically: the empty state of
     the first sheet is Equal to any survivor over the same base *)
  let served = Materialize.full_cached sheets.(0) in
  Alcotest.(check bool)
    "evicted state re-served from an equal survivor" true
    (Relation.equal served rel);
  let s = Materialize.cache_stats () in
  Alcotest.(check int) "served as a subsumed hit" 1 s.Materialize.subsumed_hits;
  Materialize.reset_cache ()

(* The subsumer scan's budget counts solver calls only. Forty other
   sessions' states with their own computed column are rejected by
   structural checks, which cost nothing, so a session's own sheet is
   still answered from its Equal state cached after them. *)
let check_cache_budget () =
  Materialize.reset_cache ();
  let base = cars () in
  for k = 1 to 40 do
    Spreadsheet.in_uid_arena (1000 + k) @@ fun () ->
    let name = Printf.sprintf "f%d" k in
    ignore
      (Materialize.full_cached
         (apply_exn base
            (Op.Formula
               { name = Some name; expr = p (Printf.sprintf "Price + %d" k) })))
  done;
  let select () = apply_exn base (Op.Select (p "Price < 20000")) in
  let cached = select () and again = select () in
  ignore (Materialize.full_cached cached);
  let before = Materialize.cache_stats () in
  let served = Materialize.full_cached again in
  let after = Materialize.cache_stats () in
  Alcotest.(check bool) "served equals full replay" true
    (Relation.equal served (Materialize.full again));
  Alcotest.(check int) "a subsumed hit" 1
    (after.Materialize.subsumed_hits - before.Materialize.subsumed_hits);
  Alcotest.(check int) "no miss" 0
    (after.Materialize.misses - before.Materialize.misses);
  Materialize.reset_cache ()

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:true) tests)
  in
  Alcotest.run "sheet_solver"
    [
      qsuite "oracle"
        [
          implies_sound; subsumes_sound; unsat_sound; tautology_sound;
          equivalent_sound;
        ];
      ( "nulls",
        [
          Alcotest.test_case "null discipline" `Quick check_null_discipline;
          Alcotest.test_case "equality atoms" `Quick check_equality_atoms;
          Alcotest.test_case "integer tightening" `Quick check_integer_tightening;
          Alcotest.test_case "proof shape" `Quick check_proof_shape;
        ] );
      ( "states",
        [ Alcotest.test_case "state subsumption" `Quick check_state_subsume ] );
      ( "cache",
        [
          Alcotest.test_case "hit kinds" `Quick check_cache_hit_kinds;
          Alcotest.test_case "a subsumer on other sort keys" `Quick
            check_cache_resorted_subsumer;
          Alcotest.test_case "oldest-half eviction" `Quick check_cache_eviction;
          Alcotest.test_case "the budget counts solver calls only" `Quick
            check_cache_budget;
        ] );
    ]
