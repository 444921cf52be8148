(* Column-at-a-time execution: the rank-based sort (over a Sheetcol
   image, and over cells alone), duplicate elimination over a batch,
   the one-pass grouped aggregation and compiled row expressions,
   each pinned to the reference it replaces — a stable
   [Value.compare] sort, [Row.Tbl] hashing, the oracle's list fold
   ([Oracle.apply_agg]) over the group's values, and [Expr_eval.eval]
   — plus batch-backed relations (rows built once, on first access; a
   page reads only its window) and the empty plan that hands back its
   scanned relation. *)

open Sheet_rel
open Sheet_core
module Obs = Sheet_obs.Obs

(* bit-exact value equality: same constructor, floats by bits *)
let value_exact a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let rows_identical a b =
  Array.length a = Array.length b && Array.for_all2 ( == ) a b

let print_rows rows =
  String.concat "; "
    (Array.to_list
       (Array.map
          (fun r -> Format.asprintf "%a" Row.pp r)
          rows))

(* ---------- sort ---------- *)

(* Cell pools per column kind. Small pools make ties common; equal
   [Int]/[Float] pairs must tie; the wide ints overflow a combined
   rank range and the extreme ints an offset range. The floats cover
   every class of float key: both zeros, NaN of either sign, both
   infinities, [±max_float], subnormals, and neighbours one unit in
   the last place apart, which differ only in a key's low half. *)
let gen_cell kind : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let null_or g = frequency [ (1, return Value.Null); (5, g) ] in
  match kind with
  | `Ints -> null_or (map (fun i -> Value.Int i) (int_range (-5) 5))
  | `Dates -> null_or (map (fun d -> Value.Date d) (int_range 0 9))
  | `Ints_dates ->
      null_or
        (oneof
           [ map (fun i -> Value.Int i) (int_range 0 5);
             map (fun d -> Value.Date d) (int_range 0 5) ])
  | `Floats ->
      null_or
        (map (fun f -> Value.Float f)
           (oneofl
              [ -1.5; -0.0; 0.0; 2.5; 3.0; Float.nan; Float.infinity;
                Float.neg_infinity; Float.neg Float.nan; Float.max_float;
                -.Float.max_float; 5e-324; -5e-324; Float.min_float /. 4.;
                Float.succ 1.0; Float.pred 1.0; 1.0; Float.succ (-1.5);
                Float.pred (-1.5) ]))
  | `Strings -> null_or (map (fun s -> Value.String s) (oneofl [ "a"; "b"; "ab"; "" ]))
  | `Bools -> null_or (map (fun b -> Value.Bool b) bool)
  | `Wide -> map (fun i -> Value.Int i) (int_range (-(1 lsl 40)) (1 lsl 40))
  | `Extreme -> map (fun i -> Value.Int i) (oneofl [ min_int; -1; 0; max_int ])
  | `Mixed ->
      oneofl
        [ Value.Null; Value.Int 3; Value.Float 3.0; Value.Int 2;
          Value.Float 2.5; Value.String "x"; Value.Date 3;
          Value.Bool true; Value.Bool false ]

let gen_sort_case =
  let open QCheck.Gen in
  let* n = oneof [ int_range 0 300; int_range 4097 4600 ] in
  let* kinds =
    array_repeat 3
      (oneofl
         [ `Ints; `Dates; `Ints_dates; `Floats; `Strings; `Bools; `Wide;
           `Extreme; `Mixed ])
  in
  let* cols = flatten_a (Array.map (fun k -> array_repeat n (gen_cell k)) kinds) in
  let* nkeys = int_range 1 3 in
  let* keys =
    list_repeat nkeys
      (pair (int_range 0 2) (oneofl [ `Asc; `Desc ]))
  in
  (* a trailing row number makes every row distinguishable *)
  let rows =
    Array.init n (fun j ->
        [| cols.(0).(j); cols.(1).(j); cols.(2).(j); Value.Int j |])
  in
  return (rows, List.map (fun (i, d) -> ([| "a"; "b"; "c" |].(i), d)) keys)

let sort_schema =
  Schema.of_list
    [ ("a", Value.TInt); ("b", Value.TInt); ("c", Value.TInt);
      ("row", Value.TInt) ]

let reference_sort keys rows =
  let keys =
    List.map (fun (name, d) -> (Schema.index_exn sort_schema name, d)) keys
  in
  let sorted = Array.copy rows in
  Array.stable_sort
    (fun ra rb ->
      let rec go = function
        | [] -> 0
        | (i, d) :: rest ->
            let c = Value.compare ra.(i) rb.(i) in
            let c = match d with `Asc -> c | `Desc -> -c in
            if c <> 0 then c else go rest
      in
      go keys)
    sorted;
  sorted

(* The rows as a base: the first scan builds its Sheetcol image, which
   ranks typed columns from their arrays (string columns by their
   sorted dictionary). *)
let base rows = Relation.unsafe_of_array sort_schema rows

(* The same cells as boxed computed columns over the rows, so every
   column ranks from its cells, not from the image. *)
let cells_only_of schema rows =
  Relation.of_batch schema
    { Relation.base = Relation.unsafe_of_array schema rows;
      sel = Array.init (Array.length rows) Fun.id;
      cols =
        Array.init (Schema.arity schema) (fun j ->
            Relation.Computed
              { Column.repr = Column.Boxed (Array.map (fun r -> r.(j)) rows);
                validity = None }) }

let cells_only = cells_only_of sort_schema

let sort_matches_reference =
  QCheck.Test.make ~count:150
    ~name:"sort == stable Value.compare sort (rows and order)"
    (QCheck.make gen_sort_case) (fun (rows, keys) ->
      let want = reference_sort keys rows in
      let got = Relation.to_array (Rel_algebra.sort keys (base rows)) in
      rows_identical got want
      || QCheck.Test.fail_reportf "got %s\nwant %s" (print_rows got)
           (print_rows want))

(* Group ids over the same cells: equal ids exactly for equal keys,
   smaller ids for lexicographically smaller keys, at most one group
   per row. *)
let group_ids_follow_key_order =
  QCheck.Test.make ~count:150 ~name:"group_ids: equal keys, equal ids, key order"
    (QCheck.make gen_sort_case) (fun (rows, keys) ->
      let positions =
        List.map (fun (name, _) -> Schema.index_exn sort_schema name) keys
      in
      let gid, groups =
        Rel_algebra.group_ids (base rows) positions
      in
      let compare_keys ra rb =
        List.fold_left
          (fun c i -> if c <> 0 then c else Value.compare ra.(i) rb.(i))
          0 positions
      in
      let n = Array.length rows in
      (* neighbours in key order suffice: ids are then monotone *)
      let sorted = Array.init n Fun.id in
      Array.stable_sort (fun a b -> compare_keys rows.(a) rows.(b)) sorted;
      groups <= n
      && Array.for_all (fun g -> 0 <= g && g < groups) gid
      && Array.for_all Fun.id
           (Array.init (max 0 (n - 1)) (fun k ->
                let a = sorted.(k) and b = sorted.(k + 1) in
                let c = compare_keys rows.(a) rows.(b) in
                if c = 0 then gid.(a) = gid.(b) else gid.(a) < gid.(b))))

(* Ranks read off the image equal the ranks the same cells give
   alone ([rank_cells], which hashes mixed cells): over one key
   column, group ids are that column's ranks (dense ones, for a
   dictionary, float or hashed column), so the two relations must
   number every row alike. *)
let image_ranks_equal_hashing =
  QCheck.Test.make ~count:150 ~name:"group_ids: image ranks == hashed ranks"
    (QCheck.make gen_sort_case) (fun (rows, _) ->
      let imaged = base rows and plain = cells_only rows in
      List.for_all
        (fun c ->
          Rel_algebra.group_ids imaged [ c ] = Rel_algebra.group_ids plain [ c ])
        [ 0; 1; 2 ])

(* The ranks [Value.Tbl] hashing gives cells: the distinct cells
   numbered in [Value.compare] order, nulls last. *)
let hashed_ranks cells =
  let rank = Value.Tbl.create 16 in
  Array.iter (fun v -> Value.Tbl.replace rank v 0) cells;
  let distinct = Array.of_list (Value.Tbl.fold (fun v _ acc -> v :: acc) rank []) in
  Array.sort Value.compare distinct;
  Array.iteri (fun r v -> Value.Tbl.replace rank v r) distinct;
  (Array.map (Value.Tbl.find rank) cells, Array.length distinct)

let float_schema =
  Schema.of_list [ ("g", Value.TInt); ("f", Value.TFloat); ("row", Value.TInt) ]

let gen_float_rows =
  let open QCheck.Gen in
  let* n = oneof [ int_range 0 300; int_range 4097 4600 ] in
  let* fs = array_repeat n (gen_cell `Floats) in
  let* gs = array_repeat n (int_range 0 7) in
  return (Array.init n (fun j -> [| Value.Int gs.(j); fs.(j); Value.Int j |]))

(* Typed float ranks equal hashed ranks over the same boxed cells, from
   each place a float column comes from: the base image, a typed
   formula (Col_expr), an aggregate's per-group values (AVG, float
   SUM), and an all-Float [Boxed] computed column. Over one key
   column, group ids are that column's ranks. *)
let float_ranks_equal_hashing =
  QCheck.Test.make ~count:150 ~name:"group_ids: float ranks == hashed ranks"
    (QCheck.make
       ~print:(fun rows -> Printf.sprintf "%d rows" (Array.length rows))
       gen_float_rows) (fun rows ->
      let base = Relation.unsafe_of_array float_schema rows in
      let floats =
        Column.kind_name (Columnar.column (Relation.columnar_view base) 1)
        = "float"
      in
      let formula, path =
        Rel_algebra.extend_path
          { Schema.name = "v"; ty = Value.TFloat }
          (Expr.Case
             ( [ ( Expr.Cmp (Expr.Lt, Expr.Col "row", Expr.Const (Value.Int 150)),
                   Expr.Neg (Expr.Col "f") ) ],
               Some (Expr.Arith (Expr.Mul, Expr.Col "f", Expr.Const (Value.Float 0.5)))
             ))
          base
      in
      let aggregate fn =
        Plan.execute
          (Plan.Extend_aggregate
             ( { Plan.agg_name = "v"; agg_ty = Value.TFloat; fn;
                 arg = Some (Expr.Col "f"); basis = [ "g" ] },
               Plan.Scan base ))
      in
      let sources =
        [ ("image", base, 1); ("formula", formula, 3);
          ("avg", aggregate Expr.Avg, 3); ("sum", aggregate Expr.Sum, 3);
          ("boxed", cells_only_of float_schema rows, 1) ]
      in
      (* an aggregate column ranks its per-group values, which may
         include groups no row has (group ids need not be dense) *)
      let want r c =
        let b = Relation.batch r in
        match b.Relation.cols.(c) with
        | Relation.Broadcast { grouping; values } ->
            let ranks, m = hashed_ranks values in
            ( Array.map (fun gi -> ranks.(gi)) grouping.Relation.group,
              m )
        | _ -> hashed_ranks (Array.map (fun row -> row.(c)) (Relation.to_array r))
      in
      ((not floats) || path = `Columnar)
      && List.for_all
           (fun (source, r, c) ->
             let cells = Array.map (fun row -> row.(c)) (Relation.to_array r) in
             let got = Rel_algebra.group_ids r [ c ] in
             got = want r c
             ||
             let show (ranks, m) =
               Printf.sprintf "%s (m = %d)"
                 (String.concat " " (Array.to_list (Array.map string_of_int ranks)))
                 m
             in
             let cell = function
               | Value.Float x -> Printf.sprintf "%h" x
               | v -> Value.to_string v
             in
             QCheck.Test.fail_reportf "%s: ranks %s, hashed %s over %s" source
               (show got) (show (want r c))
               (String.concat ", " (Array.to_list (Array.map cell cells))))
           sources)

(* A column of 100k distinct values beside one outlier puts every
   value but one in the first bucket of the first pass: the sort must
   bucket that one again by its own range, not insertion-sort it. The
   ranks follow the values, and the ranking takes a small fraction of
   the time a quadratic sort of 100k keys would. *)
let test_skewed_float_ranks () =
  let n = 100_001 in
  let value j =
    if j = n / 2 then 1e300 else float_of_int ((j * 7_919) mod n) *. 0.25
  in
  let rows =
    Array.init n (fun j -> [| Value.Int 0; Value.Float (value j); Value.Int j |])
  in
  let r = Relation.unsafe_of_array float_schema rows in
  let t0 = Unix.gettimeofday () in
  let ranks, m = Rel_algebra.group_ids r [ 1 ] in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "distinct values" n m;
  Alcotest.(check bool) "ranks follow the values" true
    (Array.for_all
       (fun j ->
         j = 0
         || Float.compare (value j) (value (j - 1))
            = Int.compare ranks.(j) ranks.(j - 1))
       (Array.init n Fun.id));
  Alcotest.(check bool) (Printf.sprintf "ranked in %.3f s" dt) true (dt < 2.)

(* A sorted vector is not ascending: an [Or] filter compiled against
   the image must keep the survivors in the sorted order. *)
let or_filter_after_sort =
  QCheck.Test.make ~count:150 ~name:"Or filter after a Sort keeps its order"
    (QCheck.make gen_sort_case) (fun (rows, keys) ->
      let pred =
        Expr.Or
          ( Expr.Cmp (Expr.Lt, Expr.Col "row", Expr.Const (Value.Int 40)),
            Expr.Cmp (Expr.Gt, Expr.Col "row", Expr.Const (Value.Int 200)) )
      in
      let want =
        Array.of_list
          (List.filter
             (fun r ->
               match r.(3) with Value.Int i -> i < 40 || i > 200 | _ -> false)
             (Array.to_list (reference_sort keys rows)))
      in
      let sorted = Rel_algebra.sort keys (base rows) in
      let got, path = Rel_algebra.select_path pred sorted in
      let got = Relation.to_array got in
      (* an empty image column is boxed: nothing compiles *)
      (Array.length rows = 0 || path = `Columnar)
      && (rows_identical got want
         || QCheck.Test.fail_reportf "got %s\nwant %s" (print_rows got)
              (print_rows want)))

(* ---------- duplicate elimination ---------- *)

(* Cells that compare equal without being identical — [Int 3] and
   [Float 3.0], [0.0] and [-0.0], two NaNs — and nulls, beside a
   string and an int column the image codes. *)
let gen_distinct_rows =
  let open QCheck.Gen in
  let tricky =
    oneofl
      [ Value.Int 3; Value.Float 3.0; Value.Float Float.nan;
        Value.Float 0.0; Value.Float (-0.0); Value.Null; Value.Int 0 ]
  in
  let* n = oneof [ int_range 0 60; int_range 256 400 ] in
  array_repeat n
    (let* a = tricky in
     let* b = oneofl [ Value.String "x"; Value.String "y"; Value.Null ] in
     let* c = oneofl [ Value.Int 1; Value.Int 2; Value.Null ] in
     return [| a; b; c |])

let distinct_schema =
  Schema.of_list
    [ ("a", Value.TFloat); ("b", Value.TString); ("c", Value.TInt) ]

(* The reference keeps the first row of each class of [Row.Tbl]
   (real row equality). *)
let row_tbl_distinct rows =
  let seen = Row.Tbl.create 16 in
  Array.of_list
    (List.filter
       (fun row ->
         (not (Row.Tbl.mem seen row))
         && (Row.Tbl.add seen row ();
             true))
       (Array.to_list rows))

let distinct_matches_row_tbl =
  QCheck.Test.make ~count:300
    ~name:"distinct == Row.Tbl distinct (rows and order)"
    (QCheck.make gen_distinct_rows)
    (fun rows ->
      let r = Relation.unsafe_of_array distinct_schema rows in
      let batch = Rel_algebra.project (Schema.names distinct_schema) r in
      let want = row_tbl_distinct rows in
      List.for_all
        (fun input ->
          let got = Relation.to_array (Rel_algebra.distinct input) in
          rows_identical got want
          || QCheck.Test.fail_reportf "got %s\nwant %s" (print_rows got)
               (print_rows want))
        [ r; batch ]
      && not (Relation.rows_built batch))

(* ---------- grouped aggregation ---------- *)

let agg_schema =
  Schema.of_list
    [ ("g", Value.TInt); ("h", Value.TString); ("w", Value.TInt);
      ("x", Value.TFloat) ]

let all_funs =
  Expr.[ Count_star; Count; Count_distinct; Sum; Avg; Min; Max ]

(* Argument cells: all-int groups that overflow, mixed int/float
   sums, nulls (whole groups of them at small sizes), 3 beside 3.0
   (ties under MIN/MAX, one value under COUNT DISTINCT), NaN rarely.
   Strings where the function accepts them, and in an [ill_typed] case
   where it does not: SUM/AVG must then fail with the reference's
   message. *)
let gen_arg ~ill_typed fn : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let numeric =
    [ (3, return Value.Null);
      (3, map (fun i -> Value.Int i) (int_range (-4) 4));
      (2, oneofl [ Value.Int max_int; Value.Int (max_int - 1); Value.Int min_int ]);
      (2, oneofl [ Value.Int 3; Value.Float 3.0 ]);
      (3, map (fun f -> Value.Float f) (oneofl [ 0.1; 0.2; 1e16; -1e16; 0.3; -0.0 ]));
      (1, return (Value.Float Float.nan)) ]
  in
  let strings weight = (weight, map (fun s -> Value.String s) (oneofl [ "p"; "q" ])) in
  match fn with
  | (Expr.Sum | Expr.Avg) when not ill_typed -> frequency numeric
  | Expr.Sum | Expr.Avg -> frequency (strings 1 :: numeric)
  | _ -> frequency (strings 2 :: numeric)

let gen_agg_case =
  let open QCheck.Gen in
  let* fn = oneofl all_funs in
  let* ill_typed = frequency [ (5, return false); (1, return true) ] in
  let* basis = oneofl [ []; [ "g" ]; [ "g"; "h" ]; [ "w" ]; [ "h"; "w"; "g" ] ] in
  let* n = int_range 0 60 in
  let* rows =
    array_repeat n
      (let* g =
         oneofl [ Value.Int 1; Value.Int 2; Value.Float 2.0; Value.Null ]
       in
       let* h = oneofl [ Value.String "u"; Value.String "v"; Value.Null ] in
       (* sparse ints: an offset rank range far wider than the rows *)
       let* w = oneofl [ Value.Int 0; Value.Int (1 lsl 40); Value.Int (-7) ] in
       let* x = gen_arg ~ill_typed fn in
       return [| g; h; w; x |])
  in
  return (fn, basis, rows)

let aggregate_matches_apply_agg =
  QCheck.Test.make ~count:500
    ~name:"grouped accumulators == apply_agg per group (bit-identical)"
    (QCheck.make gen_agg_case) (fun (fn, basis, rows) ->
      let plan =
        Plan.Extend_aggregate
          ( { Plan.agg_name = "v"; agg_ty = Value.TFloat; fn;
              arg = Some (Expr.Col "x"); basis },
            Plan.Scan (Relation.unsafe_of_array agg_schema rows) )
      in
      let cells group = List.map (fun r -> r.(3)) group in
      (* one fold over every row, in input order, fails exactly when
         the grouped one must, at the same value *)
      match Oracle.apply_agg fn (cells (Array.to_list rows)) with
      | exception Expr_eval.Eval_error want -> (
          match Plan.execute plan with
          | _ -> QCheck.Test.fail_reportf "no error, want %s" want
          | exception Expr_eval.Eval_error got ->
              got = want || QCheck.Test.fail_reportf "got %s, want %s" got want)
      | _ ->
          let out = Relation.to_array (Plan.execute plan) in
          let positions =
            Array.of_list (List.map (Schema.index_exn agg_schema) basis)
          in
          let key row = Row.project_arr row positions in
          Array.length out = Array.length rows
          && Array.for_all
               (fun i ->
                 let group =
                   List.filter
                     (fun r -> Row.equal (key r) (key rows.(i)))
                     (Array.to_list rows)
                 in
                 let want = Oracle.apply_agg fn (cells group) in
                 let got = out.(i).(4) in
                 value_exact got want
                 || QCheck.Test.fail_reportf "%s row %d: got %s, want %s"
                      (Expr.agg_fun_name fn) i (Value.to_string got)
                      (Value.to_string want))
               (Array.init (Array.length rows) Fun.id))

let raises_eval f =
  match f () with
  | _ -> Alcotest.fail "expected Eval_error"
  | exception Expr_eval.Eval_error msg -> msg

(* An ill-typed argument raises at the first failing row in input
   order, not at the first failing group. *)
let test_aggregate_error_order () =
  let rows =
    [| [| Value.Int 1; Value.String "u"; Value.Int 0; Value.Int 1 |];
       [| Value.Int 2; Value.String "u"; Value.Int 0; Value.String "b1" |];
       [| Value.Int 1; Value.String "u"; Value.Int 0; Value.String "a1" |] |]
  in
  let run fn arg =
    Plan.execute
      (Plan.Extend_aggregate
         ( { Plan.agg_name = "v"; agg_ty = Value.TFloat; fn; arg = Some arg;
             basis = [ "g" ] },
           Plan.Scan (Relation.unsafe_of_array agg_schema rows) ))
  in
  Alcotest.(check string)
    "sum: second row's group fails first" "sum over non-numeric value b1"
    (raises_eval (fun () -> run Expr.Sum (Expr.Col "x")));
  Alcotest.(check string)
    "avg: same order" "avg over non-numeric value b1"
    (raises_eval (fun () -> run Expr.Avg (Expr.Col "x")));
  Alcotest.(check string)
    "argument evaluation: same order"
    "arithmetic on non-numeric values b1 and 1"
    (raises_eval (fun () ->
         run Expr.Max (Expr.Arith (Expr.Add, Expr.Col "x", Expr.Const (Value.Int 1)))))

(* ---------- selections over aggregates ---------- *)

let outcome f =
  match f () with
  | v -> Ok v
  | exception Expr_eval.Eval_error msg -> Error ("Eval_error: " ^ msg)
  | exception e -> Error (Printexc.to_string e)


(* Aggregate columns of one level: a count, a sum and a maximum of
   [x] over [basis], then (maybe) a sort and a compiled selection,
   so the vector the HAVING reads is permuted and narrower than the
   one its grouping numbers. *)
let gen_having_case =
  let open QCheck.Gen in
  let* basis = oneofl [ [ "g" ]; [ "g"; "h" ]; [ "h" ] ] in
  let* n = int_range 0 60 in
  let* rows =
    array_repeat n
      (let* g = oneofl [ Value.Int 1; Value.Int 2; Value.Int 3; Value.Null ] in
       let* h = oneofl [ Value.String "u"; Value.String "v"; Value.Null ] in
       let* w = map (fun i -> Value.Int i) (int_range (-3) 3) in
       let* x = gen_arg ~ill_typed:false Expr.Sum in
       return [| g; h; w; x |])
  in
  let* sorted = bool in
  let* narrowed = bool in
  let number =
    oneofl
      [ Value.Int 0; Value.Int 1; Value.Int 2; Value.Int 3; Value.Float 2.5;
        Value.Float Float.nan; Value.Null ]
  in
  let agg = oneofl [ "c"; "s"; "m" ] in
  let leaf =
    oneof
      [ map3
          (fun op a v -> Expr.Cmp (op, Expr.Col a, Expr.Const v))
          (oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ])
          agg number;
        map3
          (fun op a b ->
            Expr.Cmp
              ( op,
                Expr.Arith (Expr.Div, Expr.Col a, Expr.Col b),
                Expr.Const (Value.Float 1.) ))
          (oneofl Expr.[ Lt; Ge ])
          agg agg;
        map (fun a -> Expr.Is_null (Expr.Col a)) agg;
        (* a base column beside the aggregates: the row path *)
        map (fun v -> Expr.Cmp (Expr.Gt, Expr.Col "w", Expr.Const v)) number ]
  in
  let* pred =
    oneof
      [ leaf;
        map2 (fun a b -> Expr.And (a, b)) leaf leaf;
        map2 (fun a b -> Expr.Or (a, b)) leaf leaf;
        map (fun a -> Expr.Not a) leaf ]
  in
  return (basis, rows, sorted, narrowed, pred)

let having_matches_row_path =
  QCheck.Test.make ~count:600 ~name:"HAVING per group == row interpreter"
    (QCheck.make
       ~print:(fun (basis, rows, sorted, narrowed, pred) ->
         Printf.sprintf "%s by [%s] over %d rows (sorted %b, narrowed %b)"
           (Expr.to_string pred) (String.concat ", " basis) (Array.length rows)
           sorted narrowed)
       gen_having_case)
    (fun (basis, rows, sorted, narrowed, pred) ->
      let agg name fn arg node =
        Plan.Extend_aggregate
          ( { Plan.agg_name = name; agg_ty = Value.TFloat; fn; arg; basis },
            node )
      in
      let plan =
        Plan.Scan (Relation.unsafe_of_array agg_schema rows)
        |> agg "c" Expr.Count_star None
        |> agg "s" Expr.Sum (Some (Expr.Col "x"))
        |> agg "m" Expr.Max (Some (Expr.Col "x"))
      in
      let plan = if sorted then Plan.Sort ([ ("w", `Desc) ], plan) else plan in
      let plan =
        if narrowed then
          Plan.Filter
            (Expr.Cmp (Expr.Ne, Expr.Col "w", Expr.Const (Value.Int 0)), plan)
        else plan
      in
      let r = Plan.execute plan in
      let schema = Relation.schema r in
      let want =
        outcome (fun () ->
            List.filter
              (fun row ->
                Expr_eval.eval_pred
                  ~lookup:(fun name ->
                    Row.get row (Schema.index_exn schema name))
                  pred)
              (Relation.rows r))
      in
      let got =
        outcome (fun () ->
            let out, path = Rel_algebra.select_path pred r in
            (Relation.rows out, path))
      in
      let per_group =
        List.for_all (fun c -> List.mem c [ "c"; "s"; "m" ]) (Expr.columns pred)
      in
      match (got, want) with
      | Ok (got, path), Ok want ->
          ((not per_group) || path = `Columnar)
          && (List.equal Row.equal got want
             || QCheck.Test.fail_reportf "got %d rows, want %d"
                  (List.length got) (List.length want))
      | Error a, Error b ->
          a = b || QCheck.Test.fail_reportf "got %s, want %s" a b
      | Ok _, Error e -> QCheck.Test.fail_reportf "no error, want %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "unexpected %s" e)

(* ---------- order independence ----------

   Sort, duplicate elimination and grouped aggregation decide row
   order and fold order by root row id, never by the order of the
   input's vector: over the same rows read through a random
   permutation of the vector, a sort gives the same rows in the same
   order, and duplicate elimination and an aggregate give the same
   rows and cells, float bits included, once put back in root order
   (a sort with no keys). *)

(* The rows as a root, read through the vector [perm]. *)
let permuted schema rows perm =
  let root = Relation.unsafe_of_array schema rows in
  Relation.of_batch schema { (Relation.batch root) with Relation.sel = perm }

let gen_perm n = QCheck.Gen.(map Array.of_list (shuffle_l (List.init n Fun.id)))

let rows_exact a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun r s -> Array.length r = Array.length s && Array.for_all2 value_exact r s)
       a b

let in_root_order r = Relation.to_array (Rel_algebra.sort [] r)

let sort_ignores_vector_order =
  QCheck.Test.make ~count:150 ~name:"sort: a permuted vector, the same order"
    (QCheck.make
       QCheck.Gen.(
         let* rows, keys = gen_sort_case in
         let* perm = gen_perm (Array.length rows) in
         return (rows, keys, perm)))
    (fun (rows, keys, perm) ->
      let want = Relation.to_array (Rel_algebra.sort keys (base rows)) in
      let got =
        Relation.to_array (Rel_algebra.sort keys (permuted sort_schema rows perm))
      in
      rows_identical got want
      || QCheck.Test.fail_reportf "got %s\nwant %s" (print_rows got)
           (print_rows want))

let distinct_ignores_vector_order =
  QCheck.Test.make ~count:300
    ~name:"distinct_on: a permuted vector keeps the lowest root ids"
    (QCheck.make
       QCheck.Gen.(
         let* rows = gen_distinct_rows in
         let rows = Array.mapi (fun j r -> Array.append r [| Value.Int j |]) rows in
         let* perm = gen_perm (Array.length rows) in
         return (rows, perm)))
    (fun (rows, perm) ->
      let schema = Schema.append distinct_schema { Schema.name = "row"; ty = Value.TInt } in
      let keys = Schema.names distinct_schema in
      let distinct r = Rel_algebra.distinct_on keys r in
      let want = Relation.to_array (distinct (Relation.unsafe_of_array schema rows)) in
      let got = in_root_order (distinct (permuted schema rows perm)) in
      rows_identical got want
      || QCheck.Test.fail_reportf "got %s\nwant %s" (print_rows got)
           (print_rows want))

(* Float sums that cancel (1e16 - 1e16 + 1 depends on the order of
   the fold), extremes among equal zeros of either sign, and mixed
   Int/Float cells (a boxed column, 3 beside 3.0). *)
let gen_order_agg_case =
  let open QCheck.Gen in
  let* fn = oneofl Expr.[ Sum; Avg; Min; Max ] in
  let* cells =
    oneofl
      [ [ Value.Float 1e16; Value.Float (-1e16); Value.Float 1.0;
          Value.Float 0.1; Value.Float (-0.7) ];
        [ Value.Float 0.0; Value.Float (-0.0); Value.Float 1.0;
          Value.Float (-1.0); Value.Null ];
        [ Value.Int 3; Value.Float 3.0; Value.Int 1; Value.Float 1e16;
          Value.Float (-1e16); Value.Null ] ]
  in
  let* basis = oneofl [ []; [ "g" ]; [ "g"; "h" ] ] in
  let* n = int_range 0 80 in
  let* rows =
    array_repeat n
      (let* g = oneofl [ Value.Int 1; Value.Int 2; Value.Null ] in
       let* h = oneofl [ Value.String "u"; Value.String "v" ] in
       let* x = oneofl cells in
       return (g, h, x))
  in
  let rows = Array.mapi (fun j (g, h, x) -> [| g; h; Value.Int j; x |]) rows in
  let* perm = gen_perm n in
  return (fn, basis, rows, perm)

let aggregate_ignores_vector_order =
  QCheck.Test.make ~count:500
    ~name:"aggregate: a permuted vector, the same cells (bit-identical)"
    (QCheck.make
       ~print:(fun (fn, basis, rows, perm) ->
         Printf.sprintf "%s over [%s]: %s, vector %s" (Expr.agg_fun_name fn)
           (String.concat ", " basis) (print_rows rows)
           (String.concat " " (Array.to_list (Array.map string_of_int perm))))
       gen_order_agg_case)
    (fun (fn, basis, rows, perm) ->
      let run scan =
        Plan.execute
          (Plan.Extend_aggregate
             ( { Plan.agg_name = "v"; agg_ty = Value.TFloat; fn;
                 arg = Some (Expr.Col "x"); basis },
               Plan.Scan scan ))
      in
      let want = Relation.to_array (run (Relation.unsafe_of_array agg_schema rows)) in
      let got = in_root_order (run (permuted agg_schema rows perm)) in
      rows_exact got want
      || QCheck.Test.fail_reportf "got %s\nwant %s" (print_rows got)
           (print_rows want))

(* ---------- compiled expressions ---------- *)

let expr_schema =
  Schema.of_list
    [ ("i", Value.TInt); ("f", Value.TFloat); ("s", Value.TString);
      ("d", Value.TDate) ]

let gen_any_value =
  QCheck.Gen.oneofl
    [ Value.Null; Value.Int 0; Value.Int 3; Value.Int (-2); Value.Float 3.0;
      Value.Float 0.5; Value.String "ab"; Value.String "b%"; Value.Date 400;
      Value.Bool true; Value.Bool false ]

let gen_expr : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (4, map (fun c -> Expr.Col c) (oneofl [ "i"; "f"; "s"; "d"; "zz" ]));
        (3, map (fun v -> Expr.Const v) gen_any_value) ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [ (2, leaf);
               (1, map (fun a -> Expr.Neg a) sub);
               ( 2,
                 map3
                   (fun op a b -> Expr.Arith (op, a, b))
                   (oneofl Expr.[ Add; Sub; Mul; Div; Mod ])
                   sub sub );
               (1, map2 (fun a b -> Expr.Concat (a, b)) sub sub);
               ( 2,
                 map3
                   (fun op a b -> Expr.Cmp (op, a, b))
                   (oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ])
                   sub sub );
               (1, map2 (fun a b -> Expr.And (a, b)) sub sub);
               (1, map2 (fun a b -> Expr.Or (a, b)) sub sub);
               (1, map (fun a -> Expr.Not a) sub);
               (1, map (fun a -> Expr.Is_null a) sub);
               (1, map (fun a -> Expr.Like (a, "%b_")) sub);
               ( 1,
                 map (fun a -> Expr.In_list (a, [ Value.Int 3; Value.String "ab" ])) sub );
               (1, map3 (fun a lo hi -> Expr.Between (a, lo, hi)) sub sub sub);
               ( 1,
                 map2
                   (fun g a -> Expr.Fn (g, a))
                   (oneofl
                      Expr.[ Year_of; Month_of; Day_of; Abs; Round; Lower; Upper; Length ])
                   sub );
               ( 1,
                 map3
                   (fun c x d -> Expr.Case ([ (c, x) ], d))
                   sub sub (opt sub) );
               (1, map (fun a -> Expr.Agg (Expr.Sum, Some a)) sub) ])

let compile_matches_eval =
  QCheck.Test.make ~count:2000 ~name:"Expr_eval.compile == eval"
    (QCheck.make
       ~print:(fun (e, _) -> Expr.to_string e)
       QCheck.Gen.(pair gen_expr (array_repeat 4 gen_any_value)))
    (fun (e, row) ->
      let lookup name =
        match Schema.find expr_schema name with
        | Some (i, _) -> Row.get row i
        | None -> raise Not_found
      in
      let compiled = Expr_eval.compile expr_schema e in
      match
        (outcome (fun () -> Expr_eval.eval ~lookup e), outcome (fun () -> compiled row))
      with
      | Ok a, Ok b -> value_exact a b
      | Error a, Error b -> a = b
      | _ -> false)

(* ---------- typed kernels ---------- *)

(* Typed columns of every kind the kernel reads, with nulls: ints
   with zeros (division and modulo by zero) and extremes (wrapping),
   floats with NaN, ±0.0, infinity and magnitudes that round, dates;
   a dictionary-coded string column for CASE conditions and a row
   number. Each column has one constructor, so an image types it
   (an all-null column stays boxed, and nothing over it compiles). *)
let kernel_schema =
  Schema.of_list
    [ ("i", Value.TInt); ("j", Value.TInt); ("f", Value.TFloat);
      ("d", Value.TDate); ("s", Value.TString); ("row", Value.TInt) ]

let gen_kernel_rows =
  let open QCheck.Gen in
  let null_or g = frequency [ (1, return Value.Null); (6, g) ] in
  let ints =
    oneofl [ 0; 1; -1; 2; 3; -7; 1 lsl 40; max_int; min_int ]
  in
  let* n = oneof [ int_range 0 120; int_range 1_030 2_300 ] in
  let* cells =
    array_repeat n
      (let* i = null_or (map (fun x -> Value.Int x) ints) in
       let* j = null_or (map (fun x -> Value.Int x) ints) in
       let* f =
         null_or
           (map
              (fun x -> Value.Float x)
              (oneofl
                 [ 0.0; -0.0; Float.nan; Float.infinity; 1.5; -2.5; 0.1;
                   1e16; 3.0 ]))
       in
       let* d = null_or (map (fun x -> Value.Date x) (oneofl [ 0; 10; 400 ])) in
       let* s = null_or (map (fun x -> Value.String x) (oneofl [ "a"; "b" ])) in
       return (i, j, f, d, s))
  in
  return
    (Array.mapi
       (fun k (i, j, f, d, s) -> [| i; j; f; d; s; Value.Int k |])
       cells)

let gen_kernel_expr : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (5, map (fun c -> Expr.Col c) (oneofl [ "i"; "j"; "f"; "d" ]));
        ( 3,
          map
            (fun v -> Expr.Const v)
            (oneofl
               [ Value.Int 0; Value.Int 2; Value.Int (-3); Value.Int max_int;
                 Value.Float 0.5; Value.Float (-0.0); Value.Float Float.nan;
                 Value.Date 7; Value.Null; Value.String "a" ]) ) ]
  in
  let cond =
    oneofl
      [ Expr.Cmp (Expr.Eq, Expr.Col "s", Expr.Const (Value.String "a"));
        Expr.Cmp (Expr.Gt, Expr.Col "i", Expr.Const (Value.Int 0));
        Expr.Is_null (Expr.Col "f");
        Expr.Or
          ( Expr.Cmp (Expr.Eq, Expr.Col "s", Expr.Const (Value.String "b")),
            Expr.Cmp (Expr.Le, Expr.Col "f", Expr.Col "j") );
        Expr.Like (Expr.Col "i", "1%") ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [ (2, leaf);
               (1, map (fun a -> Expr.Neg a) sub);
               ( 4,
                 map3
                   (fun op a b -> Expr.Arith (op, a, b))
                   (oneofl Expr.[ Add; Sub; Mul; Div; Mod ])
                   sub sub );
               ( 1,
                 map3
                   (fun c x d -> Expr.Case ([ (c, x) ], d))
                   cond sub (opt sub) );
               ( 1,
                 map3
                   (fun (c1, c2) (x, y) d -> Expr.Case ([ (c1, x); (c2, y) ], d))
                   (pair cond cond) (pair sub sub) (opt sub) ) ])

let extend_outcome e r =
  outcome (fun () ->
      let out, path =
        Rel_algebra.extend_path { Schema.name = "v"; ty = Value.TFloat } e r
      in
      ( Array.map (fun row -> row.(Array.length row - 1)) (Relation.to_array out),
        path ))

(* The kernel's cells equal [Expr_eval.eval]'s, bit for bit, over the
   identity vector and over a reversed one, and an expression that
   fails on a row fails the same way (on the row path); whenever the
   kernel compiles over the image columns it is the path that runs. *)
let typed_formula_matches_row_path =
  QCheck.Test.make ~count:600 ~name:"typed formula cells == compile_with cells"
    (QCheck.make
       ~print:(fun (e, rows) ->
         Printf.sprintf "%s over %d rows" (Expr.to_string e) (Array.length rows))
       QCheck.Gen.(pair gen_kernel_expr gen_kernel_rows))
    (fun (e, rows) ->
      let r = Relation.unsafe_of_array kernel_schema rows in
      let column =
        let v = Relation.columnar_view r in
        fun name ->
          Option.map
            (fun (j, _) -> { Col_pred.col = Columnar.column v j; through = None })
            (Schema.find kernel_schema name)
      in
      let compiles = Result.is_ok (Col_expr.compile ~column e) in
      let eval row =
        Expr_eval.eval
          ~lookup:(fun name -> Row.get row (Schema.index_exn kernel_schema name))
          e
      in
      List.for_all
        (fun (order, scan_rows) ->
          match
            ( extend_outcome e (Rel_algebra.sort order r),
              outcome (fun () -> Array.map eval scan_rows) )
          with
          | Ok (got, path), Ok want ->
              (path = `Columnar) = compiles
              && Array.length got = Array.length want
              && (Array.for_all2 value_exact got want
                 || QCheck.Test.fail_reportf "got %s\nwant %s"
                      (String.concat ", "
                         (Array.to_list (Array.map Value.to_string got)))
                      (String.concat ", "
                         (Array.to_list (Array.map Value.to_string want))))
          | Error a, Error b -> (not compiles) && a = b
          | _ -> false)
        [ ([], rows);
          ( [ ("row", `Desc) ],
            Array.init (Array.length rows) (fun k ->
                rows.(Array.length rows - 1 - k)) ) ])

(* Cells for a typed fold: one constructor per column, so the image
   types it — or an int/float mix, which stays [Boxed]. *)
let gen_typed_agg_case =
  let open QCheck.Gen in
  let* fn = oneofl all_funs in
  let* kind =
    match fn with
    | Expr.Sum | Expr.Avg -> oneofl [ `Ints; `Floats; `Mixed ]
    | _ -> oneofl [ `Ints; `Floats; `Dates; `Strings; `Mixed ]
  in
  let cell =
    let null_or g = frequency [ (1, return Value.Null); (4, g) ] in
    match kind with
    | `Ints ->
        null_or
          (map (fun i -> Value.Int i)
             (oneofl [ -4; 0; 3; 3; max_int; max_int - 1; min_int ]))
    | `Floats ->
        (* sums that round differently in another order; NaN rarely,
           since it swallows a whole group's sum *)
        null_or
          (map (fun f -> Value.Float f)
             (frequency
                [ ( 12,
                    oneofl
                      [ 0.1; 0.2; 0.3; 0.7; 1.0; 3.0; 1e16; -1e16; 0.0; -0.0 ] );
                  (1, return Float.nan) ]))
    | `Dates -> null_or (map (fun d -> Value.Date d) (oneofl [ 3; -2; 3; 900 ]))
    | `Strings -> null_or (map (fun s -> Value.String s) (oneofl [ "p"; "q" ]))
    | `Mixed ->
        null_or (oneofl [ Value.Int 3; Value.Float 3.0; Value.Float 0.1; Value.Int 1 ])
  in
  let* basis = oneofl [ []; [ "g" ]; [ "g"; "h" ]; [ "h" ] ] in
  let* n = oneof [ int_range 0 60; int_range 1_500 2_500 ] in
  let* rows =
    array_repeat n
      (let* g = oneofl [ Value.Int 1; Value.Int 2; Value.Null ] in
       let* h = oneofl [ Value.String "u"; Value.String "v"; Value.Null ] in
       let* x = cell in
       return [| g; h; Value.Int 0; x |])
  in
  return (fn, kind, basis, rows)

let next_uid = ref 1_000_000

(* Folds over a typed image column — and over a boxed mixed one — equal
   [apply_agg] per group bit for bit; a typed column folds on the
   columnar path. *)
let typed_folds_match_apply_agg =
  QCheck.Test.make ~count:400
    ~name:"typed folds == apply_agg per group (bit-identical)"
    (QCheck.make
       ~print:(fun (fn, _, basis, rows) ->
         Printf.sprintf "%s over [%s]: %s" (Expr.agg_fun_name fn)
           (String.concat ", " basis)
           (if Array.length rows > 40 then
              Printf.sprintf "%d rows" (Array.length rows)
            else print_rows rows))
       gen_typed_agg_case) (fun (fn, _, basis, rows) ->
      let base = Relation.unsafe_of_array agg_schema rows in
      incr next_uid;
      let uid = !next_uid in
      let plan =
        Plan.Extend_aggregate
          ( { Plan.agg_name = "v"; agg_ty = Value.TFloat; fn;
              arg = Some (Expr.Col "x"); basis },
            Plan.Scan base )
      in
      let out = Relation.to_array (Plan.execute ~uid plan) in
      let positions =
        Array.of_list (List.map (Schema.index_exn agg_schema) basis)
      in
      (* each row's group, keyed on the rendering of its basis cells *)
      let members = Hashtbl.create 16 in
      let key row =
        Array.to_list (Array.map Value.to_string (Row.project_arr row positions))
      in
      Array.iter
        (fun row ->
          Hashtbl.replace members (key row)
            (row.(3) :: Option.value ~default:[] (Hashtbl.find_opt members (key row))))
        rows;
      let wants = Hashtbl.create 16 in
      Hashtbl.iter
        (fun k cells -> Hashtbl.replace wants k (Oracle.apply_agg fn (List.rev cells)))
        members;
      (* what the image made of the argument column decides the fold *)
      let kind =
        Column.kind_name (Columnar.column (Relation.columnar_view base) 3)
      in
      let typed =
        match (fn, kind) with
        | Expr.Count_star, _ -> true
        | _, "boxed" -> false
        | Expr.Count, _ -> true
        | (Expr.Sum | Expr.Avg), ("int" | "float") -> true
        | (Expr.Min | Expr.Max), ("int" | "float" | "date") -> true
        | _ -> false
      in
      let path =
        match Obs.Profile.find ~uid with
        | Some p -> (
            match List.rev p.Obs.Profile.p_nodes with
            | n :: _ -> n.Obs.Profile.n_path
            | [] -> "")
        | None -> ""
      in
      (rows = [||] || path = if typed then "columnar" else "row")
      && Array.for_all
           (fun i ->
             let want = Hashtbl.find wants (key rows.(i)) in
             let got = out.(i).(4) in
             value_exact got want
             || QCheck.Test.fail_reportf "%s row %d: got %s, want %s (path %s)"
                  (Expr.agg_fun_name fn) i (Value.to_string got)
                  (Value.to_string want) path)
           (Array.init (Array.length rows) Fun.id)
      || QCheck.Test.fail_reportf "path %s, typed %b" path typed)

(* The grouping an aggregate column carries. *)
let grouping_of r name =
  let b = Relation.batch r in
  match b.Relation.cols.(Schema.index_exn (Relation.schema r) name) with
  | Relation.Broadcast { grouping; _ } -> grouping
  | _ -> Alcotest.failf "%s is not an aggregate column" name

(* Two aggregates of one level over one vector share one grouping,
   also across a filter, which gathers it with the vector; over
   another basis each ranks its own. *)
let test_aggregates_share_grouping () =
  let base = Sample_cars.scaled ~rows:2_000 ~seed:6 in
  let agg name fn col basis child =
    Plan.Extend_aggregate
      ( { Plan.agg_name = name; agg_ty = Value.TFloat; fn;
          arg = Some (Expr.Col col); basis },
        child )
  in
  let same =
    Plan.execute
      (agg "b" Expr.Max "Mileage" [ "Model"; "Year" ]
         (agg "a" Expr.Sum "Price" [ "Model"; "Year" ] (Plan.Scan base)))
  in
  let a = grouping_of same "a" and b = grouping_of same "b" in
  Alcotest.(check bool) "one level, one vector: one group array" true
    (a.Relation.group == b.Relation.group && a.Relation.groups = b.Relation.groups);
  let basis =
    Plan.execute
      (agg "b" Expr.Max "Mileage" [ "Model" ]
         (agg "a" Expr.Sum "Price" [ "Model"; "Year" ] (Plan.Scan base)))
  in
  Alcotest.(check bool) "another basis: its own group array" false
    ((grouping_of basis "a").Relation.group == (grouping_of basis "b").Relation.group);
  let vector =
    Plan.execute
      (agg "b" Expr.Max "Mileage" [ "Model"; "Year" ]
         (Plan.Filter
            ( Expr_parse.parse_string_exn "Price > 12000",
              agg "a" Expr.Sum "Price" [ "Model"; "Year" ] (Plan.Scan base) )))
  in
  (* the filter gathers the grouping with the vector it narrows, so
     the second aggregate, over that vector, reuses it *)
  let a = grouping_of vector "a" and b = grouping_of vector "b" in
  let sel = (Relation.batch vector).Relation.sel in
  Alcotest.(check bool) "a narrowed vector: the grouping gathered with it" true
    (a.Relation.group == b.Relation.group);
  Alcotest.(check bool) "over the narrowed vector, one id per position" true
    (a.Relation.over == sel && Array.length a.Relation.group = Array.length sel)

(* ---------- the empty plan ---------- *)

let test_empty_plan_returns_scan () =
  let r = Sample_cars.scaled ~rows:300 ~seed:3 in
  Alcotest.(check bool) "physically the scanned relation" true
    (Plan.execute (Plan.Scan r) == r)

(* A new session's first selection over a fresh base filters through
   the columnar image that very scan builds. *)
let test_first_select_compiles () =
  let base = Sample_cars.scaled ~rows:1_000 ~seed:4 in
  let select session pred =
    match Session.apply session (Op.Select (Expr_parse.parse_string_exn pred)) with
    | Ok s -> s
    | Error e -> Alcotest.failf "refused: %s" (Errors.to_string e)
  in
  Materialize.reset_cache ();
  let in0 = Obs.Metrics.value_of Obs.k_col_sel_rows_in in
  let s = select (Session.create ~name:"first" base) "Price < 20000" in
  Alcotest.(check int) "columnar scan of the whole base" 1_000
    (Obs.Metrics.value_of Obs.k_col_sel_rows_in - in0);
  match Obs.Profile.find ~uid:(Session.current s).Spreadsheet.uid with
  | None -> Alcotest.fail "no profile recorded"
  | Some p ->
      Alcotest.(check (list string)) "the selection compiled"
        [ "Price < 20000" ] p.Obs.Profile.p_compiled;
      Alcotest.(check int) "no fallback" 0 (List.length p.Obs.Profile.p_fallbacks)

(* ---------- batch-backed relations ---------- *)

let apply_all session ops =
  List.fold_left
    (fun session op ->
      match Session.apply session op with
      | Ok s -> s
      | Error e -> Alcotest.failf "refused: %s" (Errors.to_string e))
    session ops

let parse = Expr_parse.parse_string_exn

(* A sorted, filtered, extended sheet of 60k rows: its cached
   materialization is batch-backed. *)
let big_session () =
  Materialize.reset_cache ();
  apply_all
    (Session.create ~name:"big" (Sample_cars.scaled ~rows:60_000 ~seed:5))
    [ Op.Select (parse "Price > 9000");
      Op.Formula { name = Some "twice"; expr = parse "Price * 2" };
      Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
      Op.Aggregate
        { fn = Expr.Avg; col = Some "Mileage"; level = 1; as_name = Some "avg_m" };
      Op.Order { attr = "Year"; dir = Grouping.Desc; level = 1 } ]

let test_relation_access () =
  let sheet = Session.current (big_session ()) in
  let r = Materialize.full_cached sheet in
  let n = Relation.cardinality r in
  Alcotest.(check bool) "cardinality builds no row" false (Relation.rows_built r);
  let probes = [ 0; 1; n / 2; n - 1 ] in
  let got = List.map (Relation.get r) probes in
  Alcotest.(check bool) "get builds no row" false (Relation.rows_built r);
  let all = Relation.to_array r in
  Alcotest.(check int) "to_array has every row" n (Array.length all);
  Alcotest.(check bool) "get i = (to_array r).(i)" true
    (List.for_all2 (fun i row -> Row.equal row all.(i)) probes got);
  Alcotest.(check bool) "to_array is memoized" true (Relation.to_array r == all);
  Alcotest.(check bool) "rows are the same rows" true
    (List.for_all2 ( == ) (Relation.rows r) (Array.to_list all))

(* [print 20] over a big sheet reads its window, not the sheet. *)
let test_page_reads_window () =
  let sheet = Session.current (big_session ()) in
  let full = Materialize.full_cached sheet in
  ignore (Render.page ~limit:20 sheet);
  let w0 = Gc.minor_words () in
  let p = Render.page ~offset:1000 ~limit:20 sheet in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "a 20-row window" 20 (Array.length p.Render.rows);
  Alcotest.(check bool)
    (Printf.sprintf "window allocation bounded (%.0f words)" words)
    true (words < 20_000.);
  Alcotest.(check bool) "the sheet's rows stay unbuilt" false
    (Relation.rows_built full);
  Alcotest.(check bool) "window rows = the sheet's" true
    (Array.for_all2 Row.equal p.Render.rows
       (Array.sub
          (Relation.to_array (Materialize.visible sheet))
          1000 20))

(* ---------- positional columns ----------

   A batch's computed columns and group arrays hold one cell per
   position of its selection vector, so every operator that makes a
   new vector gathers them. Random chains of narrowing (bands, on base,
   formula and aggregate columns), sorts (both directions, with ties),
   duplicate elimination, typed and boxed formulas and two aggregates
   sharing one grouping run over a small relation with nulls, NaN and
   both zeros: the plan's rows equal the oracle's, bit for bit, every
   intermediate batch's positional arrays are exactly as long as its
   vector, and one materialized parent feeds two children — one
   narrowed, one re-sorted — that both read their own cells while the
   parent's stay as they were. *)

let chain_schema =
  Schema.of_list
    [ ("k", Value.TInt); ("s", Value.TString); ("f", Value.TFloat);
      ("i", Value.TInt); ("n", Value.TInt); ("row", Value.TInt) ]

let gen_chain_rows =
  let open QCheck.Gen in
  let null_or g = frequency [ (1, return Value.Null); (5, g) ] in
  (* past 256 rows, a formula runs in more than one chunk *)
  let* count = oneof [ int_range 0 60; int_range 250 600 ] in
  let* rows =
    array_repeat count
      (let* k = null_or (map (fun x -> Value.Int x) (int_range 0 3)) in
       let* s = null_or (map (fun x -> Value.String x) (oneofl [ "a"; "b"; "c" ])) in
       let* f =
         null_or
           (map (fun x -> Value.Float x)
              (oneofl [ 0.0; -0.0; 1.5; -2.25; 3.0; Float.nan; 1e300 ]))
       in
       let* i = null_or (map (fun x -> Value.Int x) (int_range (-50) 50)) in
       let* n = int_range 0 99 in
       return [| k; s; f; i; Value.Int n |])
  in
  return (Array.mapi (fun j r -> Array.append r [| Value.Int j |]) rows)

(* One step of a chain; names are resolved against the columns the
   chain has made so far. *)
type step =
  | Band of int * int  (* n in [lo, lo + width) *)
  | Float_band of float
  | Typed of int  (* a typed formula *)
  | Boxed of int  (* a formula of Int and Float cells *)
  | Group of string * Grouping.dir
  | Two_aggs of int
  | Order of int * Grouping.dir  (* among k, f, i and the formulas *)
  | Select_made of int * int  (* on a formula or aggregate made so far *)
  | Dedup

let gen_step =
  let open QCheck.Gen in
  let dir = oneofl [ Grouping.Asc; Grouping.Desc ] in
  frequency
    [ (3, map2 (fun lo w -> Band (lo, w)) (int_range 0 90) (int_range 1 40));
      (1, map (fun x -> Float_band x) (oneofl [ -1.0; 0.0; 1.5 ]));
      (3, map (fun x -> Typed x) (int_range 0 5));
      (2, map (fun x -> Boxed x) (int_range 10 90));
      (2, map2 (fun c d -> Group (c, d)) (oneofl [ "k"; "s" ]) dir);
      (2, map (fun x -> Two_aggs x) (int_range 0 3));
      (3, map2 (fun x d -> Order (x, d)) (int_range 0 9) dir);
      (2, map2 (fun x v -> Select_made (x, v)) (int_range 0 9) (int_range (-5) 60));
      (1, return Dedup) ]

let typed_formulas =
  [| "i * 0.5 + n"; "n / k"; "n - i"; "f * 2.0"; "n % 7"; "-f" |]

(* The ops of a chain of steps: each formula or aggregate gets a fresh
   name, and later steps refer to the ones made before them. *)
let chain_ops steps =
  let made = ref [] and ops = ref [] and fresh = ref 0 and grouped = ref false in
  (* level 1 is the whole sheet; a grouping adds level 2 *)
  let level () = if !grouped then 2 else 1 in
  let name prefix =
    incr fresh;
    Printf.sprintf "%s%d" prefix !fresh
  in
  let push op = ops := op :: !ops in
  let pick x = match !made with [] -> None | l -> Some (List.nth l (x mod List.length l)) in
  List.iter
    (function
      | Band (lo, w) ->
          push (Op.Select (parse (Printf.sprintf "n >= %d AND n < %d" lo (lo + w))))
      | Float_band x ->
          push (Op.Select (parse (Printf.sprintf "f >= %g AND f < %g" x (x +. 2.))))
      | Typed x ->
          let nm = name "t" in
          push (Op.Formula { name = Some nm; expr = parse typed_formulas.(x) });
          made := nm :: !made
      | Boxed v ->
          let nm = name "b" in
          push
            (Op.Formula
               { name = Some nm;
                 expr =
                   parse
                     (Printf.sprintf
                        "CASE WHEN n > %d THEN n %% 3 ELSE (n %% 3) * 1.0 END" v) });
          made := nm :: !made
      | Group (c, dir) ->
          push (Op.Group { basis = [ c ]; dir });
          grouped := true
      | Two_aggs x ->
          let fns = [| (Expr.Sum, "f"); (Expr.Max, "i"); (Expr.Avg, "n"); (Expr.Min, "f") |] in
          List.iter
            (fun (fn, col) ->
              let nm = name "a" in
              push
                (Op.Aggregate { fn; col = Some col; level = level (); as_name = Some nm });
              made := nm :: !made)
            [ fns.(x); fns.((x + 1) mod 4) ]
      | Order (x, dir) ->
          let attr =
            if x < 3 then [| "k"; "f"; "i" |].(x)
            else Option.value ~default:"k" (pick x)
          in
          push (Op.Order { attr; dir; level = level () })
      | Select_made (x, v) -> (
          match pick x with
          | Some nm -> push (Op.Select (parse (Printf.sprintf "%s >= %d" nm v)))
          | None -> ())
      | Dedup ->
          List.iter (fun c -> push (Op.Project c)) [ "row"; "s" ];
          push Op.Dedup)
    steps;
  List.rev !ops

(* Every computed column and group array of [r]'s batch as long as its
   vector, and each grouping over that very vector. *)
let positional_ok r =
  let b = Relation.batch r in
  let n = Array.length b.Relation.sel in
  let rec col = function
    | Relation.Base _ -> true
    | Relation.Computed c -> Column.length c = n
    | Relation.Broadcast { grouping = g; _ } ->
        g.Relation.over == b.Relation.sel
        && Array.length g.Relation.group = n
        && Array.for_all col g.Relation.keys
  in
  Array.for_all col b.Relation.cols

let rec plan_prefixes = function
  | Plan.Scan _ -> []
  | ( Plan.Project (_, c) | Plan.Filter (_, c) | Plan.Distinct_on (_, c)
    | Plan.Extend_formula (_, c) | Plan.Extend_aggregate (_, c) | Plan.Sort (_, c) )
    as node ->
      node :: plan_prefixes c

let positional_chains_match_oracle =
  QCheck.Test.make ~count:300
    ~name:"positional columns: chains == oracle, arrays as long as vectors"
    (QCheck.make
       ~print:(fun (rows, steps) ->
         Printf.sprintf "%d rows: %s" (Array.length rows)
           (String.concat "; " (List.map Op.describe (chain_ops steps))))
       QCheck.Gen.(pair gen_chain_rows (list_size (int_range 1 8) gen_step)))
    (fun (rows, steps) ->
      Materialize.reset_cache ();
      let session =
        List.fold_left
          (fun s op -> match Session.apply s op with Ok s -> s | Error _ -> s)
          (Session.create ~name:"chain" (Relation.make chain_schema (Array.to_list rows)))
          (chain_ops steps)
      in
      let sheet = Session.current session in
      let expected = Relation.to_array (Oracle.materialize sheet) in
      let plan = Plan.of_sheet sheet in
      let got = Plan.execute plan in
      let short =
        List.find_opt (fun node -> not (positional_ok (Plan.execute node)))
          (plan_prefixes plan)
      in
      (* one cached parent, two children: narrowed and re-sorted *)
      let parent = Materialize.full_cached sheet in
      let schema = Relation.schema parent in
      let fresh () = Relation.to_array (Relation.of_batch schema (Relation.batch parent)) in
      let before = fresh () in
      let row_at = Schema.index_exn schema "row" in
      let row_of r = match r.(row_at) with Value.Int j -> j | _ -> -1 in
      let cut = Array.length rows / 2 in
      let narrowed =
        Plan.execute
          (Plan.Filter (parse (Printf.sprintf "row < %d" cut), Plan.Scan parent))
      in
      let resorted = Plan.execute (Plan.Sort ([ ("row", `Desc) ], Plan.Scan parent)) in
      let by_row_desc =
        let a = Array.copy before in
        Array.stable_sort (fun x y -> Int.compare (row_of y) (row_of x)) a;
        a
      in
      let children_ok =
        rows_exact (Relation.to_array narrowed)
          (Array.of_list (List.filter (fun r -> row_of r < cut) (Array.to_list before)))
        && rows_exact (Relation.to_array resorted) by_row_desc
        && positional_ok narrowed && positional_ok resorted
        && rows_exact (fresh ()) before
      in
      (rows_exact (Relation.to_array got) expected
      || QCheck.Test.fail_reportf "plan rows %s, oracle rows %s"
           (print_rows (Relation.to_array got)) (print_rows expected))
      && (short = None
         || QCheck.Test.fail_reportf "a batch's positional arrays are not as long as its vector after %s"
              (Plan.explain (Option.get short)))
      && (children_ok || QCheck.Test.fail_reportf "a child of the cached parent read wrong cells"))

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "sheet_colexec"
    [ ( "sort",
        [ q sort_matches_reference; q group_ids_follow_key_order;
          q image_ranks_equal_hashing; q float_ranks_equal_hashing;
          Alcotest.test_case "skewed float column" `Quick
            test_skewed_float_ranks;
          q or_filter_after_sort ] );
      ("distinct", [ q distinct_matches_row_tbl ]);
      ( "ordering",
        [ q sort_ignores_vector_order; q distinct_ignores_vector_order;
          q aggregate_ignores_vector_order ] );
      ( "batch",
        [ Alcotest.test_case "relation access" `Quick test_relation_access;
          Alcotest.test_case "page reads its window" `Quick
            test_page_reads_window ] );
      ( "aggregate",
        [ q aggregate_matches_apply_agg;
          Alcotest.test_case "error order" `Quick test_aggregate_error_order;
          q typed_folds_match_apply_agg; q having_matches_row_path;
          Alcotest.test_case "one grouping per level" `Quick
            test_aggregates_share_grouping ] );
      ("compile", [ q compile_matches_eval; q typed_formula_matches_row_path ]);
      ("positional", [ q positional_chains_match_oracle ]);
      ( "empty plan",
        [ Alcotest.test_case "returns its scan" `Quick test_empty_plan_returns_scan;
          Alcotest.test_case "first select compiles" `Quick
            test_first_select_compiles ] ) ]
