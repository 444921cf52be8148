(* Compile predicates to selection-vector filters over typed columns.

   A compiled filter [f sel k] takes the first [k] entries of [sel]
   (distinct row indices in any order — a sorted batch's selection
   vector is not ascending), keeps the surviving indices in place, in
   their order, and returns the new count. Compilation is deliberately PARTIAL: only
   subtrees whose row evaluation is total (cannot raise) are
   compiled, so the columnar path can never diverge from the row
   path on error identity — anything else returns [None] and the
   caller falls back to [Expr_eval]. The compiled leaves replicate
   [Expr_eval]'s two-valued NULL semantics exactly:

   - [Cmp] goes through [Value.sql_compare]: NULL or incomparable
     types compare to false. Numeric cross-type comparisons use
     [Float.compare] (NaN-exact, like [Value.compare]).
   - [Between a lo hi] = [a >= lo AND a <= hi] (both bounds always
     evaluate to a total comparison, so the conjunction is
     equivalent).
   - [In_list]/[Like]/[Is_null] on NULL are false.
   - [And]/[Or] short-circuit; compiled operands are pure, so
     sequential filter composition is equivalent.
   - [Like] compiles only against dictionary-coded string columns
     (on any other typed column the row path raises for non-null
     values, so those stay on the row path).

   String predicates evaluate once per DICTIONARY ENTRY into a
   per-code keep table, then test one array load per row. *)

type filter = int array -> int -> int

let keep_none : filter = fun _ _ -> 0
let keep_all : filter = fun _ k -> k

let keep_if (test : int -> bool) : filter =
 fun sel k ->
  let out = ref 0 in
  for i = 0 to k - 1 do
    let idx = Array.unsafe_get sel i in
    if test idx then begin
      Array.unsafe_set sel !out idx;
      incr out
    end
  done;
  !out

(* Guard a test with a column's validity bitmap (NULL fails every
   compiled leaf except IS NULL). *)
let masked (validity : Bytes.t option) test =
  match validity with
  | None -> test
  | Some b -> fun i -> Column.valid_bit b i && test i

let masked2 va vb test =
  match (va, vb) with
  | None, None -> test
  | Some a, None -> fun i -> Column.valid_bit a i && test i
  | None, Some b -> fun i -> Column.valid_bit b i && test i
  | Some a, Some b ->
      fun i -> Column.valid_bit a i && Column.valid_bit b i && test i

let cmp_test (op : Expr.cmp) : int -> bool =
  match op with
  | Expr.Eq -> fun c -> c = 0
  | Expr.Ne -> fun c -> c <> 0
  | Expr.Lt -> fun c -> c < 0
  | Expr.Le -> fun c -> c <= 0
  | Expr.Gt -> fun c -> c > 0
  | Expr.Ge -> fun c -> c >= 0

let flip_cmp : Expr.cmp -> Expr.cmp = function
  | Expr.Eq -> Expr.Eq
  | Expr.Ne -> Expr.Ne
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

(* column OP constant — mirrors [Value.sql_compare (get col i) v]. *)
let compile_cmp_const op (col : Column.t) (v : Value.t) : filter option =
  let ok = cmp_test op in
  let mask test = Some (keep_if (masked col.Column.validity test)) in
  match (col.Column.repr, v) with
  | Column.Boxed _, _ -> None
  | _, Value.Null -> Some keep_none
  | Column.Ints d, Value.Int k ->
      mask (fun i -> ok (Int.compare (Array.unsafe_get d i) k))
  | Column.Ints d, Value.Float f ->
      mask (fun i ->
          ok (Float.compare (float_of_int (Array.unsafe_get d i)) f))
  | Column.Floats d, Value.Int k ->
      let kf = float_of_int k in
      mask (fun i -> ok (Float.compare (Array.unsafe_get d i) kf))
  | Column.Floats d, Value.Float f ->
      mask (fun i -> ok (Float.compare (Array.unsafe_get d i) f))
  | Column.Dates d, Value.Date k ->
      mask (fun i -> ok (Int.compare (Array.unsafe_get d i) k))
  | Column.Bools d, Value.Bool b ->
      mask (fun i -> ok (Bool.compare (Array.unsafe_get d i) b))
  | Column.Strings { codes; dict }, Value.String s ->
      let keep = Array.map (fun e -> ok (String.compare e s)) dict in
      mask (fun i ->
          Array.unsafe_get keep (Array.unsafe_get codes i))
  | (Column.Ints _ | Column.Floats _ | Column.Dates _ | Column.Bools _
    | Column.Strings _), _ ->
      (* incomparable types: sql_compare = None = false on every row *)
      Some keep_none

(* column OP column. *)
let compile_cmp_cols op (a : Column.t) (b : Column.t) : filter option =
  let ok = cmp_test op in
  let mask test =
    Some (keep_if (masked2 a.Column.validity b.Column.validity test))
  in
  match (a.Column.repr, b.Column.repr) with
  | Column.Boxed _, _ | _, Column.Boxed _ -> None
  | Column.Ints da, Column.Ints db ->
      mask (fun i ->
          ok (Int.compare (Array.unsafe_get da i) (Array.unsafe_get db i)))
  | Column.Ints da, Column.Floats db ->
      mask (fun i ->
          ok
            (Float.compare
               (float_of_int (Array.unsafe_get da i))
               (Array.unsafe_get db i)))
  | Column.Floats da, Column.Ints db ->
      mask (fun i ->
          ok
            (Float.compare (Array.unsafe_get da i)
               (float_of_int (Array.unsafe_get db i))))
  | Column.Floats da, Column.Floats db ->
      mask (fun i ->
          ok (Float.compare (Array.unsafe_get da i) (Array.unsafe_get db i)))
  | Column.Dates da, Column.Dates db ->
      mask (fun i ->
          ok (Int.compare (Array.unsafe_get da i) (Array.unsafe_get db i)))
  | Column.Bools da, Column.Bools db ->
      mask (fun i ->
          ok (Bool.compare (Array.unsafe_get da i) (Array.unsafe_get db i)))
  | Column.Strings sa, Column.Strings sb ->
      mask (fun i ->
          ok
            (String.compare
               sa.dict.(sa.codes.(i))
               sb.dict.(sb.codes.(i))))
  | _ ->
      (* incomparable column types: false on every (non-null) row,
         and false on null rows too *)
      Some keep_none

let compile_in_list (col : Column.t) (vs : Value.t list) : filter option =
  let mask test = Some (keep_if (masked col.Column.validity test)) in
  match col.Column.repr with
  | Column.Boxed _ -> None
  | Column.Ints d ->
      mask (fun i ->
          let x = Array.unsafe_get d i in
          List.exists
            (function
              | Value.Int k -> k = x
              | Value.Float f -> Float.compare (float_of_int x) f = 0
              | _ -> false)
            vs)
  | Column.Floats d ->
      mask (fun i ->
          let x = Array.unsafe_get d i in
          List.exists
            (function
              | Value.Float f -> Float.compare x f = 0
              | Value.Int k -> Float.compare x (float_of_int k) = 0
              | _ -> false)
            vs)
  | Column.Dates d ->
      mask (fun i ->
          let x = Array.unsafe_get d i in
          List.exists (function Value.Date k -> k = x | _ -> false) vs)
  | Column.Bools d ->
      mask (fun i ->
          let x = Array.unsafe_get d i in
          List.exists (function Value.Bool b -> b = x | _ -> false) vs)
  | Column.Strings { codes; dict } ->
      let keep =
        Array.map
          (fun e -> List.exists (Value.equal (Value.String e)) vs)
          dict
      in
      mask (fun i -> Array.unsafe_get keep (Array.unsafe_get codes i))

(* AND: survivors of [fa] feed [fb]. Compiled filters are pure and
   total, so sequential composition matches short-circuit row
   evaluation. *)
let and_filter fa fb : filter = fun sel k -> fb sel (fa sel k)

(* OR: run [fa], recover the rejected candidates (both sequences are
   subsequences of the input, in its order), run [fb] on those, and
   merge the two disjoint survivor sets back in input order: walking
   the input, each index is the next survivor of one side or of
   neither. Comparing index values instead would reorder a vector
   that is not ascending. *)
let or_filter fa fb : filter =
 fun sel k ->
  let orig = Array.sub sel 0 k in
  let na = fa sel k in
  let rest = Array.make (max 1 (k - na)) 0 in
  let nr = ref 0 in
  let j = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get orig i in
    if !j < na && Array.unsafe_get sel !j = v then incr j
    else begin
      Array.unsafe_set rest !nr v;
      incr nr
    end
  done;
  let nb = fb rest !nr in
  let survivors_a = Array.sub sel 0 na in
  let ia = ref 0 and ib = ref 0 and m = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get orig i in
    if !ia < na && Array.unsafe_get survivors_a !ia = v then begin
      Array.unsafe_set sel !m v;
      incr ia;
      incr m
    end
    else if !ib < nb && Array.unsafe_get rest !ib = v then begin
      Array.unsafe_set sel !m v;
      incr ib;
      incr m
    end
  done;
  !m

(* NOT: complement of the survivors within the candidate set, in
   input order. *)
let not_filter fa : filter =
 fun sel k ->
  let orig = Array.sub sel 0 k in
  let na = fa sel k in
  let survivors = Array.sub sel 0 na in
  let out = ref 0 in
  let j = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get orig i in
    if !j < na && Array.unsafe_get survivors !j = v then incr j
    else begin
      Array.unsafe_set sel !out v;
      incr out
    end
  done;
  !out

(* The filter for [e], or the smallest subtree that blocks compiling
   it — the non-total (or boxed-column) part the profiler's path
   attribution reports. A connective blocks on its first blocked
   operand, so the blocker is always a genuine leaf, not an enclosing
   conjunction. *)
let rec compile ~column:col_of (e : Expr.t) : (filter, Expr.t) result =
  let compile = compile ~column:col_of in
  let leaf = function Some f -> Ok f | None -> Error e in
  match e with
  | Expr.Const (Value.Bool true) -> Ok keep_all
  | Expr.Const (Value.Bool false) | Expr.Const Value.Null -> Ok keep_none
  | Expr.Const _ -> Error e (* truthy raises on non-bool *)
  | Expr.And (a, b) ->
      Result.bind (compile a) (fun fa ->
          Result.map (fun fb -> and_filter fa fb) (compile b))
  | Expr.Or (a, b) ->
      Result.bind (compile a) (fun fa ->
          Result.map (fun fb -> or_filter fa fb) (compile b))
  | Expr.Not a -> Result.map not_filter (compile a)
  | Expr.Cmp (op, Expr.Col a, Expr.Const v) ->
      leaf (Option.bind (col_of a) (fun c -> compile_cmp_const op c v))
  | Expr.Cmp (op, Expr.Const v, Expr.Col a) ->
      leaf
        (Option.bind (col_of a) (fun c -> compile_cmp_const (flip_cmp op) c v))
  | Expr.Cmp (op, Expr.Col a, Expr.Col b) ->
      leaf
        (Option.bind (col_of a) (fun ca ->
             Option.bind (col_of b) (fun cb -> compile_cmp_cols op ca cb)))
  | Expr.Cmp (op, Expr.Const u, Expr.Const v) -> (
      (* constant comparison: total, fold it now *)
      match Value.sql_compare u v with
      | None -> Ok keep_none
      | Some c -> Ok (if cmp_test op c then keep_all else keep_none))
  | Expr.Between (a, lo, hi) ->
      (* a BETWEEN lo AND hi = a >= lo AND a <= hi: both comparisons
         are total once compiled, so the conjunction is equivalent to
         the simultaneous form. *)
      compile
        (Expr.And (Expr.Cmp (Expr.Ge, a, lo), Expr.Cmp (Expr.Le, a, hi)))
  | Expr.In_list (Expr.Col a, vs) ->
      leaf (Option.bind (col_of a) (fun c -> compile_in_list c vs))
  | Expr.Is_null (Expr.Col a) ->
      leaf
        (Option.bind (col_of a) (fun c ->
             match c.Column.repr with
             | Column.Boxed _ -> None
             | _ -> (
                 match c.Column.validity with
                 | None -> Some keep_none
                 | Some b ->
                     Some (keep_if (fun i -> not (Column.valid_bit b i))))))
  | Expr.Like (Expr.Col a, pattern) ->
      leaf
        (Option.bind (col_of a) (fun c ->
             match c.Column.repr with
             | Column.Strings { codes; dict } ->
                 let keep =
                   Array.map (fun e -> Expr_eval.like_match ~pattern e) dict
                 in
                 Some
                   (keep_if
                      (masked c.Column.validity (fun i ->
                           Array.unsafe_get keep (Array.unsafe_get codes i))))
             | _ ->
                 (* the row path raises on non-string values: not total *)
                 None))
  | _ -> Error e
