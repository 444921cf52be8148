(* Compile predicates to selection-vector filters over typed columns.

   A compiled filter [f src k dst] reads the candidates [src.(0)] ..
   [src.(k - 1)] (distinct row handles in any order), writes the
   survivors to [dst] from index 0, in their order, and returns their
   count. It writes nothing else: [src] is never written unless it is
   [dst] itself, and survivors never overtake the candidate being
   read, so a filter may run in place. A caller runs the first filter
   of a chain from a (possibly shared) vector into another, and every
   later one in place on that. A column is read at a handle directly,
   or through a vector ([source.through]): a batch's handle is a
   position in its selection vector, which its computed columns are
   indexed by and its base columns are read through.

   Compilation is deliberately PARTIAL: only subtrees whose row
   evaluation is total (cannot raise) are compiled, so the columnar
   path can never diverge from the row path on error identity —
   anything else returns [Error] and the caller falls back to
   [Expr_eval]. The compiled leaves replicate [Expr_eval]'s two-valued
   NULL semantics exactly:

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

   Every leaf is one loop over the candidates with its test written
   out, a validity bitmap tested in the same loop: no closure is
   called per row. An int or date column compared with a constant is
   an inclusive range of ints, and a float column's is a range of
   floats in [Float.compare] order (NaN below every number), so the
   ranges a conjunction puts on one column intersect into one loop —
   a band ([a >= lo AND a < hi], [BETWEEN]) is one pass. String
   predicates evaluate once per DICTIONARY ENTRY into a per-code keep
   table, then test one array load per row. *)

type filter = int array -> int -> int array -> int

type source = { col : Column.t; through : int array option }

let keep_none : filter = fun _ _ _ -> 0

let keep_all : filter =
 fun src k dst ->
  if src != dst then
    for i = 0 to k - 1 do
      Array.unsafe_set dst i (Array.unsafe_get src i)
    done;
  k

let[@inline] valid validity id =
  match validity with
  | None -> true
  | Some b ->
      Char.code (Bytes.unsafe_get b (id lsr 3)) land (1 lsl (id land 7)) <> 0

(* ---------- the leaf loops ----------

   A candidate is a row handle [p]; a column's cell for it is at [p],
   or at [through.(p)] for a column read through a vector. Each hot
   leaf has its loop written out for both, so that neither pays a
   test per row for the other. A hot loop writes every candidate at
   the survivor count and advances the count by the test's outcome:
   no branch depends on a cell, which a band keeping about half the
   rows would mispredict at every other row. The write never
   overtakes the read ([out <= i]), so a filter still runs in
   place. *)

let[@inline] at through p =
  match through with None -> p | Some s -> Array.unsafe_get s p

let[@inline] int_in (a : int array) validity ~lo ~width ~inside id =
  valid validity id
  && ((Array.unsafe_get a id - lo) lxor min_int <= width) = inside

(* [lo <= x <= hi] (or its complement, [inside] false), as one
   unsigned comparison: [x - lo] wraps into [0, hi - lo] exactly for
   the [x] in range, and flipping the sign bit turns the unsigned
   order into the signed one. Needs [lo <= hi]. *)
let int_range (a : int array) validity through ~lo ~hi ~inside : filter =
  let width = (hi - lo) lxor min_int in
  match through with
  | None ->
      fun src k dst ->
        let out = ref 0 in
        for i = 0 to k - 1 do
          let p = Array.unsafe_get src i in
          Array.unsafe_set dst !out p;
          out := !out + Bool.to_int (int_in a validity ~lo ~width ~inside p)
        done;
        !out
  | Some s ->
      fun src k dst ->
        let out = ref 0 in
        for i = 0 to k - 1 do
          let p = Array.unsafe_get src i in
          Array.unsafe_set dst !out p;
          out := !out + Bool.to_int (int_in a validity ~lo ~width ~inside (Array.unsafe_get s p))
        done;
        !out

(* [(lo <= x <= hi || (nan && x is NaN)) = inside], with no branch on
   the cell *)
let[@inline] float_in (a : float array) validity ~lo ~hi ~nan ~inside id =
  valid validity id
  &&
  let x = Array.unsafe_get a id in
  Bool.to_int (x >= lo) land Bool.to_int (x <= hi)
  lor (Bool.to_int nan land Bool.to_int (x <> x))
  = Bool.to_int inside

(* [lo <= x <= hi], or [x] NaN when [nan] (or the complement of that,
   [inside] false); [-0.] and [0.] are one value, as in
   [Float.compare]. *)
let float_range (a : float array) validity through ~lo ~hi ~nan ~inside :
    filter =
  match through with
  | None ->
      fun src k dst ->
        let out = ref 0 in
        for i = 0 to k - 1 do
          let p = Array.unsafe_get src i in
          Array.unsafe_set dst !out p;
          out := !out + Bool.to_int (float_in a validity ~lo ~hi ~nan ~inside p)
        done;
        !out
  | Some s ->
      fun src k dst ->
        let out = ref 0 in
        for i = 0 to k - 1 do
          let p = Array.unsafe_get src i in
          Array.unsafe_set dst !out p;
          out :=
            !out
            + Bool.to_int
                (float_in a validity ~lo ~hi ~nan ~inside (Array.unsafe_get s p))
        done;
        !out

let[@inline] code_in (codes : int array) validity (keep : bool array) id =
  valid validity id && Array.unsafe_get keep (Array.unsafe_get codes id)

(* [keep.(code)] of each row's dictionary code. *)
let code_table (codes : int array) validity through (keep : bool array) :
    filter =
  match through with
  | None ->
      fun src k dst ->
        let out = ref 0 in
        for i = 0 to k - 1 do
          let p = Array.unsafe_get src i in
          Array.unsafe_set dst !out p;
          out := !out + Bool.to_int (code_in codes validity keep p)
        done;
        !out
  | Some s ->
      fun src k dst ->
        let out = ref 0 in
        for i = 0 to k - 1 do
          let p = Array.unsafe_get src i in
          Array.unsafe_set dst !out p;
          out := !out + Bool.to_int (code_in codes validity keep (Array.unsafe_get s p))
        done;
        !out

(* ---------- the comparisons, and the rarer leaves ---------- *)

type cmp_sign = { lt : bool; eq : bool; gt : bool }

(* Which outcomes of a comparison [op] accepts. *)
let accepts (op : Expr.cmp) =
  match op with
  | Expr.Eq -> { lt = false; eq = true; gt = false }
  | Expr.Ne -> { lt = true; eq = false; gt = true }
  | Expr.Lt -> { lt = true; eq = false; gt = false }
  | Expr.Le -> { lt = true; eq = true; gt = false }
  | Expr.Gt -> { lt = false; eq = false; gt = true }
  | Expr.Ge -> { lt = false; eq = true; gt = true }

let holds s c = if c < 0 then s.lt else if c = 0 then s.eq else s.gt

let flip_cmp : Expr.cmp -> Expr.cmp = function
  | Expr.Eq -> Expr.Eq
  | Expr.Ne -> Expr.Ne
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

(* The rarer leaves share one loop, which tests each row by a match
   on the leaf: a jump, not a closure call. *)
type rare =
  | Ints_as_floats of { a : int array; lo : float; hi : float; inside : bool }
      (* [lo <= x <= hi] (or not) of an int column read as floats,
          as [Value.compare] reads an [Int] against a [Float] *)
  | Bool_table of bool array * bool array
      (* [keep.(0)] for false, [keep.(1)] for true *)
  | Null of Bytes.t  (* the rows whose validity bit is clear *)
  | Int_members of int array * int array * float array
      (* an int cell in the ints, or, as a float, among the floats
          (none of them NaN) *)
  | Float_members of float array * float array * bool
      (* a float cell among the floats (none of them NaN), or NaN
          when the flag is set *)
  | Cols of cols * Bytes.t option * int array option * cmp_sign
      (* two cells compared, the outcomes kept; the second column's
          validity and vector *)

and cols =
  | Int_int of int array * int array
  | Float_float of float array * float array
  | Int_float of int array * float array
  | Bool_bool of bool array * bool array
  | String_string of int array * string array * int array * string array

let mem_int (ints : int array) x =
  let hit = ref false and j = ref 0 in
  while (not !hit) && !j < Array.length ints do
    hit := Array.unsafe_get ints !j = x;
    incr j
  done;
  !hit

let mem_float (floats : float array) x =
  let hit = ref false and j = ref 0 in
  while (not !hit) && !j < Array.length floats do
    hit := Array.unsafe_get floats !j = x;
    incr j
  done;
  !hit

(* [id] is the handle's cell in the leaf's column, [p] the handle *)
let passes t id p =
  match t with
  | Ints_as_floats { a; lo; hi; inside } ->
      let x = float_of_int (Array.unsafe_get a id) in
      (x >= lo && x <= hi) = inside
  | Bool_table (a, keep) ->
      Array.unsafe_get keep (Bool.to_int (Array.unsafe_get a id))
  | Null bits -> not (valid (Some bits) id)
  | Int_members (a, ints, floats) ->
      let x = Array.unsafe_get a id in
      mem_int ints x || mem_float floats (float_of_int x)
  | Float_members (a, floats, nan) ->
      let x = Array.unsafe_get a id in
      (nan && Float.is_nan x) || mem_float floats x
  | Cols (cols, vb, tb, s) ->
      let jd = at tb p in
      valid vb jd
      && holds s
           (match cols with
           | Int_int (x, y) ->
               Int.compare (Array.unsafe_get x id) (Array.unsafe_get y jd)
           | Float_float (x, y) ->
               Float.compare (Array.unsafe_get x id) (Array.unsafe_get y jd)
           | Int_float (x, y) ->
               Float.compare
                 (float_of_int (Array.unsafe_get x id))
                 (Array.unsafe_get y jd)
           | Bool_bool (x, y) ->
               Bool.compare (Array.unsafe_get x id) (Array.unsafe_get y jd)
           | String_string (ca, da, cb, db) ->
               String.compare
                 (Array.unsafe_get da (Array.unsafe_get ca id))
                 (Array.unsafe_get db (Array.unsafe_get cb jd)))

let rare validity through t : filter =
 fun src k dst ->
  let out = ref 0 in
  for i = 0 to k - 1 do
    let p = Array.unsafe_get src i in
    let id = at through p in
    Array.unsafe_set dst !out p;
    out := !out + Bool.to_int (valid validity id && passes t id p)
  done;
  !out

(* ---------- comparisons with a constant ---------- *)

(* A compiled predicate before it becomes a filter: a range on a
   column stays open to intersection with the other ranges of its
   conjunction on the same column. *)
type node =
  | Ints_in of {
      a : int array;
      validity : Bytes.t option;
      through : int array option;
      lo : int;
      hi : int;
    }
  | Floats_in of {
      a : float array;
      validity : Bytes.t option;
      through : int array option;
      lo : float;
      hi : float;
      nan : bool;
    }
  | Loop of filter
  | All of node list  (* a conjunction of at least two *)

(* The ints [x] with [Int.compare x k] accepted by [op], as
   [(inside, lo, hi)]: the range [lo, hi] or its complement. *)
let int_bounds op k =
  match op with
  | Expr.Eq -> (true, k, k)
  | Expr.Ne -> (false, k, k)
  | Expr.Lt -> if k = min_int then (true, 1, 0) else (true, min_int, k - 1)
  | Expr.Le -> (true, min_int, k)
  | Expr.Gt -> if k = max_int then (true, 1, 0) else (true, k + 1, max_int)
  | Expr.Ge -> (true, k, max_int)

(* The floats [x] with [Float.compare x f] accepted by [op], as
   [(inside, lo, hi, nan)]. Against a number, NaN compares below, so
   it is in exactly the ranges that reach down to [neg_infinity]:
   [<] and [<=]. Against NaN, every number compares above. *)
let float_bounds op f =
  let none = (infinity, neg_infinity) in
  if Float.is_nan f then
    let s = accepts op in
    (* a NaN cell compares equal, any number greater *)
    let lo, hi = if s.gt then (neg_infinity, infinity) else none in
    (true, lo, hi, s.eq)
  else
    let lo, hi, nan, inside =
      match op with
      | Expr.Eq -> (f, f, false, true)
      | Expr.Ne -> (f, f, false, false)
      | Expr.Lt ->
          let lo, hi =
            if f = neg_infinity then none else (neg_infinity, Float.pred f)
          in
          (lo, hi, true, true)
      | Expr.Le -> (neg_infinity, f, true, true)
      | Expr.Gt ->
          let lo, hi =
            if f = infinity then none else (Float.succ f, infinity)
          in
          (lo, hi, false, true)
      | Expr.Ge -> (f, infinity, false, true)
    in
    (inside, lo, hi, nan)

let ints_node a validity through (inside, lo, hi) =
  if inside then Ints_in { a; validity; through; lo; hi }
  else Loop (int_range a validity through ~lo ~hi ~inside)

let floats_node a validity through (inside, lo, hi, nan) =
  if inside then Floats_in { a; validity; through; lo; hi; nan }
  else Loop (float_range a validity through ~lo ~hi ~nan ~inside)

(* column OP constant — mirrors [Value.sql_compare (get col i) v]. *)
let compile_cmp_const op { col; through } (v : Value.t) : node option =
  let validity = col.Column.validity in
  match (col.Column.repr, v) with
  | Column.Boxed _, _ -> None
  | _, Value.Null -> Some (Loop keep_none)
  | (Column.Ints a, Value.Int k | Column.Dates a, Value.Date k) ->
      Some (ints_node a validity through (int_bounds op k))
  | Column.Ints a, Value.Float f ->
      let inside, lo, hi, _ = float_bounds op f in
      Some (Loop (rare validity through (Ints_as_floats { a; lo; hi; inside })))
  | Column.Floats a, Value.Int k ->
      Some (floats_node a validity through (float_bounds op (float_of_int k)))
  | Column.Floats a, Value.Float f ->
      Some (floats_node a validity through (float_bounds op f))
  | Column.Bools a, Value.Bool b ->
      let s = accepts op in
      Some
        (Loop
           (rare validity through
              (Bool_table
                 ( a,
                   [| holds s (Bool.compare false b);
                      holds s (Bool.compare true b) |] ))))
  | Column.Strings { codes; dict }, Value.String x ->
      let s = accepts op in
      Some
        (Loop
           (code_table codes validity through
              (Array.map (fun e -> holds s (String.compare e x)) dict)))
  | (Column.Ints _ | Column.Floats _ | Column.Dates _ | Column.Bools _
    | Column.Strings _), _ ->
      (* incomparable types: sql_compare = None = false on every row *)
      Some (Loop keep_none)

(* ---------- comparisons between columns ---------- *)

(* column OP column. *)
let compile_cmp_cols op (sa : source) (sb : source) : filter option =
  let a = sa.col and b = sb.col in
  let va = a.Column.validity and vb = b.Column.validity in
  let cols c s = Some (rare va sa.through (Cols (c, vb, sb.through, s))) in
  let s = accepts op in
  match (a.Column.repr, b.Column.repr) with
  | Column.Boxed _, _ | _, Column.Boxed _ -> None
  | Column.Ints x, Column.Ints y | Column.Dates x, Column.Dates y ->
      cols (Int_int (x, y)) s
  | Column.Ints x, Column.Floats y -> cols (Int_float (x, y)) s
  | Column.Floats x, Column.Ints y ->
      Some
        (rare vb sb.through
           (Cols (Int_float (y, x), va, sa.through, accepts (flip_cmp op))))
  | Column.Floats x, Column.Floats y -> cols (Float_float (x, y)) s
  | Column.Bools x, Column.Bools y -> cols (Bool_bool (x, y)) s
  | Column.Strings x, Column.Strings y ->
      cols (String_string (x.codes, x.dict, y.codes, y.dict)) s
  | _ ->
      (* incomparable column types: false on every (non-null) row,
         and false on null rows too *)
      Some keep_none

(* ---------- IN lists ---------- *)

let compile_in_list { col; through } (vs : Value.t list) : filter option =
  let validity = col.Column.validity in
  let rare = rare validity through in
  let pick f = Array.of_list (List.filter_map f vs) in
  let float = function
    | Value.Float f when not (Float.is_nan f) -> Some f
    | _ -> None
  in
  match col.Column.repr with
  | Column.Boxed _ -> None
  | Column.Ints a ->
      Some
        (rare
           (Int_members
              ( a,
                pick (function Value.Int k -> Some k | _ -> None),
                pick float )))
  | Column.Floats a ->
      Some
        (rare
           (Float_members
              ( a,
                pick (function
                  | Value.Int k -> Some (float_of_int k)
                  | v -> float v),
                List.exists
                  (function Value.Float f -> Float.is_nan f | _ -> false)
                  vs )))
  | Column.Dates a ->
      Some
        (rare
           (Int_members
              (a, pick (function Value.Date k -> Some k | _ -> None), [||])))
  | Column.Bools a ->
      Some
        (rare
           (Bool_table
              ( a,
                Array.map
                  (fun b -> List.exists (Value.equal (Value.Bool b)) vs)
                  [| false; true |] )))
  | Column.Strings { codes; dict } ->
      Some
        (code_table codes validity through
           (Array.map
              (fun e -> List.exists (Value.equal (Value.String e)) vs)
              dict))

(* ---------- connectives ---------- *)

(* Whether two leaves read one array through one vector. *)
let same_through a b =
  match (a, b) with
  | None, None -> true
  | Some s, Some t -> s == t
  | _ -> false

(* The conjuncts of [a AND b], each range merged into the range of
   the same column already there: both hold exactly on the
   intersection. *)
let conjoin a b =
  let conjuncts = function All l -> l | n -> [ n ] in
  let add acc n =
    let rec merge = function
      | [] -> None
      | Ints_in r :: rest -> (
          match n with
          | Ints_in s
            when r.a == s.a && r.validity == s.validity
                 && same_through r.through s.through ->
              Some
                (Ints_in { r with lo = max r.lo s.lo; hi = min r.hi s.hi }
                :: rest)
          | _ -> Option.map (fun rest -> Ints_in r :: rest) (merge rest))
      | Floats_in r :: rest -> (
          match n with
          | Floats_in s
            when r.a == s.a && r.validity == s.validity
                 && same_through r.through s.through ->
              Some
                (Floats_in
                   { r with
                     lo = Float.max r.lo s.lo;
                     hi = Float.min r.hi s.hi;
                     nan = r.nan && s.nan
                   }
                :: rest)
          | _ -> Option.map (fun rest -> Floats_in r :: rest) (merge rest))
      | m :: rest -> Option.map (fun rest -> m :: rest) (merge rest)
    in
    match merge acc with Some acc -> acc | None -> acc @ [ n ]
  in
  match List.fold_left add (conjuncts a) (conjuncts b) with
  | [ n ] -> n
  | l -> All l

let rec to_filter = function
  | Ints_in { lo; hi; _ } when lo > hi -> keep_none
  | Ints_in { a; validity; through; lo; hi } ->
      int_range a validity through ~lo ~hi ~inside:true
  | Floats_in { a; validity; through; lo; hi; nan } ->
      if lo > hi && not nan then keep_none
      else float_range a validity through ~lo ~hi ~nan ~inside:true
  | Loop f -> f
  | All l -> (
      match List.map to_filter l with
      | [] -> keep_all
      | first :: rest ->
          (* the first conjunct writes [dst], the rest narrow it in
             place *)
          fun src k dst ->
            List.fold_left (fun k f -> f dst k dst) (first src k dst) rest)

(* OR: run [fa] into a scratch vector, run [fb] over the candidates it
   rejected (both sequences are subsequences of the input, in its
   order), and merge the two disjoint survivor sets back in input
   order: walking the input, each index is the next survivor of one
   side or of neither. Comparing index values instead would reorder a
   vector that is not ascending. *)
let or_filter fa fb : filter =
 fun src k dst ->
  let a = Array.make k 0 in
  let na = fa src k a in
  let rest = Array.make (k - na) 0 in
  let nr = ref 0 and j = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get src i in
    if !j < na && Array.unsafe_get a !j = v then incr j
    else begin
      Array.unsafe_set rest !nr v;
      incr nr
    end
  done;
  let nb = fb rest !nr rest in
  let ia = ref 0 and ib = ref 0 and m = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get src i in
    if !ia < na && Array.unsafe_get a !ia = v then begin
      Array.unsafe_set dst !m v;
      incr ia;
      incr m
    end
    else if !ib < nb && Array.unsafe_get rest !ib = v then begin
      Array.unsafe_set dst !m v;
      incr ib;
      incr m
    end
  done;
  !m

(* NOT: the candidates [fa] rejects, in input order. *)
let not_filter fa : filter =
 fun src k dst ->
  let a = Array.make k 0 in
  let na = fa src k a in
  let out = ref 0 and j = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get src i in
    if !j < na && Array.unsafe_get a !j = v then incr j
    else begin
      Array.unsafe_set dst !out v;
      incr out
    end
  done;
  !out

(* The node for [e], or the smallest subtree that blocks compiling
   it — the non-total (or boxed-column) part the profiler's path
   attribution reports. A connective blocks on its first blocked
   operand, so the blocker is always a genuine leaf, not an enclosing
   conjunction. *)
let rec compile_node ~column:col_of (e : Expr.t) : (node, Expr.t) result =
  let compile = compile_node ~column:col_of in
  let filter e = Result.map to_filter (compile e) in
  let leaf = function Some n -> Ok n | None -> Error e in
  let loop = function Some f -> Ok (Loop f) | None -> Error e in
  match e with
  | Expr.Const (Value.Bool true) -> Ok (Loop keep_all)
  | Expr.Const (Value.Bool false) | Expr.Const Value.Null -> Ok (Loop keep_none)
  | Expr.Const _ -> Error e (* truthy raises on non-bool *)
  | Expr.And (a, b) ->
      Result.bind (compile a) (fun na ->
          Result.map (fun nb -> conjoin na nb) (compile b))
  | Expr.Or (a, b) ->
      Result.bind (filter a) (fun fa ->
          Result.map (fun fb -> Loop (or_filter fa fb)) (filter b))
  | Expr.Not a -> Result.map (fun fa -> Loop (not_filter fa)) (filter a)
  | Expr.Cmp (op, Expr.Col a, Expr.Const v) ->
      leaf (Option.bind (col_of a) (fun c -> compile_cmp_const op c v))
  | Expr.Cmp (op, Expr.Const v, Expr.Col a) ->
      leaf
        (Option.bind (col_of a) (fun c -> compile_cmp_const (flip_cmp op) c v))
  | Expr.Cmp (op, Expr.Col a, Expr.Col b) ->
      loop
        (Option.bind (col_of a) (fun ca ->
             Option.bind (col_of b) (fun cb -> compile_cmp_cols op ca cb)))
  | Expr.Cmp (op, Expr.Const u, Expr.Const v) -> (
      (* constant comparison: total, fold it now *)
      match Value.sql_compare u v with
      | Some c when holds (accepts op) c -> Ok (Loop keep_all)
      | _ -> Ok (Loop keep_none))
  | Expr.Between (a, lo, hi) ->
      (* a BETWEEN lo AND hi = a >= lo AND a <= hi: both comparisons
         are total once compiled, so the conjunction is equivalent to
         the simultaneous form. *)
      compile
        (Expr.And (Expr.Cmp (Expr.Ge, a, lo), Expr.Cmp (Expr.Le, a, hi)))
  | Expr.In_list (Expr.Col a, vs) ->
      loop (Option.bind (col_of a) (fun c -> compile_in_list c vs))
  | Expr.Is_null (Expr.Col a) ->
      loop
        (Option.bind (col_of a) (fun { col; through } ->
             match (col.Column.repr, col.Column.validity) with
             | Column.Boxed _, _ -> None
             | _, None -> Some keep_none
             | _, Some bits -> Some (rare None through (Null bits))))
  | Expr.Like (Expr.Col a, pattern) ->
      loop
        (Option.bind (col_of a) (fun { col; through } ->
             match col.Column.repr with
             | Column.Strings { codes; dict } ->
                 Some
                   (code_table codes col.Column.validity through
                      (Array.map (Expr_eval.like_match ~pattern) dict))
             | _ ->
                 (* the row path raises on non-string values: not total *)
                 None))
  | _ -> Error e

let compile ~column e = Result.map to_filter (compile_node ~column e)
