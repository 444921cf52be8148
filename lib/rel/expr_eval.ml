exception Eval_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* Classic two-pointer wildcard matching with backtracking on '%'. *)
  let rec go pi si star_pi star_si =
    if si >= ns then
      let rec only_percents i =
        i >= np || (pattern.[i] = '%' && only_percents (i + 1))
      in
      only_percents pi
    else if pi < np && pattern.[pi] = '%' then go (pi + 1) si (pi + 1) si
    else if pi < np && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_pi star_si
    else if star_pi >= 0 then go star_pi (star_si + 1) star_pi (star_si + 1)
    else false
  in
  go 0 0 (-1) (-1)

let arith_op op (a : Value.t) (b : Value.t) : Value.t =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  (* calendar arithmetic: date ± days, and date - date = days *)
  | Value.Date d, Value.Int i -> (
      match op with
      | Expr.Add -> Value.Date (d + i)
      | Expr.Sub -> Value.Date (d - i)
      | _ ->
          err "only + and - apply between a date and a number of days")
  | Value.Int i, Value.Date d -> (
      match op with
      | Expr.Add -> Value.Date (d + i)
      | _ -> err "only days + date is defined")
  | Value.Date x, Value.Date y -> (
      match op with
      | Expr.Sub -> Value.Int (x - y)
      | _ -> err "dates support only subtraction between each other")
  | Value.Int x, Value.Int y -> (
      match op with
      | Expr.Add -> Value.Int (x + y)
      | Expr.Sub -> Value.Int (x - y)
      | Expr.Mul -> Value.Int (x * y)
      | Expr.Div -> if y = 0 then Value.Null else Value.Int (x / y)
      | Expr.Mod -> if y = 0 then Value.Null else Value.Int (x mod y))
  | _ -> (
      match (Value.to_float a, Value.to_float b) with
      | Some x, Some y -> (
          match op with
          | Expr.Add -> Value.Float (x +. y)
          | Expr.Sub -> Value.Float (x -. y)
          | Expr.Mul -> Value.Float (x *. y)
          | Expr.Div -> if y = 0. then Value.Null else Value.Float (x /. y)
          | Expr.Mod ->
              if y = 0. then Value.Null else Value.Float (Float.rem x y))
      | _ ->
          err "arithmetic on non-numeric values %s and %s"
            (Value.to_string a) (Value.to_string b))

let cmp_result op c =
  match op with
  | Expr.Eq -> c = 0
  | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0

let truthy = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> err "expected boolean, got %s" (Value.to_string v)

(* Value-level helpers shared by [eval] and [compile], so the
   interpreter and the compiled closures cannot drift apart. Booleans
   are the two shared constants, so a predicate allocates nothing. *)

let v_true = Value.Bool true
let v_false = Value.Bool false
let bool b = if b then v_true else v_false

let neg = function
  | Value.Null -> Value.Null
  | Value.Int i -> Value.Int (-i)
  | Value.Float f -> Value.Float (-.f)
  | v -> err "cannot negate %s" (Value.to_string v)

let concat x y =
  match (x, y) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | x, y -> Value.String (Value.to_string x ^ Value.to_string y)

let compare_op op x y =
  bool (Value.sql_comparable x y && cmp_result op (Value.compare x y))

let like pattern = function
  | Value.Null -> v_false
  | Value.String s -> bool (like_match ~pattern s)
  | v -> err "LIKE on non-string %s" (Value.to_string v)

let in_list vs = function
  | Value.Null -> v_false
  | v -> bool (List.exists (fun x -> Value.equal v x) vs)

let between v lo hi =
  bool
    (Value.sql_comparable v lo
    && Value.sql_comparable v hi
    && Value.compare v lo >= 0
    && Value.compare v hi <= 0)

let scalar g v =
  match (g, v) with
  | _, Value.Null -> Value.Null
  | Expr.Year_of, Value.Date d ->
      let y, _, _ = Value.ymd_of_days d in
      Value.Int y
  | Expr.Month_of, Value.Date d ->
      let _, m, _ = Value.ymd_of_days d in
      Value.Int m
  | Expr.Day_of, Value.Date d ->
      let _, _, dd = Value.ymd_of_days d in
      Value.Int dd
  | Expr.Abs, Value.Int i -> Value.Int (abs i)
  | Expr.Abs, Value.Float f -> Value.Float (Float.abs f)
  | Expr.Round, Value.Int i -> Value.Int i
  | Expr.Round, Value.Float f -> Value.Int (int_of_float (Float.round f))
  | Expr.Lower, Value.String s -> Value.String (String.lowercase_ascii s)
  | Expr.Upper, Value.String s -> Value.String (String.uppercase_ascii s)
  | Expr.Length, Value.String s -> Value.Int (String.length s)
  | g, v -> err "%s applied to %s" (Expr.scalar_fun_name g) (Value.to_string v)

let unknown_column c = err "unknown column %S" c

let outside_grouping g =
  err "aggregate %s used outside a grouping context" (Expr.agg_fun_name g)

let rec eval ~lookup ?agg (e : Expr.t) : Value.t =
  let ev x = eval ~lookup ?agg x in
  match e with
  | Expr.Const v -> v
  | Expr.Col c -> ( try lookup c with Not_found -> unknown_column c)
  | Expr.Neg a -> neg (ev a)
  | Expr.Arith (op, a, b) -> arith_op op (ev a) (ev b)
  | Expr.Concat (a, b) -> concat (ev a) (ev b)
  | Expr.Cmp (op, a, b) -> compare_op op (ev a) (ev b)
  | Expr.And (a, b) -> bool (truthy (ev a) && truthy (ev b))
  | Expr.Or (a, b) -> bool (truthy (ev a) || truthy (ev b))
  | Expr.Not a -> bool (not (truthy (ev a)))
  | Expr.Is_null a -> bool (Value.is_null (ev a))
  | Expr.Like (a, pattern) -> like pattern (ev a)
  | Expr.In_list (a, vs) -> in_list vs (ev a)
  | Expr.Between (a, lo, hi) ->
      let v = ev a in
      between v (ev lo) (ev hi)
  | Expr.Fn (g, a) -> scalar g (ev a)
  | Expr.Case (branches, default) ->
      let rec first = function
        | [] -> ( match default with Some d -> ev d | None -> Value.Null)
        | (cond, expr) :: rest -> if truthy (ev cond) then ev expr else first rest
      in
      first branches
  | Expr.Agg (g, arg) -> (
      match agg with Some handler -> handler g arg | None -> outside_grouping g)

(* The closure mirrors [eval]'s shape node for node — the same
   helpers, the same operand evaluation order — so a row gets the same
   value or the same [Eval_error]; only column resolution moves to
   compile time. An unknown column or an [Agg] node still raises per
   row, as [eval] does, unless [agg] resolves it. The row handle is
   abstract: a [Row.t] for [compile], a position in a batch's vector
   for the plan executor, a group for the SQL executor's aggregate
   outputs. *)
let compile_with ~column ?agg e =
  let rec go (e : Expr.t) =
    match e with
    | Expr.Const v -> fun _ -> v
    | Expr.Col c -> (
        match column c with
        | Some read -> read
        | None -> fun _ -> unknown_column c)
    | Expr.Neg a ->
        let a = go a in
        fun row -> neg (a row)
    | Expr.Arith (op, a, b) ->
        let a = go a and b = go b in
        fun row -> arith_op op (a row) (b row)
    | Expr.Concat (a, b) ->
        let a = go a and b = go b in
        fun row -> concat (a row) (b row)
    | Expr.Cmp (op, a, b) ->
        let a = go a and b = go b in
        fun row -> compare_op op (a row) (b row)
    | Expr.And (a, b) ->
        let a = go a and b = go b in
        fun row -> bool (truthy (a row) && truthy (b row))
    | Expr.Or (a, b) ->
        let a = go a and b = go b in
        fun row -> bool (truthy (a row) || truthy (b row))
    | Expr.Not a ->
        let a = go a in
        fun row -> bool (not (truthy (a row)))
    | Expr.Is_null a ->
        let a = go a in
        fun row -> bool (Value.is_null (a row))
    | Expr.Like (a, pattern) ->
        let a = go a in
        fun row -> like pattern (a row)
    | Expr.In_list (a, vs) ->
        let a = go a in
        fun row -> in_list vs (a row)
    | Expr.Between (a, lo, hi) ->
        let a = go a and lo = go lo and hi = go hi in
        fun row ->
          let v = a row in
          between v (lo row) (hi row)
    | Expr.Fn (g, a) ->
        let a = go a in
        fun row -> scalar g (a row)
    | Expr.Case (branches, default) ->
        let branches = List.map (fun (c, x) -> (go c, go x)) branches in
        let default = Option.map go default in
        fun row ->
          let rec first = function
            | [] -> (
                match default with Some d -> d row | None -> Value.Null)
            | (cond, expr) :: rest ->
                if truthy (cond row) then expr row else first rest
          in
          first branches
    | Expr.Agg (g, arg) -> (
        match agg with
        | Some resolve -> resolve g arg
        | None -> fun _ -> outside_grouping g)
  in
  go e

let compile schema e : Row.t -> Value.t =
  compile_with
    ~column:(fun c ->
      Option.map (fun (i, _) row -> Row.get row i) (Schema.find schema c))
    e

let compile_pred ~column e =
  let f = compile_with ~column e in
  fun handle -> truthy (f handle)

let eval_pred ~lookup ?agg e = truthy (eval ~lookup ?agg e)

(* One aggregate's running state. Every value goes through [acc_add]
   in row order, so the float total is the same left fold from [0.]
   that a list fold would compute, bit for bit; the int total runs
   beside it and is the result while every non-null value is an
   [Int]. *)
type acc = {
  fn : Expr.agg_fun;
  mutable count : int;  (* rows for [Count_star], non-null values otherwise *)
  mutable all_int : bool;
  mutable itotal : int;
  ftotal : float array;  (* one cell: a flat float updates unboxed *)
  mutable best : Value.t;  (* [Min]/[Max] so far, [Null] before any *)
  distinct : unit Value.Tbl.t;  (* [Count_distinct]'s values seen *)
}

(* shared by the other functions' accumulators, which never touch it *)
let no_distinct : unit Value.Tbl.t = Value.Tbl.create 1

let acc_create fn =
  { fn;
    count = 0;
    all_int = true;
    itotal = 0;
    ftotal = [| 0. |];
    best = Value.Null;
    distinct =
      (match fn with
      | Expr.Count_distinct -> Value.Tbl.create 8
      | _ -> no_distinct) }

let acc_add a (v : Value.t) =
  match (a.fn, v) with
  | Expr.Count_star, _ -> a.count <- a.count + 1
  | _, Value.Null -> ()
  | Expr.Count, _ -> a.count <- a.count + 1
  | Expr.Count_distinct, v ->
      if not (Value.Tbl.mem a.distinct v) then begin
        Value.Tbl.add a.distinct v ();
        a.count <- a.count + 1
      end
  | (Expr.Sum | Expr.Avg), Value.Int i ->
      a.count <- a.count + 1;
      a.itotal <- a.itotal + i;
      a.ftotal.(0) <- a.ftotal.(0) +. float_of_int i
  | (Expr.Sum | Expr.Avg), Value.Float f ->
      a.count <- a.count + 1;
      a.all_int <- false;
      a.ftotal.(0) <- a.ftotal.(0) +. f
  | (Expr.Sum | Expr.Avg), v ->
      err "%s over non-numeric value %s" (Expr.agg_fun_name a.fn)
        (Value.to_string v)
  | Expr.Min, v ->
      if Value.is_null a.best || Value.compare v a.best < 0 then a.best <- v
  | Expr.Max, v ->
      if Value.is_null a.best || Value.compare v a.best > 0 then a.best <- v

let acc_result a =
  match a.fn with
  | Expr.Count_star | Expr.Count | Expr.Count_distinct -> Value.Int a.count
  | Expr.Sum ->
      if a.count = 0 then Value.Null
      else if a.all_int then Value.Int a.itotal
      else Value.Float a.ftotal.(0)
  | Expr.Avg ->
      if a.count = 0 then Value.Null
      else Value.Float (a.ftotal.(0) /. float_of_int a.count)
  | Expr.Min | Expr.Max -> a.best

let apply_agg g values =
  let a = acc_create g in
  List.iter (acc_add a) values;
  acc_result a
