(* Typed arithmetic kernels over Sheetcol columns (Def. 12's formula
   computation, column at a time).

   [compile] turns an arithmetic expression over typed columns into a
   tree of typed nodes; [eval] runs it over the row handles [0, n) in
   chunks, each node filling an unboxed [int]/[float] buffer and a
   byte-per-row validity buffer from its children's, and copies the
   root's cells into a column of [n] cells, cell [p] for handle [p]
   (a position in a batch's selection vector). A column leaf reads
   its cell at the handle, or through a vector (a base column read
   through the batch's). No cell is boxed.

   Compilation is deliberately PARTIAL, as in Col_pred: only subtrees
   whose row evaluation is total compile, so a kernel can never
   diverge from [Expr_eval]'s row path on error identity. Every cell
   equals [Expr_eval.arith_op]'s, bit for bit:
   - a null operand gives a null cell;
   - Int op Int stays Int (wrapping, OCaml's [/] and [mod]), and
     division or modulo by zero gives null;
   - any Float operand makes the operation Float, the Int side
     converted by [float_of_int] ([Value.to_float]); Float division
     or modulo by zero (either sign) gives null, NaN divides as NaN;
   - Date ± Int and Int + Date are Dates, Date - Date is an Int;
   - a searched CASE whose conditions compile as Col_pred filters and
     whose branches (and default) compile to one type takes, per row,
     the first branch whose condition holds (two-valued, as the row
     path's [truthy]); with no default an unmatched row is null.
   Anything else — strings, booleans, boxed columns, a null
   constant, date forms that raise — returns [None] and the caller
   takes the row path. *)

type ty = Int | Float | Date

type t =
  | Const_int of ty * int  (* an Int or a Date constant *)
  | Const_float of float
  | Ints_col of ty * int array * Bytes.t option * int array option
  | Floats_col of float array * Bytes.t option * int array option
      (* a column, read through the vector when there is one *)
  | Promote of t  (* an Int operand of a Float operation *)
  | Neg of ty * t
  | Arith_int of ty * Expr.arith * t * t
  | Arith_float of Expr.arith * t * t
  | Case of ty * (Col_pred.filter * t) list * t option
      (* every branch and the default of type [ty] *)

let ty_of = function
  | Const_int (ty, _) | Ints_col (ty, _, _, _) | Neg (ty, _)
  | Arith_int (ty, _, _, _)
    ->
      ty
  | Const_float _ | Floats_col _ | Promote _ | Arith_float _ -> Float
  | Case (ty, _, _) -> ty

let as_float = function
  | Const_int (Int, k) -> Const_float (float_of_int k)
  | e -> Promote e

(* The kernel for [e], or the smallest subtree that blocks it: a leaf
   the kernel cannot read, a condition Col_pred refuses, or an
   operation it cannot type. Operands are compiled first, in order,
   so an operand's blocker wins over its parent's. *)
let rec compile ~column (e : Expr.t) : (t, Expr.t) result =
  let compile = compile ~column in
  match e with
  | Expr.Const (Value.Int k) -> Ok (Const_int (Int, k))
  | Expr.Const (Value.Date k) -> Ok (Const_int (Date, k))
  | Expr.Const (Value.Float f) -> Ok (Const_float f)
  | Expr.Col name -> (
      match column name with
      | Some { Col_pred.col = { Column.repr = Column.Ints a; validity }; through }
        ->
          Ok (Ints_col (Int, a, validity, through))
      | Some { Col_pred.col = { Column.repr = Column.Dates a; validity }; through }
        ->
          Ok (Ints_col (Date, a, validity, through))
      | Some
          { Col_pred.col = { Column.repr = Column.Floats a; validity }; through }
        ->
          Ok (Floats_col (a, validity, through))
      | _ -> Error e)
  | Expr.Neg a ->
      Result.bind (compile a) (fun a ->
          if ty_of a <> Date then Ok (Neg (ty_of a, a)) else Error e)
  | Expr.Arith (op, a, b) ->
      Result.bind (compile a) (fun a ->
          Result.bind (compile b) (fun b ->
              match (ty_of a, ty_of b, op) with
              | Int, Int, _ -> Ok (Arith_int (Int, op, a, b))
              | Date, Int, (Expr.Add | Expr.Sub) | Int, Date, Expr.Add ->
                  Ok (Arith_int (Date, op, a, b))
              | Date, Date, Expr.Sub -> Ok (Arith_int (Int, op, a, b))
              | Date, _, _ | _, Date, _ -> Error e
              | Float, Float, _ -> Ok (Arith_float (op, a, b))
              | Int, Float, _ -> Ok (Arith_float (op, as_float a, b))
              | Float, Int, _ -> Ok (Arith_float (op, a, as_float b))))
  | Expr.Case (branches, default) -> (
      let rec branch = function
        | [] -> Ok []
        | (c, x) :: rest ->
            Result.bind (Col_pred.compile ~column c) (fun f ->
                Result.bind (compile x) (fun x ->
                    Result.map (fun rest -> (f, x) :: rest) (branch rest)))
      in
      let default =
        match default with
        | None -> Ok None
        | Some d -> Result.map Option.some (compile d)
      in
      match (branch branches, default) with
      | Error b, _ | Ok _, Error b -> Error b
      | Ok compiled, Ok default -> (
          (* one constructor for every cell, as a typed column holds *)
          match
            List.map (fun (_, x) -> ty_of x) compiled
            @ Option.to_list (Option.map ty_of default)
          with
          | ty :: rest when List.for_all (( = ) ty) rest ->
              Ok (Case (ty, compiled, default))
          | _ -> Error e))
  | _ -> Error e

(* ---------- evaluation ---------- *)

(* One node's output over a chunk of row handles: cell [k] is the
   value at handle [off + k]; [valid] holds '\001' for a non-null
   cell. *)
type buf = {
  run : int -> int -> unit;  (* off, len *)
  ints : int array;
  floats : float array;
  valid : Bytes.t;
  nulls : bool;  (* whether a cell can be null: else [valid] stays all '\001' *)
}

let nop _ _ = ()

let fill_validity valid validity through off len =
  match validity with
  | None -> ()
  | Some bits ->
      for k = 0 to len - 1 do
        Bytes.unsafe_set valid k
          (if Column.valid_bit bits (Col_pred.at through (off + k)) then
             '\001'
           else '\000')
      done

let both valid (a : Bytes.t) (b : Bytes.t) len =
  for k = 0 to len - 1 do
    Bytes.unsafe_set valid k
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get a k) land Char.code (Bytes.unsafe_get b k)))
  done

(* Division and modulo by zero give null. *)
let divides = function Expr.Div | Expr.Mod -> true | _ -> false

(* Buffers for chunks of up to [cap] handles. *)
let rec instantiate cap (e : t) : buf =
  let all_valid () = Bytes.make cap '\001' in
  match e with
  | Const_int (_, k) ->
      { run = nop; ints = Array.make cap k; floats = [||]; valid = all_valid ();
        nulls = false }
  | Const_float x ->
      { run = nop; ints = [||]; floats = Array.make cap x; valid = all_valid ();
        nulls = false }
  | Ints_col (_, a, validity, through) ->
      let ints = Array.make cap 0 and valid = all_valid () in
      let run off len =
        (match through with
        | None ->
            for k = 0 to len - 1 do
              Array.unsafe_set ints k (Array.unsafe_get a (off + k))
            done
        | Some s ->
            for k = 0 to len - 1 do
              Array.unsafe_set ints k
                (Array.unsafe_get a (Array.unsafe_get s (off + k)))
            done);
        fill_validity valid validity through off len
      in
      { run; ints; floats = [||]; valid; nulls = validity <> None }
  | Floats_col (a, validity, through) ->
      let floats = Array.make cap 0. and valid = all_valid () in
      let run off len =
        (match through with
        | None ->
            for k = 0 to len - 1 do
              Array.unsafe_set floats k (Array.unsafe_get a (off + k))
            done
        | Some s ->
            for k = 0 to len - 1 do
              Array.unsafe_set floats k
                (Array.unsafe_get a (Array.unsafe_get s (off + k)))
            done);
        fill_validity valid validity through off len
      in
      { run; ints = [||]; floats; valid; nulls = validity <> None }
  | Promote a ->
      let a = instantiate cap a in
      let floats = Array.make cap 0. in
      let run off len =
        a.run off len;
        for k = 0 to len - 1 do
          Array.unsafe_set floats k
            (float_of_int (Array.unsafe_get a.ints k))
        done
      in
      { run; ints = [||]; floats; valid = a.valid; nulls = a.nulls }
  | Neg (Float, a) ->
      let a = instantiate cap a in
      let floats = Array.make cap 0. in
      let run off len =
        a.run off len;
        for k = 0 to len - 1 do
          Array.unsafe_set floats k (-.Array.unsafe_get a.floats k)
        done
      in
      { run; ints = [||]; floats; valid = a.valid; nulls = a.nulls }
  | Neg (_, a) ->
      let a = instantiate cap a in
      let ints = Array.make cap 0 in
      let run off len =
        a.run off len;
        for k = 0 to len - 1 do
          Array.unsafe_set ints k (-Array.unsafe_get a.ints k)
        done
      in
      { run; ints; floats = [||]; valid = a.valid; nulls = a.nulls }
  | Arith_int (_, op, a, b) ->
      let a = instantiate cap a and b = instantiate cap b in
      let x = a.ints and y = b.ints in
      let ints = Array.make cap 0 and valid = all_valid () in
      let operands = a.nulls || b.nulls in
      let run off len =
        a.run off len;
        b.run off len;
        if operands then both valid a.valid b.valid len
        else if divides op then Bytes.fill valid 0 len '\001';
        match op with
        | Expr.Add ->
            for k = 0 to len - 1 do
              Array.unsafe_set ints k (Array.unsafe_get x k + Array.unsafe_get y k)
            done
        | Expr.Sub ->
            for k = 0 to len - 1 do
              Array.unsafe_set ints k (Array.unsafe_get x k - Array.unsafe_get y k)
            done
        | Expr.Mul ->
            for k = 0 to len - 1 do
              Array.unsafe_set ints k (Array.unsafe_get x k * Array.unsafe_get y k)
            done
        (* division and modulo by zero: a null cell, no division *)
        | Expr.Div ->
            for k = 0 to len - 1 do
              let d = Array.unsafe_get y k in
              if d = 0 then Bytes.unsafe_set valid k '\000'
              else Array.unsafe_set ints k (Array.unsafe_get x k / d)
            done
        | Expr.Mod ->
            for k = 0 to len - 1 do
              let d = Array.unsafe_get y k in
              if d = 0 then Bytes.unsafe_set valid k '\000'
              else Array.unsafe_set ints k (Array.unsafe_get x k mod d)
            done
      in
      { run; ints; floats = [||]; valid; nulls = operands || divides op }
  | Arith_float (op, a, b) ->
      let a = instantiate cap a and b = instantiate cap b in
      let x = a.floats and y = b.floats in
      let floats = Array.make cap 0. and valid = all_valid () in
      let operands = a.nulls || b.nulls in
      let run off len =
        a.run off len;
        b.run off len;
        if operands then both valid a.valid b.valid len
        else if divides op then Bytes.fill valid 0 len '\001';
        match op with
        | Expr.Add ->
            for k = 0 to len - 1 do
              Array.unsafe_set floats k
                (Array.unsafe_get x k +. Array.unsafe_get y k)
            done
        | Expr.Sub ->
            for k = 0 to len - 1 do
              Array.unsafe_set floats k
                (Array.unsafe_get x k -. Array.unsafe_get y k)
            done
        | Expr.Mul ->
            for k = 0 to len - 1 do
              Array.unsafe_set floats k
                (Array.unsafe_get x k *. Array.unsafe_get y k)
            done
        | Expr.Div ->
            for k = 0 to len - 1 do
              let d = Array.unsafe_get y k in
              if d = 0. then Bytes.unsafe_set valid k '\000'
              else Array.unsafe_set floats k (Array.unsafe_get x k /. d)
            done
        | Expr.Mod ->
            for k = 0 to len - 1 do
              let d = Array.unsafe_get y k in
              if d = 0. then Bytes.unsafe_set valid k '\000'
              else Array.unsafe_set floats k (Float.rem (Array.unsafe_get x k) d)
            done
      in
      { run; ints = [||]; floats; valid; nulls = operands || divides op }
  | Case (ty, branches, default) ->
      let branches = List.map (fun (f, x) -> (f, instantiate cap x)) branches in
      let default = Option.map (instantiate cap) default in
      let ints = if ty = Float then [||] else Array.make cap 0 in
      let floats = if ty = Float then Array.make cap 0. else [||] in
      let valid = all_valid () in
      let decided = Bytes.make cap '\000' in
      let candidates = Array.make cap 0 in
      let take (x : buf) k =
        if ty = Float then Array.unsafe_set floats k (Array.unsafe_get x.floats k)
        else Array.unsafe_set ints k (Array.unsafe_get x.ints k);
        Bytes.unsafe_set valid k (Bytes.unsafe_get x.valid k);
        Bytes.unsafe_set decided k '\001'
      in
      let run off len =
        Bytes.fill decided 0 len '\000';
        List.iter
          (fun (f, x) ->
            (* the condition filters the undecided handles; its
               survivors come back in order, a subsequence of the
               candidates *)
            let m = ref 0 in
            for k = 0 to len - 1 do
              if Bytes.unsafe_get decided k = '\000' then begin
                Array.unsafe_set candidates !m (off + k);
                incr m
              end
            done;
            let kept = if !m = 0 then 0 else f candidates !m candidates in
            if kept > 0 then begin
              x.run off len;
              let s = ref 0 in
              for k = 0 to len - 1 do
                if
                  !s < kept
                  && Bytes.unsafe_get decided k = '\000'
                  && Array.unsafe_get candidates !s = off + k
                then begin
                  take x k;
                  incr s
                end
              done
            end)
          branches;
        (* no branch matched: the default, else null *)
        (match default with Some d -> d.run off len | None -> ());
        for k = 0 to len - 1 do
          if Bytes.unsafe_get decided k = '\000' then
            match default with
            | Some d -> take d k
            | None -> Bytes.unsafe_set valid k '\000'
        done
      in
      { run; ints; floats; valid; nulls = true }

(* A node's buffers hold one chunk: at 256 cells each is a minor-heap
   block (a longer one is allocated on the major heap, whose
   collector then pays for it in proportion to its length). *)
let chunk = 256

(* Evaluate handles [0, n) in chunks, copying each chunk's cells into
   [out] at their handles and clearing the validity bit of each null
   cell as it is found; [None] when no cell is null. *)
let fill e (out : Column.repr) n =
  let root = instantiate (min chunk n) e in
  let bits = lazy (Bytes.make ((n + 7) / 8) '\xff') in
  let clear p =
    let b = Lazy.force bits in
    Bytes.unsafe_set b (p lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get b (p lsr 3)) land lnot (1 lsl (p land 7))))
  in
  let off = ref 0 in
  while !off < n do
    let off0 = !off in
    let len = min chunk (n - off0) in
    root.run off0 len;
    (match out with
    | Column.Floats dst -> Array.blit root.floats 0 dst off0 len
    | Column.Ints dst | Column.Dates dst ->
        for k = 0 to len - 1 do
          Array.unsafe_set dst (off0 + k) (Array.unsafe_get root.ints k)
        done
    | Column.Bools _ | Column.Strings _ | Column.Boxed _ ->
        invalid_arg "Col_expr.fill");
    if root.nulls then
      for k = 0 to len - 1 do
        if Bytes.unsafe_get root.valid k = '\000' then clear (off0 + k)
      done;
    off := off0 + len
  done;
  if Lazy.is_val bits then Some (Lazy.force bits) else None

let eval e n =
  let repr =
    match ty_of e with
    | Float -> Column.Floats (Array.create_float n)
    | Int -> Column.Ints (Array.make n 0)
    | Date -> Column.Dates (Array.make n 0)
  in
  let validity = fill e repr n in
  { Column.repr; validity }
