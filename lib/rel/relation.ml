(* A relation is either row-backed (a flat [Row.t array]) or
   batch-backed: a selection vector over a row-backed base plus a
   column map, whose rows are built on first row access. The memo
   fields make a relation lazily multi-format: [data] holds the rows
   (always set for a row-backed relation, filled on first access for a
   batch-backed one), [rows_memo] caches the list conversion,
   [col_memo] the Sheetcol columnar image and [batch_memo] a row-backed
   relation's identity batch. All of them are derived
   purely from immutable inputs, so the mutation is invisible: any
   interleaving of builders computes the same value. *)
type t = {
  schema : Schema.t;
  src : src;
  mutable data : Row.t array option;
  mutable rows_memo : Row.t list option;
  mutable col_memo : Columnar.t option;
  mutable batch_memo : batch option;
}

and src =
  | Rows
  | Batch of batch * bool
      (* the batch, and whether its map is the base's own columns in
         order (rows are then the base's rows themselves) *)

and batch = { base : t; sel : int array; cols : col array }

and col =
  | Base of int
  | Computed of Column.t
  | Broadcast of { grouping : grouping; values : Value.t array }

and grouping = {
  over : int array;
  keys : col array;
  group : int array;
  groups : int;
}

exception Relation_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Relation_error s)) fmt

let validate_row schema row =
  let arity = Schema.arity schema in
  if Row.width row <> arity then
    err "row width %d does not match schema arity %d" (Row.width row) arity;
  for i = 0 to arity - 1 do
    let c = Schema.column_at schema i in
    match Value.type_of (Row.get row i) with
    | None -> ()
    | Some ty ->
        if not (Value.subtype ty c.Schema.ty) then
          err "value %s is not of column %s's type %s"
            (Value.to_string (Row.get row i))
            c.Schema.name
            (Value.type_name c.Schema.ty)
  done

let of_rows ?rows_memo schema data =
  { schema;
    src = Rows;
    data = Some data;
    rows_memo;
    col_memo = None;
    batch_memo = None }

let unsafe_of_array schema data = of_rows schema data

let of_array schema data =
  Array.iter (validate_row schema) data;
  unsafe_of_array schema data

let make schema rows =
  List.iter (validate_row schema) rows;
  of_rows ~rows_memo:rows schema (Array.of_list rows)

let unsafe_make schema rows =
  of_rows ~rows_memo:rows schema (Array.of_list rows)

let empty schema = unsafe_of_array schema [||]
let schema t = t.schema

let cardinality t =
  match (t.src, t.data) with
  | Batch (b, _), _ -> Array.length b.sel
  | Rows, Some d -> Array.length d
  | Rows, None -> assert false

let rows_built t = Option.is_some t.data

let is_identity (base : t) cols =
  let n = Array.length cols in
  let rec go j =
    j = n || (match cols.(j) with Base k -> k = j | _ -> false) && go (j + 1)
  in
  n = Schema.arity base.schema && go 0

let of_batch schema (b : batch) =
  (match b.base.src with
  | Rows -> ()
  | Batch _ -> invalid_arg "Relation.of_batch: the base must be row-backed");
  { schema;
    src = Batch (b, is_identity b.base b.cols);
    data = None;
    rows_memo = None;
    col_memo = None;
    batch_memo = None }

let base_rows (b : batch) =
  match b.base.data with Some d -> d | None -> assert false

let batch t =
  match t.src with
  | Batch (b, _) -> b
  | Rows -> (
      match t.batch_memo with
      | Some b -> b
      | None ->
          let b =
            { base = t;
              sel = Array.init (cardinality t) Fun.id;
              cols = Array.init (Schema.arity t.schema) (fun j -> Base j) }
          in
          t.batch_memo <- Some b;
          b)

(* Row [i] of a batch: the base's own row under an identity map,
   otherwise a fresh row whose base cells are the base row's values
   themselves (nothing is boxed anew) and whose computed cells are
   the columns' cells [i]. *)
let build_row (b : batch) identity rows i =
  let row = Array.unsafe_get rows (Array.unsafe_get b.sel i) in
  if identity then row
  else
    Array.map
      (function
        | Base j -> Row.get row j
        | Computed c -> Column.get c i
        | Broadcast { grouping; values } ->
            values.(Array.unsafe_get grouping.group i))
      b.cols

let to_array t =
  match (t.data, t.src) with
  | Some d, _ -> d
  | None, Batch (b, identity) ->
      let rows = base_rows b in
      let d = Array.init (Array.length b.sel) (build_row b identity rows) in
      t.data <- Some d;
      d
  | None, Rows -> assert false

let get t i =
  match (t.data, t.src) with
  | Some d, _ -> d.(i)
  | None, Batch (b, identity) ->
      if i < 0 || i >= Array.length b.sel then invalid_arg "Relation.get";
      build_row b identity (base_rows b) i
  | None, Rows -> assert false

let rows t =
  match t.rows_memo with
  | Some l -> l
  | None ->
      let l = Array.to_list (to_array t) in
      t.rows_memo <- Some l;
      l

let iter f t = Array.iter f (to_array t)

(* the identity batch's base is [t] itself, not the renamed copy *)
let with_schema schema t = { t with schema; batch_memo = None }

let columnar_view t =
  match t.col_memo with
  | Some v -> v
  | None ->
      let v = Columnar.of_rows ~width:(Schema.arity t.schema) (to_array t) in
      t.col_memo <- Some v;
      v

let column_values t name =
  let i = Schema.index_exn t.schema name in
  Array.to_list (Array.map (fun r -> Row.get r i) (to_array t))

let sorted_data t =
  let d = Array.copy (to_array t) in
  Array.sort Row.compare d;
  d

let normalize t = unsafe_of_array t.schema (sorted_data t)

let array_equal_rows a b =
  Array.length a = Array.length b
  &&
  let n = Array.length a in
  let rec go i = i >= n || (Row.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let equal a b =
  Schema.equal a.schema b.schema
  && array_equal_rows (sorted_data a) (sorted_data b)

let equal_unordered_data a b =
  Schema.names a.schema = Schema.names b.schema
  && array_equal_rows (sorted_data a) (sorted_data b)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@ %a@]" Schema.pp t.schema
    (Format.pp_print_list Row.pp)
    (rows t)
