(* Sheetcol: the columnar image of a row array.

   [of_rows] is a faithful codec, not just an accelerator: [to_rows]
   reproduces the input rows exactly (same constructors, same per-row
   widths), property-tested in test/test_columnar.ml. Ragged inputs
   (possible through [Relation.unsafe_make]) are padded with nulls
   column-wise and their true widths recorded, so the round-trip
   still holds; such images are flagged non-[uniform] and the engine
   never serves predicates from them. *)

module Obs = Sheet_obs.Obs

let c_columns = Obs.Metrics.counter Obs.k_col_columns
let c_dict_entries = Obs.Metrics.counter Obs.k_col_dict_entries

type t = {
  nrows : int;
  cols : Column.t array;
  widths : int array option;
      (* per-row widths when any row's width differs from
         [Array.length cols]; [None] = rectangular *)
  orders : int array option array;
      (* per column, the memoized [dict_order] of a dictionary-coded
         string column (derived from immutable data, so a racing
         rebuild computes the same array) *)
}

let nrows t = t.nrows
let width t = Array.length t.cols
let uniform t = t.widths = None
let column t j = t.cols.(j)

let of_rows ?width (rows : Row.t array) : t =
  let n = Array.length rows in
  let w =
    Array.fold_left
      (fun acc row -> max acc (Row.width row))
      (match width with Some w -> max 0 w | None -> 0)
      rows
  in
  let ragged = ref false in
  Array.iter (fun row -> if Row.width row <> w then ragged := true) rows;
  let cols =
    Array.init w (fun j ->
        Column.of_values
          (Array.init n (fun i ->
               let row = rows.(i) in
               if j < Row.width row then Row.get row j else Value.Null)))
  in
  Obs.Metrics.incr ~by:w c_columns;
  Array.iter
    (fun c -> Obs.Metrics.incr ~by:(Column.dict_size c) c_dict_entries)
    cols;
  { nrows = n;
    cols;
    widths =
      (if !ragged then Some (Array.map Row.width rows) else None);
    orders = Array.make w None }

let row_at t i =
  let w = match t.widths with Some ws -> ws.(i) | None -> width t in
  Array.init w (fun j -> Column.get t.cols.(j) i)

let to_rows t = Array.init t.nrows (row_at t)

let dict_order t j =
  match (t.orders.(j), t.cols.(j).Column.repr) with
  | Some order, _ -> order
  | None, Column.Strings { dict; _ } ->
      let order = Column.dict_order dict in
      t.orders.(j) <- Some order;
      order
  | None, _ -> invalid_arg "Columnar.dict_order: not a string column"

type stats = {
  columns : int;
  specialized : int;  (* non-Boxed columns *)
  dict_entries : int;
}

let stats t =
  { columns = width t;
    specialized =
      Array.fold_left
        (fun acc c -> if Column.kind_name c = "boxed" then acc else acc + 1)
        0 t.cols;
    dict_entries =
      Array.fold_left (fun acc c -> acc + Column.dict_size c) 0 t.cols }
