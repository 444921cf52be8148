(* Sheetcol: the columnar image of a row array.

   An image exists only for rectangular data: [of_rows ~width] raises
   at the first row of another width, before it builds any column.
   Ragged rows are possible only through the unsafe constructors of
   [Relation], and no library code builds them ([Csv] checks row
   widths). *)

module Obs = Sheet_obs.Obs

let c_columns = Obs.Metrics.counter Obs.k_col_columns
let c_dict_entries = Obs.Metrics.counter Obs.k_col_dict_entries

type t = {
  cols : Column.t array;
  orders : int array option array;
      (* per column, the memoized [dict_order] of a dictionary-coded
         string column (derived from immutable data, so a racing
         rebuild computes the same array) *)
}

let column t j = t.cols.(j)

let of_rows ~width (rows : Row.t array) : t =
  if Array.exists (fun row -> Row.width row <> width) rows then
    invalid_arg "Columnar.of_rows: ragged rows"
  else begin
    let cols =
      Array.init width (fun j ->
          Column.of_values (Array.map (fun row -> Row.get row j) rows))
    in
    Obs.Metrics.incr ~by:width c_columns;
    Array.iter
      (fun c -> Obs.Metrics.incr ~by:(Column.dict_size c) c_dict_entries)
      cols;
    { cols; orders = Array.make width None }
  end

let dict_order t j =
  match (t.orders.(j), t.cols.(j).Column.repr) with
  | Some order, _ -> order
  | None, Column.Strings { dict; _ } ->
      let order = Column.dict_order dict in
      t.orders.(j) <- Some order;
      order
  | None, _ -> invalid_arg "Columnar.dict_order: not a string column"
