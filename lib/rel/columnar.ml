(* Sheetcol: the columnar image of a row array.

   An image exists only for rectangular data: [of_rows ~width] refuses
   (returns [None]) at the first row of another width, before it
   builds any column. Ragged rows are possible only through
   [Relation.unsafe_make], and the compiled path could not reproduce
   their row-path behaviour (index errors), so the engine keeps them
   on the row path. *)

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

let of_rows ~width (rows : Row.t array) : t option =
  if Array.exists (fun row -> Row.width row <> width) rows then None
  else begin
    let cols =
      Array.init width (fun j ->
          Column.of_values (Array.map (fun row -> Row.get row j) rows))
    in
    Obs.Metrics.incr ~by:width c_columns;
    Array.iter
      (fun c -> Obs.Metrics.incr ~by:(Column.dict_size c) c_dict_entries)
      cols;
    Some { cols; orders = Array.make width None }
  end

let dict_order t j =
  match (t.orders.(j), t.cols.(j).Column.repr) with
  | Some order, _ -> order
  | None, Column.Strings { dict; _ } ->
      let order = Column.dict_order dict in
      t.orders.(j) <- Some order;
      order
  | None, _ -> invalid_arg "Columnar.dict_order: not a string column"
