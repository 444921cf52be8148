type column_profile = {
  name : string;
  ty : Value.vtype;
  non_null : int;
  nulls : int;
  distinct : int;
  min_value : Value.t;
  max_value : Value.t;
  mean : float option;
}

let column (rel : Relation.t) name =
  let idx = Schema.index_exn (Relation.schema rel) name in
  let col = Schema.column_at (Relation.schema rel) idx in
  let values = List.map (fun row -> Row.get row idx) (Relation.rows rel) in
  let non_null_values = List.filter (fun v -> not (Value.is_null v)) values in
  let distinct =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let h = Value.hash v in
        let bucket = Hashtbl.find_opt seen h |> Option.value ~default:[] in
        if not (List.exists (Value.equal v) bucket) then
          Hashtbl.replace seen h (v :: bucket))
      non_null_values;
    Hashtbl.fold (fun _ bucket acc -> acc + List.length bucket) seen 0
  in
  let min_value =
    List.fold_left
      (fun acc v ->
        if Value.is_null acc || Value.compare v acc < 0 then v else acc)
      Value.Null non_null_values
  in
  let max_value =
    List.fold_left
      (fun acc v ->
        if Value.is_null acc || Value.compare v acc > 0 then v else acc)
      Value.Null non_null_values
  in
  let numeric_values = List.filter_map Value.to_float non_null_values in
  let mean =
    if Value.numeric col.Schema.ty && numeric_values <> [] then
      Some
        (List.fold_left ( +. ) 0.0 numeric_values
        /. float_of_int (List.length numeric_values))
    else None
  in
  { name;
    ty = col.Schema.ty;
    non_null = List.length non_null_values;
    nulls = List.length values - List.length non_null_values;
    distinct;
    min_value;
    max_value;
    mean }

let relation rel =
  List.map (column rel) (Schema.names (Relation.schema rel))

let render rel =
  let header =
    [| "column"; "type"; "non-null"; "nulls"; "distinct"; "min"; "max";
       "mean" |]
  in
  let rows =
    Array.of_list (relation rel)
    |> Array.map (fun p ->
        [| p.name;
          Value.type_name p.ty;
          string_of_int p.non_null;
          string_of_int p.nulls;
          string_of_int p.distinct;
          Value.to_string p.min_value;
          Value.to_string p.max_value;
          (match p.mean with
          | Some m -> Printf.sprintf "%.2f" m
          | None -> "-") |])
  in
  Table_print.render_cells ~header rows
