open Sheet_rel

type column = {
  name : string;
  ty : Value.vtype;
  level : int option;
  dir : Grouping.dir option;
  computed : bool;
}

type page = {
  columns : column list;
  offset : int;
  rows : Row.t array;
  breaks : bool array;
  total : int;
}

let column sheet (grouping : Grouping.t) (c : Schema.column) =
  let name = c.Schema.name in
  let rec find_level idx = function
    | [] -> None
    | lv :: rest ->
        if List.mem name lv.Grouping.basis_add then Some (idx + 1, lv)
        else find_level (idx + 1) rest
  in
  let level = find_level 0 grouping.Grouping.levels in
  {
    name;
    ty = c.Schema.ty;
    level = Option.map fst level;
    dir =
      (match List.assoc_opt name grouping.Grouping.leaf_order with
      | Some dir -> Some dir
      | None -> Option.map (fun (_, lv) -> lv.Grouping.dir) level);
    computed = Spreadsheet.is_computed sheet name;
  }

let page ?(offset = 0) ?limit sheet =
  let full = Materialize.full_cached sheet in
  let schema = Relation.schema full in
  let total = Relation.cardinality full in
  let offset = max 0 (min offset total) in
  let stop =
    match limit with
    | Some l -> min total (offset + max 0 l)
    | None -> total
  in
  let n = stop - offset in
  (* only the window's rows are built (or read, once built) *)
  let window = Array.init n (fun i -> Relation.get full (offset + i)) in
  let grouping = Spreadsheet.grouping sheet in
  let positions =
    Array.of_list
      (List.map (Schema.index_exn schema) (Spreadsheet.visible_columns sheet))
  in
  let breaks =
    if grouping.Grouping.levels = [] then Array.make n false
    else
      let basis =
        Array.of_list
          (List.map (Schema.index_exn schema) (Grouping.finest_basis grouping))
      in
      let key i = Row.project_arr window.(i) basis in
      Array.init n (fun i -> i < n - 1 && not (Row.equal (key i) (key (i + 1))))
  in
  {
    columns =
      Array.to_list
        (Array.map
           (fun j -> column sheet grouping (Schema.column_at schema j))
           positions);
    offset;
    rows = Array.map (fun row -> Row.project_arr row positions) window;
    breaks;
    total;
  }

let header_decoration c =
  (match c.level with Some l -> " *" ^ string_of_int l | None -> "")
  ^ (match c.dir with
    | Some Grouping.Asc -> " ^"
    | Some Grouping.Desc -> " v"
    | None -> "")
  ^ if c.computed then " =" else ""

let to_string ?max_rows sheet =
  let p = page ?limit:max_rows sheet in
  let columns = Array.of_list p.columns in
  let header = Array.map (fun c -> c.name ^ header_decoration c) columns in
  let align_right = Array.map (fun c -> Value.numeric c.ty) columns in
  let rows =
    Array.map
      (fun row ->
        Array.init (Row.width row) (fun i -> Value.to_string (Row.get row i)))
      p.rows
  in
  let footer =
    match max_rows with
    | Some m when p.total > m ->
        "... ("
        ^ string_of_int (p.total - Array.length p.rows)
        ^ " more rows)\n"
    | _ -> ""
  in
  Table_print.render_cells ~align_right ~header ~breaks:p.breaks ~footer rows

let print ?max_rows sheet = print_string (to_string ?max_rows sheet)

let status_line sheet =
  let rel = Materialize.full_cached sheet in
  Format.asprintf "%s v%d | %d rows | %a" sheet.Spreadsheet.name
    sheet.Spreadsheet.version
    (Relation.cardinality rel)
    Grouping.pp
    (Spreadsheet.grouping sheet)
