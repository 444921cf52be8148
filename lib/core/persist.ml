open Sheet_rel

(* A fault aborts the parse where it is found; [of_string] and [load]
   turn it into an [Error]. *)
exception Malformed of string

let err fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let ty_name = Value.type_name

let ty_of_name = function
  | "bool" -> Value.TBool
  | "int" -> Value.TInt
  | "float" -> Value.TFloat
  | "string" -> Value.TString
  | "date" -> Value.TDate
  | other -> err "unknown type %S" other

let dir_to_string = function Grouping.Asc -> "ASC" | Grouping.Desc -> "DESC"

let dir_of_string = function
  | "ASC" -> Grouping.Asc
  | "DESC" -> Grouping.Desc
  | other -> err "unknown direction %S" other

let to_string (sheet : Spreadsheet.t) =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let state = sheet.Spreadsheet.state in
  pf "musiq-sheet v1\n";
  pf "name %s\n" sheet.Spreadsheet.name;
  pf "base_name %s\n" sheet.Spreadsheet.base_name;
  pf "version %d\n" sheet.Spreadsheet.version;
  List.iter
    (fun (s : Query_state.selection) ->
      pf "selection %d %s\n" s.Query_state.id
        (Expr.to_string s.Query_state.pred))
    state.Query_state.selections;
  List.iter (fun col -> pf "hidden %s\n" col) state.Query_state.hidden;
  List.iter
    (fun (c : Computed.t) ->
      match c.Computed.spec with
      | Computed.Aggregate { fn; arg; level } ->
          pf "computed agg %s %d %s = %s(%s)\n" (ty_name c.Computed.ty)
            level c.Computed.name (Expr.agg_fun_name fn)
            (match arg with
            | Some (Expr.Col col) -> col
            | Some e -> Expr.to_string e
            | None -> "*")
      | Computed.Formula e ->
          pf "computed formula %s %s = %s\n" (ty_name c.Computed.ty)
            c.Computed.name (Expr.to_string e))
    state.Query_state.computed;
  if state.Query_state.dedup then pf "dedup\n";
  let grouping = state.Query_state.grouping in
  List.iter
    (fun (lv : Grouping.level) ->
      pf "group %s %s%s\n"
        (dir_to_string lv.Grouping.dir)
        (String.concat "," lv.Grouping.basis_add)
        (match lv.Grouping.order_by_value with
        | Some (col, d) -> Printf.sprintf " by %s %s" col (dir_to_string d)
        | None -> ""))
    grouping.Grouping.levels;
  List.iter
    (fun (col, dir) -> pf "leaf %s %s\n" (dir_to_string dir) col)
    grouping.Grouping.leaf_order;
  pf "data\n";
  (* data header carries the types: name:type *)
  let schema = Relation.schema sheet.Spreadsheet.base in
  let typed_header =
    Relation.unsafe_make
      (Schema.of_list
         (List.map
            (fun c ->
              (Printf.sprintf "%s:%s" c.Schema.name (ty_name c.Schema.ty),
               c.Schema.ty))
            (Schema.columns schema)))
      (Relation.rows sheet.Spreadsheet.base)
  in
  Buffer.add_string buf (Csv.of_relation typed_header);
  Buffer.contents buf

let split2 line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )

let parse_expr_exn what text =
  match Expr_parse.parse_string text with
  | Ok e -> e
  | Error msg -> err "bad %s %S: %s" what text msg

let parse_computed rest =
  (* "agg <ty> <level> <name> = <fn>(<arg>)"
     or "formula <ty> <name> = <expr>" *)
  let kind, rest = split2 rest in
  match kind with
  | "agg" -> (
      let ty, rest = split2 rest in
      let level, rest = split2 rest in
      let name, rest = split2 rest in
      let eq, rhs = split2 rest in
      if eq <> "=" then err "malformed computed line"
      else
        match String.index_opt rhs '(' with
        | None -> err "malformed aggregate %S" rhs
        | Some i ->
            let fn_name = String.sub rhs 0 i in
            let arg_text =
              String.sub rhs (i + 1) (String.length rhs - i - 2)
            in
            let fn =
              match fn_name with
              | "count" when arg_text = "*" -> Expr.Count_star
              | "count" -> Expr.Count
              | "count_distinct" -> Expr.Count_distinct
              | "sum" -> Expr.Sum
              | "avg" -> Expr.Avg
              | "min" -> Expr.Min
              | "max" -> Expr.Max
              | other -> err "unknown aggregate %S" other
            in
            let arg =
              if arg_text = "*" then None
              else Some (parse_expr_exn "aggregate argument" arg_text)
            in
            let level =
              match int_of_string_opt level with
              | Some l -> l
              | None -> err "bad level %S" level
            in
            { Computed.name;
              ty = ty_of_name ty;
              spec = Computed.Aggregate { fn; arg; level } })
  | "formula" ->
      let ty, rest = split2 rest in
      let name, rest = split2 rest in
      let eq, rhs = split2 rest in
      if eq <> "=" then err "malformed computed line"
      else
        { Computed.name;
          ty = ty_of_name ty;
          spec = Computed.Formula (parse_expr_exn "formula" rhs) }
  | other -> err "unknown computed kind %S" other

let parse text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | header :: rest when String.trim header = "musiq-sheet v1" ->
      let name = ref "sheet" in
      let base_name = ref "sheet" in
      let version = ref 0 in
      let selections = ref [] in
      let hidden = ref [] in
      let computed = ref [] in
      let dedup = ref false in
      let levels = ref [] in
      let leaf = ref [] in
      let rec header_lines = function
        | [] -> err "missing data section"
        | line :: rest -> (
            let line = String.trim line in
            if line = "data" then rest
            else if line = "" then header_lines rest
            else
              let key, value = split2 line in
              match key with
              | "name" ->
                  name := value;
                  header_lines rest
              | "base_name" ->
                  base_name := value;
                  header_lines rest
              | "version" ->
                  version := Option.value (int_of_string_opt value) ~default:0;
                  header_lines rest
              | "selection" ->
                  let id_text, pred_text = split2 value in
                  let id =
                    match int_of_string_opt id_text with
                    | Some i -> i
                    | None -> err "bad selection id %S" id_text
                  in
                  selections :=
                    { Query_state.id;
                      pred = parse_expr_exn "selection" pred_text }
                    :: !selections;
                  header_lines rest
              | "hidden" ->
                  hidden := value :: !hidden;
                  header_lines rest
              | "computed" ->
                  computed := parse_computed value :: !computed;
                  header_lines rest
              | "dedup" ->
                  dedup := true;
                  header_lines rest
              | "group" ->
                  let dir_text, rest_text = split2 value in
                  let cols_text, order_by_value =
                    (* optional " by <col> <dir>" suffix *)
                    match String.index_opt rest_text ' ' with
                    | Some _ -> (
                        match String.split_on_char ' ' rest_text with
                        | [ cols; "by"; col; d ] ->
                            (cols, Some (col, dir_of_string d))
                        | _ -> (rest_text, None))
                    | None -> (rest_text, None)
                  in
                  levels :=
                    { Grouping.basis_add =
                        String.split_on_char ',' cols_text
                        |> List.map String.trim
                        |> List.filter (fun c -> c <> "");
                      dir = dir_of_string dir_text;
                      order_by_value }
                    :: !levels;
                  header_lines rest
              | "leaf" ->
                  let dir_text, col = split2 value in
                  leaf := (col, dir_of_string dir_text) :: !leaf;
                  header_lines rest
              | other -> err "unknown header line %S" other)
      in
      let data_lines = header_lines rest in
      let csv_text = String.concat "\n" data_lines in
      let raw =
        match Csv.load_relation csv_text with
        | Ok raw -> raw
        | Error msg -> err "data section: %s" msg
      in
      (* decode the name:type header and re-type the columns *)
      let schema =
        try
          Schema.of_list
          (List.map
             (fun c ->
               match String.index_opt c.Schema.name ':' with
               | None -> err "data header %S lacks a type" c.Schema.name
               | Some i ->
                   let col = String.sub c.Schema.name 0 i in
                   let ty =
                     ty_of_name
                       (String.sub c.Schema.name (i + 1)
                          (String.length c.Schema.name - i - 1))
                   in
                   (col, ty))
             (Schema.columns (Relation.schema raw)))
        with Schema.Schema_error msg -> err "data header: %s" msg
      in
      let rows =
        List.map
          (fun row ->
            Row.of_list
              (List.mapi
                 (fun i v ->
                   let target = (Schema.column_at schema i).Schema.ty in
                   match (v, target) with
                   | Value.Null, _ -> Value.Null
                   | v, ty -> (
                       (* reparse through the display form to coerce
                          inferred types (e.g. "2005-01-02" parsed as
                          date when the column is a string) *)
                       match Value.parse_typed ty (Value.to_string v) with
                       | Some v -> v
                       | None ->
                           err "value %s does not fit column type %s"
                             (Value.to_string v) (Value.type_name ty)))
                 (Row.to_list row)))
          (Relation.rows raw)
      in
      let base =
        try Relation.make schema rows
        with Relation.Relation_error msg -> err "data: %s" msg
      in
      { Spreadsheet.uid = Spreadsheet.fresh_uid ();
        name = !name;
        base_name = !base_name;
        version = !version;
        base;
        state =
          { Query_state.selections = List.rev !selections;
            hidden = List.rev !hidden;
            computed = List.rev !computed;
            dedup = !dedup;
            grouping =
              { Grouping.levels = List.rev !levels;
                leaf_order = List.rev !leaf } } }
  | _ -> err "not a musiq-sheet file"

let of_string text =
  match parse text with
  | sheet -> Ok sheet
  | exception Malformed msg -> Error msg

let save sheet ~path =
  match Csv.write_file path (to_string sheet) with
  | () -> Ok ()
  | exception Sys_error msg ->
      Error (Printf.sprintf "cannot write %s: %s" path msg)

let load ~path =
  match Csv.read_file path with
  | text -> of_string text
  | exception Sys_error msg ->
      Error (Printf.sprintf "cannot read %s: %s" path msg)
