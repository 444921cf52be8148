open Sheet_rel

type node = {
  level : int;
  key : (string * Value.t) list;
  members : members;
}

and members = Groups of node list | Rows of Row.t list

type t = { schema : Schema.t; members : members }

(* Split consecutive rows into runs with equal values at [positions].
   The rows are already in presentation order, so groups are runs;
   each run is returned as a sub-array slice (one copy, no per-row
   consing). *)
let runs positions data =
  let key row = Row.project_arr row positions in
  let n = Array.length data in
  let out = Vec.create () in
  let i = ref 0 in
  while !i < n do
    let k = key data.(!i) in
    let j = ref (!i + 1) in
    while !j < n && Row.equal (key data.(!j)) k do
      incr j
    done;
    Vec.push out (k, Array.sub data !i (!j - !i));
    i := !j
  done;
  Array.to_list (Vec.to_array out)

let build sheet =
  let rel = Materialize.full_cached sheet in
  let schema = Relation.schema rel in
  let grouping = Spreadsheet.grouping sheet in
  let rec split level data =
    match List.nth_opt grouping.Grouping.levels (level - 2) with
    | None -> Rows (Array.to_list data)
    | Some lv ->
        let positions =
          Array.of_list
            (List.map (Schema.index_exn schema) lv.Grouping.basis_add)
        in
        Groups
          (List.map
             (fun (key_row, group_rows) ->
               { level;
                 key =
                   List.map2
                     (fun name v -> (name, v))
                     lv.Grouping.basis_add
                     (Row.to_list key_row);
                 members = split (level + 1) group_rows })
             (runs positions data))
  in
  { schema; members = split 2 (Relation.to_array rel) }

let rec members_rows = function
  | Rows rows -> rows
  | Groups nodes ->
      List.concat_map (fun (n : node) -> members_rows n.members) nodes

let rows t = members_rows t.members

let group_count t ~level =
  if level = 1 then 1
  else
    let rec count m =
      match m with
      | Rows _ -> 0
      | Groups nodes ->
          List.fold_left
            (fun acc (n : node) ->
              if n.level = level then acc + 1 else acc + count n.members)
            0 nodes
    in
    count t.members

let depth t =
  let rec go = function
    | Rows _ -> 1
    | Groups ((n : node) :: _) -> 1 + go n.members
    | Groups [] -> 1
  in
  go t.members

let to_string ?max_rows t =
  let buf = Buffer.create 1024 in
  let emitted = ref 0 in
  let budget = Option.value max_rows ~default:max_int in
  let indent n = String.make (2 * n) ' ' in
  let rec emit depth m =
    match m with
    | Rows rows ->
        List.iter
          (fun row ->
            if !emitted < budget then begin
              incr emitted;
              Buffer.add_string buf (indent depth);
              Buffer.add_string buf
                (String.concat " | "
                   (List.map Value.to_string (Row.to_list row)));
              Buffer.add_char buf '\n'
            end)
          rows
    | Groups nodes ->
        List.iter
          (fun (n : node) ->
            if !emitted < budget then begin
              Buffer.add_string buf (indent (depth - 1));
              Buffer.add_string buf "+ ";
              Buffer.add_string buf
                (String.concat ", "
                   (List.map
                      (fun (name, v) ->
                        Printf.sprintf "%s = %s" name (Value.to_string v))
                      n.key));
              Buffer.add_char buf '\n';
              emit (depth + 1) n.members
            end)
          nodes
  in
  emit 1 t.members;
  if !emitted >= budget then Buffer.add_string buf "...\n";
  Buffer.contents buf
