open Sheet_rel

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let css =
  {|  body { font-family: system-ui, sans-serif; margin: 2rem; }
  h1 { font-size: 1.2rem; }
  .meta { color: #555; margin-bottom: 1rem; }
  table { border-collapse: collapse; }
  th, td { padding: 0.25rem 0.6rem; border: 1px solid #ccc; }
  th { background: #f2f2f2; text-align: left; }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  th .arrow { color: #0a58ca; }
  th .level { background: #0a58ca; color: white; border-radius: 0.6em;
              padding: 0 0.4em; font-size: 0.75em; margin-left: 0.3em; }
  th.computed, td.computed { background: #fff8e1; }
  tr.group-b td { background: #f7fbff; }
  tr.group-b td.computed { background: #f3ecd0; }
  tr.boundary td { border-top: 2px solid #888; }
|}

let header_cell (c : Render.column) =
  let level_badge =
    match c.level with
    | Some l -> Printf.sprintf {|<span class="level">g%d</span>|} l
    | None -> ""
  in
  let arrow =
    match c.dir with
    | Some Grouping.Asc -> {|<span class="arrow">&#9650;</span>|}
    | Some Grouping.Desc -> {|<span class="arrow">&#9660;</span>|}
    | None -> ""
  in
  let cls = if c.computed then {| class="computed"|} else "" in
  Printf.sprintf "<th%s>%s %s%s</th>" cls (escape c.name) arrow level_badge

let class_attr = function
  | [] -> ""
  | cs -> Printf.sprintf {| class="%s"|} (String.concat " " cs)

let to_html ?title sheet =
  let title =
    Option.value title ~default:(sheet.Spreadsheet.name ^ " — SheetMusiq")
  in
  let p = Render.page sheet in
  let cell_classes =
    Array.of_list
      (List.map
         (fun (c : Render.column) ->
           (if Value.numeric c.ty then [ "num" ] else [])
           @ if c.computed then [ "computed" ] else [])
         p.columns)
  in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>%s</title>\n<style>\n%s</style></head>\n<body>\n"
    (escape title) css;
  pf "<h1>%s</h1>\n" (escape title);
  pf "<p class=\"meta\">%s</p>\n" (escape (Render.status_line sheet));
  pf "<table>\n<thead><tr>";
  List.iter (fun c -> Buffer.add_string buf (header_cell c)) p.columns;
  pf "</tr></thead>\n<tbody>\n";
  let group_idx = ref 0 in
  Array.iteri
    (fun i row ->
      pf "<tr%s>"
        (class_attr
           ((if !group_idx mod 2 = 1 then [ "group-b" ] else [])
           @ if i > 0 && p.breaks.(i - 1) then [ "boundary" ] else []));
      Array.iteri
        (fun j v ->
          pf "<td%s>%s</td>" (class_attr cell_classes.(j))
            (escape (Value.to_string v)))
        row;
      pf "</tr>\n";
      if p.breaks.(i) then incr group_idx)
    p.rows;
  pf "</tbody>\n</table>\n</body></html>\n";
  Buffer.contents buf

let save ?title sheet ~path = Csv.write_file path (to_html ?title sheet)
