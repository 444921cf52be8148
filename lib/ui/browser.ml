open Sheet_rel
open Sheet_core

type mode =
  | Grid
  | Menu of { items : Context_menu.item list; selected : int }
  | Command of string
  | Recorder

type t = {
  session : Session.t;
  row : int;
  col : int;
  top : int;
  mode : mode;
  message : string;
  last_ms : float option;
  quit : bool;
}

type event =
  | Up
  | Down
  | Left
  | Right
  | Page_down
  | Page_up
  | Enter
  | Escape
  | Backspace
  | Key of char

let init session =
  { session; row = 0; col = 0; top = 0; mode = Grid;
    message = "f filter  s sort  g group  a avg  c count  h hide  u undo  \
               m menu  : command  F flightrec  q quit";
    last_ms = None;
    quit = false }

let sheet t = Session.current t.session

let dims t =
  let p = Render.page ~limit:0 (sheet t) in
  (p.Render.total, List.length p.Render.columns)

let clamp t ~page =
  let rows, cols = dims t in
  let row = max 0 (min t.row (rows - 1)) in
  let col = max 0 (min t.col (cols - 1)) in
  let top =
    if row < t.top then row
    else if row >= t.top + page then row - page + 1
    else t.top
  in
  { t with row; col; top = max 0 top }

let cursor_column t =
  List.nth_opt (Render.page ~limit:0 (sheet t)).Render.columns t.col
  |> Option.map (fun c -> c.Render.name)

let cursor_cell t =
  let p = Render.page ~offset:t.row ~limit:1 (sheet t) in
  match (p.Render.rows, List.nth_opt p.Render.columns t.col) with
  | [| r |], Some c -> Some (c.Render.name, Row.get r t.col)
  | _ -> None

(* current sort direction of a column, to flip on repeated 's' *)
let next_dir t col =
  let grouping = Spreadsheet.grouping (sheet t) in
  match List.assoc_opt col grouping.Grouping.leaf_order with
  | Some Grouping.Asc -> "desc"
  | _ -> "asc"

let run_command t text =
  if String.trim text = "lint" then
    (* analysis lives outside Script's command language; the status
       line shows the worst finding and the total count *)
    let diags = Sheet_analysis.Sheetlint.session t.session in
    let message =
      match Sheet_analysis.Diagnostic.sort diags with
      | [] -> "lint: no diagnostics"
      | [ d ] -> "lint: " ^ Sheet_analysis.Diagnostic.to_string d
      | d :: _ ->
          Printf.sprintf "lint: %d findings — %s" (List.length diags)
            (Sheet_analysis.Diagnostic.to_string d)
    in
    { t with mode = Grid; message }
  else if String.trim text = "doctor" then
    let message =
      match Sheet_analysis.Doctor.run () with
      | [] -> "doctor: no diagnostics"
      | [ d ] -> "doctor: " ^ Sheet_analysis.Diagnostic.to_string d
      | d :: _ as diags ->
          Printf.sprintf "doctor: %d findings — %s" (List.length diags)
            (Sheet_analysis.Diagnostic.to_string d)
    in
    { t with mode = Grid; message }
  else
  match Sheet_obs.Obs.time (fun () -> Script.run_line t.session text) with
  | Ok { Script.session; output }, ms ->
      { t with
        session;
        mode = Grid;
        last_ms = Some ms;
        message =
          (match output with
          | Some out -> (
              (* keep single-line outputs in the status line *)
              match String.index_opt out '\n' with
              | None -> out
              | Some _ -> "ok")
          | None -> text) }
  | Error msg, _ -> { t with mode = Grid; message = "error: " ^ msg }

let apply_key t ~page key =
  match (key, cursor_cell t, cursor_column t) with
  | 'q', _, _ -> { t with quit = true }
  | 'u', _, _ ->
      run_command t "undo"
  | 'r', _, _ -> (
      match Session.redo t.session with
      | Some session -> { t with session; message = "redo" }
      | None -> { t with message = "nothing to redo" })
  | 'f', Some (col, value), _ ->
      let literal =
        match value with
        | Value.String s -> Printf.sprintf "'%s'" s
        | Value.Date _ ->
            Printf.sprintf "DATE '%s'" (Value.to_string value)
        | Value.Null -> ""
        | v -> Value.to_string v
      in
      if Value.is_null value then
        run_command t (Printf.sprintf "select %s IS NULL" col)
      else run_command t (Printf.sprintf "select %s = %s" col literal)
  | 's', _, Some col ->
      run_command t (Printf.sprintf "order %s %s" col (next_dir t col))
  | 'g', _, Some col -> run_command t (Printf.sprintf "group %s" col)
  | 'a', _, Some col -> run_command t (Printf.sprintf "agg avg %s" col)
  | 'c', _, _ -> run_command t "agg count"
  | 'h', _, Some col -> run_command t (Printf.sprintf "hide %s" col)
  | 'm', _, Some col ->
      let items =
        Context_menu.menu
          ~stored:(Store.names (Session.store t.session))
          (sheet t)
          (Context_menu.Header col)
      in
      { t with mode = Menu { items; selected = 0 } }
  | ':', _, _ -> { t with mode = Command "" }
  | 'F', _, _ ->
      { t with mode = Recorder; message = "flight recorder (Esc to close)" }
  | _ -> { t with message = Printf.sprintf "unbound key %C" key }
  [@@warning "-27"]

let handle_grid t ~page = function
  | Up -> clamp ~page { t with row = t.row - 1 }
  | Down -> clamp ~page { t with row = t.row + 1 }
  | Left -> clamp ~page { t with col = t.col - 1 }
  | Right -> clamp ~page { t with col = t.col + 1 }
  | Page_down -> clamp ~page { t with row = t.row + page }
  | Page_up -> clamp ~page { t with row = t.row - page }
  | Enter | Escape | Backspace -> t
  | Key k -> clamp ~page (apply_key t ~page k)

let handle_menu t ~page items selected = function
  | Up ->
      { t with
        mode = Menu { items; selected = max 0 (selected - 1) } }
  | Down ->
      { t with
        mode =
          Menu
            { items;
              selected = min (List.length items - 1) (selected + 1) } }
  | Escape -> { t with mode = Grid; message = "" }
  | Enter ->
      let item = List.nth items selected in
      { t with
        mode = Grid;
        message =
          (if item.Context_menu.enabled then
             item.Context_menu.label ^ ": " ^ item.Context_menu.hint
           else
             "unavailable: "
             ^ Option.value item.Context_menu.reason ~default:"") }
  | _ -> clamp ~page t

let handle_command t ~page text = function
  | Enter -> clamp ~page (run_command t text)
  | Escape -> { t with mode = Grid; message = "" }
  | Backspace ->
      { t with
        mode =
          Command
            (if text = "" then ""
             else String.sub text 0 (String.length text - 1)) }
  | Key c -> { t with mode = Command (text ^ String.make 1 c) }
  | _ -> t

let handle ?(page = 20) t event =
  if t.quit then t
  else
    match t.mode with
    | Grid -> handle_grid t ~page event
    | Menu { items; selected } -> handle_menu t ~page items selected event
    | Command text -> handle_command t ~page text event
    | Recorder -> (
        match event with
        | Escape | Key 'q' | Key 'F' -> { t with mode = Grid; message = "" }
        | _ -> t)

(* ---------- text rendering ---------- *)

let pad width s =
  let n = String.length s in
  if n >= width then String.sub s 0 width else s ^ String.make (width - n) ' '

(* Full-screen flight-recorder pane ([F] in grid mode): the most recent
   profile-ring records, newest last, clipped to the window. *)
let render_flightrec ~width ~height t =
  let buf = Buffer.create 2048 in
  let status = Render.status_line (sheet t) in
  Buffer.add_string buf (pad width status);
  Buffer.add_char buf '\n';
  let body =
    Sheet_obs.Obs.Profile.render ~limit:(max 1 (height - 3)) ()
  in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         Buffer.add_string buf (pad width line);
         Buffer.add_char buf '\n');
  Buffer.add_string buf (pad width t.message);
  Buffer.contents buf

let render_text ?(width = 100) ?(height = 24) t =
  if t.mode = Recorder then render_flightrec ~width ~height t
  else
  let page = max 1 (height - 4) in
  let p = Render.page ~offset:t.top ~limit:page (sheet t) in
  let cols = List.map (fun c -> c.Render.name) p.Render.columns in
  (* content-based column widths (header and the cells on screen) *)
  let widths =
    List.mapi
      (fun j name ->
        Array.fold_left
          (fun acc row ->
            max acc (String.length (Value.to_string (Row.get row j)) + 2))
          (max 8 (String.length name + 2))
          p.Render.rows)
      cols
  in
  let buf = Buffer.create 2048 in
  (* status, with the last command's wall time when known *)
  let status =
    let base = Render.status_line (sheet t) in
    let base =
      match t.last_ms with
      | Some ms -> Printf.sprintf "%s | last %.1f ms" base ms
      | None -> base
    in
    base ^ " | " ^ Sheet_obs.Obs.Slo.summary () ^ " | "
    ^ Sheet_analysis.Doctor.summary ()
  in
  Buffer.add_string buf (pad width status);
  Buffer.add_char buf '\n';
  (* header with cursor column marked *)
  let header =
    String.concat " "
      (List.mapi
         (fun i c ->
           let w = List.nth widths i in
           pad w (if i = t.col then "[" ^ c ^ "]" else " " ^ c))
         cols)
  in
  Buffer.add_string buf (pad width header);
  Buffer.add_char buf '\n';
  (* grid with group separators *)
  Array.iteri
    (fun k row ->
      let i = p.Render.offset + k in
      let line =
        String.concat " "
          (List.mapi
             (fun j v ->
               let w = List.nth widths j in
               let text = Value.to_string v in
               pad w
                 (if i = t.row && j = t.col then "[" ^ text ^ "]"
                  else " " ^ text))
             (Row.to_list row))
      in
      Buffer.add_string buf (pad width line);
      Buffer.add_char buf '\n';
      if p.Render.breaks.(k) then begin
        Buffer.add_string buf (pad width (String.make (min width 40) '-'));
        Buffer.add_char buf '\n'
      end)
    p.Render.rows;
  (* mode line *)
  (match t.mode with
  | Grid | Recorder -> Buffer.add_string buf (pad width t.message)
  | Command text -> Buffer.add_string buf (pad width (":" ^ text))
  | Menu { items; selected } ->
      List.iteri
        (fun i item ->
          let marker = if i = selected then "> " else "  " in
          let label =
            if item.Context_menu.enabled then item.Context_menu.label
            else "(" ^ item.Context_menu.label ^ ")"
          in
          Buffer.add_string buf (pad width (marker ^ label));
          Buffer.add_char buf '\n')
        items);
  Buffer.contents buf
