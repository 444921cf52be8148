(* sheetmusiq-tui — full-screen direct manipulation in the terminal.

   Usage:
     sheetmusiq_tui                     the used-car example
     sheetmusiq_tui <file.csv>          any CSV file
     sheetmusiq_tui --tpch [<table>]    a generated TPC-H table/view

   All interaction logic lives in the pure, tested
   [Sheet_ui.Browser]; this file only translates Notty terminal
   events and repaints. Keys: arrows move, f filter-to-cell, s sort,
   g group, a avg, c count, h hide, u/r undo/redo, m menu, : command,
   F flight-recorder pane, q quit. *)

open Sheet_rel
open Sheet_core
open Sheet_ui

let load_initial () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "--tpch" then begin
    let name = if Array.length argv > 2 then argv.(2) else "lineitem" in
    let catalog =
      Sheet_tpch.Tpch_views.install
        (Sheet_tpch.Tpch_gen.generate
           { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 })
    in
    match Sheet_sql.Catalog.find catalog name with
    | Some rel -> Session.create ~name rel
    | None ->
        Printf.eprintf "unknown TPC-H table %S\n" name;
        exit 2
  end
  else if Array.length argv > 1 then
    match Csv.load_relation (Csv.read_file argv.(1)) with
    | Ok rel -> Session.create ~name:(Filename.basename argv.(1)) rel
    | Error msg | (exception Sys_error msg) ->
        Printf.eprintf "cannot load %s: %s\n" argv.(1) msg;
        exit 2
  else Session.create ~name:"cars" Sample_cars.relation

let image_of_text text =
  let open Notty in
  String.split_on_char '\n' text
  |> List.map (fun line -> I.string A.empty line)
  |> I.vcat

let event_of_notty = function
  | `Key (`Arrow `Up, _) -> Some Browser.Up
  | `Key (`Arrow `Down, _) -> Some Browser.Down
  | `Key (`Arrow `Left, _) -> Some Browser.Left
  | `Key (`Arrow `Right, _) -> Some Browser.Right
  | `Key (`Page `Up, _) -> Some Browser.Page_up
  | `Key (`Page `Down, _) -> Some Browser.Page_down
  | `Key (`Enter, _) -> Some Browser.Enter
  | `Key (`Escape, _) -> Some Browser.Escape
  | `Key (`Backspace, _) -> Some Browser.Backspace
  | `Key (`ASCII c, _) -> Some (Browser.Key c)
  | _ -> None

let () =
  let session = load_initial () in
  let term = Notty_unix.Term.create () in
  let state = ref (Browser.init session) in
  let rec loop () =
    let w, h = Notty_unix.Term.size term in
    Notty_unix.Term.image term
      (image_of_text (Browser.render_text ~width:w ~height:h !state));
    if not !state.Browser.quit then begin
      (match Notty_unix.Term.event term with
      | `End -> state := { !state with Browser.quit = true }
      | ev -> (
          match event_of_notty ev with
          | Some event ->
              state := Browser.handle ~page:(max 1 (h - 4)) !state event
          | None -> ()));
      loop ()
    end
  in
  loop ();
  Notty_unix.Term.release term
