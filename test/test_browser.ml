(* Tests of the direct-manipulation browser view-model: every key
   binding, cursor/scroll clamping, menu and command modes. *)

open Sheet_rel
open Sheet_core
open Sheet_ui

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let start () =
  Browser.init (Session.create ~name:"cars" Sample_cars.relation)

let visible s = Session.materialized s.Browser.session

let feed ?page state events =
  List.fold_left (fun s e -> Browser.handle ?page s e) state events

let test_cursor_movement () =
  let s = start () in
  let s = feed s [ Browser.Down; Browser.Down; Browser.Right ] in
  Alcotest.(check int) "row" 2 s.Browser.row;
  Alcotest.(check int) "col" 1 s.Browser.col;
  (match Browser.cursor_cell s with
  | Some ("Model", v) ->
      Alcotest.(check bool) "cell value" true
        (Value.equal v (Value.String "Jetta"))
  | _ -> Alcotest.fail "cursor cell");
  (* clamping at the edges *)
  let s = feed s (List.init 50 (fun _ -> Browser.Up)) in
  Alcotest.(check int) "clamped top" 0 s.Browser.row;
  let s = feed s (List.init 50 (fun _ -> Browser.Down)) in
  Alcotest.(check int) "clamped bottom" 8 s.Browser.row;
  let s = feed s (List.init 50 (fun _ -> Browser.Right)) in
  Alcotest.(check int) "clamped right" 5 s.Browser.col

let test_scrolling () =
  let s = start () in
  let s = feed ~page:3 s (List.init 8 (fun _ -> Browser.Down)) in
  Alcotest.(check int) "row at bottom" 8 s.Browser.row;
  Alcotest.(check bool) "scrolled" true (s.Browser.top > 0);
  let s = feed ~page:3 s [ Browser.Page_up ] in
  Alcotest.(check int) "page up" 5 s.Browser.row

let test_filter_key () =
  let s = start () in
  (* cursor on ID of the first row (304): 'f' filters to that value *)
  let s = feed s [ Browser.Key 'f' ] in
  Alcotest.(check int) "one row left" 1
    (Relation.cardinality (visible s));
  (* undo brings everything back *)
  let s = feed s [ Browser.Key 'u' ] in
  Alcotest.(check int) "undone" 9 (Relation.cardinality (visible s))

let test_filter_string_cell () =
  let s = feed (start ()) [ Browser.Right; Browser.Key 'f' ] in
  (* Model = 'Jetta' *)
  Alcotest.(check int) "six Jettas" 6
    (Relation.cardinality (visible s))

let test_sort_key_flips () =
  let s = start () in
  (* move to Price column and sort twice *)
  let s = feed s [ Browser.Right; Browser.Right; Browser.Key 's' ] in
  let first_price rel =
    match Relation.rows rel with
    | r :: _ -> Row.get r 2
    | [] -> Value.Null
  in
  Alcotest.(check bool) "ascending first" true
    (Value.equal (first_price (visible s)) (Value.Int 13500));
  let s = feed s [ Browser.Key 's' ] in
  Alcotest.(check bool) "flips to descending" true
    (Value.equal (first_price (visible s)) (Value.Int 18000))

let test_group_and_agg_keys () =
  let s = start () in
  let s = feed s [ Browser.Right; Browser.Key 'g' ] in
  Alcotest.(check int) "grouped by Model" 2
    (Grouping.num_levels (Spreadsheet.grouping (Session.current s.Browser.session)));
  let s = feed s [ Browser.Right; Browser.Key 'a' ] in
  Alcotest.(check bool) "avg column appears" true
    (Schema.mem (Relation.schema (visible s)) "Avg_Price");
  let s = feed s [ Browser.Key 'c' ] in
  Alcotest.(check bool) "count column appears" true
    (Schema.mem (Relation.schema (visible s)) "Count")

let test_hide_key () =
  let s = feed (start ()) [ Browser.Key 'h' ] in
  Alcotest.(check bool) "ID hidden" false
    (Schema.mem (Relation.schema (visible s)) "ID")

let test_menu_mode () =
  let s = feed (start ()) [ Browser.Key 'm' ] in
  (match s.Browser.mode with
  | Browser.Menu { items; selected = 0 } ->
      Alcotest.(check bool) "menu has entries" true (List.length items > 3)
  | _ -> Alcotest.fail "menu mode expected");
  let s = feed s [ Browser.Down; Browser.Down; Browser.Enter ] in
  (match s.Browser.mode with
  | Browser.Grid ->
      Alcotest.(check bool) "hint in message" true
        (String.length s.Browser.message > 0)
  | _ -> Alcotest.fail "back to grid");
  (* escape also leaves the menu *)
  let s = feed s [ Browser.Key 'm'; Browser.Escape ] in
  Alcotest.(check bool) "escape closes" true (s.Browser.mode = Browser.Grid)

let test_command_mode () =
  let s = feed (start ()) [ Browser.Key ':' ] in
  let typed = "select Year = 2005" in
  let s =
    feed s (List.init (String.length typed) (fun i -> Browser.Key typed.[i]))
  in
  (match s.Browser.mode with
  | Browser.Command text -> Alcotest.(check string) "typed" typed text
  | _ -> Alcotest.fail "command mode");
  let s = feed s [ Browser.Enter ] in
  Alcotest.(check int) "command applied" 4
    (Relation.cardinality (visible s));
  (* backspace editing and escape *)
  let s = feed s [ Browser.Key ':'; Browser.Key 'x'; Browser.Backspace ] in
  (match s.Browser.mode with
  | Browser.Command "" -> ()
  | _ -> Alcotest.fail "backspace");
  let s = feed s [ Browser.Escape ] in
  Alcotest.(check bool) "escape cancels" true (s.Browser.mode = Browser.Grid)

let test_command_errors_reported () =
  let s = feed (start ())
      [ Browser.Key ':'; Browser.Key 'b'; Browser.Key 'a'; Browser.Key 'd';
        Browser.Enter ]
  in
  Alcotest.(check bool) "error surfaced" true
    (contains s.Browser.message "error")

let test_quit () =
  let s = feed (start ()) [ Browser.Key 'q' ] in
  Alcotest.(check bool) "quit flag" true s.Browser.quit;
  (* further events are ignored *)
  let s2 = feed s [ Browser.Down ] in
  Alcotest.(check int) "frozen" s.Browser.row s2.Browser.row

let test_render_text () =
  let s = feed (start ()) [ Browser.Down; Browser.Right ] in
  let text = Browser.render_text ~width:120 ~height:20 s in
  Alcotest.(check bool) "cursor column bracketed in header" true
    (contains text "[Model]");
  Alcotest.(check bool) "cursor cell bracketed" true
    (contains text "[Jetta]");
  Alcotest.(check bool) "status present" true (contains text "cars");
  let s = feed s [ Browser.Key ':' ] in
  let text = Browser.render_text s in
  Alcotest.(check bool) "command prompt" true (contains text ":");
  (* columns fit the rows on screen: a long cell below the window
     widens its column only once it scrolls into view *)
  let rel =
    Relation.make
      (Schema.of_list [ ("col", Value.TString); ("zz", Value.TInt) ])
      (List.map
         (fun v -> Row.of_list [ Value.String v; Value.Int 1 ])
         [ "a"; "b"; "c"; String.make 30 'x' ])
  in
  let s = Browser.init (Session.create ~name:"t" rel) in
  let zz_at s =
    let text = Browser.render_text ~width:100 ~height:6 s in
    let header = List.nth (String.split_on_char '\n' text) 1 in
    let rec find i = if String.sub header i 2 = "zz" then i else find (i + 1) in
    find 0
  in
  Alcotest.(check int) "narrow while off screen" 10 (zz_at s);
  Alcotest.(check int) "wide once on screen" 34
    (zz_at (feed ~page:2 s [ Browser.Down; Browser.Down; Browser.Down ]))

let test_flightrec_pane () =
  Sheet_obs.Obs.Profile.clear ();
  (* a keystroke op so the pane has something to show *)
  let s = feed (start ()) [ Browser.Key 's' ] in
  let s = feed s [ Browser.Key 'F' ] in
  Alcotest.(check bool) "F opens the pane" true
    (s.Browser.mode = Browser.Recorder);
  let text = Browser.render_text ~width:120 ~height:20 s in
  Alcotest.(check bool) "pane shows the recorded op" true
    (contains text "op");
  (* movement keys do not disturb the pane *)
  let s = feed s [ Browser.Down; Browser.Up ] in
  Alcotest.(check bool) "pane stays open" true
    (s.Browser.mode = Browser.Recorder);
  let s = feed s [ Browser.Escape ] in
  Alcotest.(check bool) "escape closes" true
    (s.Browser.mode = Browser.Grid);
  Sheet_obs.Obs.Profile.clear ()

let () =
  Alcotest.run "sheet_browser"
    [ ( "grid",
        [ Alcotest.test_case "cursor movement" `Quick test_cursor_movement;
          Alcotest.test_case "scrolling" `Quick test_scrolling;
          Alcotest.test_case "filter key" `Quick test_filter_key;
          Alcotest.test_case "filter string cell" `Quick
            test_filter_string_cell;
          Alcotest.test_case "sort key flips" `Quick test_sort_key_flips;
          Alcotest.test_case "group/agg keys" `Quick test_group_and_agg_keys;
          Alcotest.test_case "hide key" `Quick test_hide_key;
          Alcotest.test_case "quit" `Quick test_quit ] );
      ( "modes",
        [ Alcotest.test_case "menu" `Quick test_menu_mode;
          Alcotest.test_case "command line" `Quick test_command_mode;
          Alcotest.test_case "command errors" `Quick
            test_command_errors_reported;
          Alcotest.test_case "render" `Quick test_render_text;
          Alcotest.test_case "flight-recorder pane" `Quick
            test_flightrec_pane ] ) ]
