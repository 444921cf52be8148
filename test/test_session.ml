(* Tests of the session layer: history bookkeeping, undo/redo stack
   discipline, the store, and interactions between them. *)

open Sheet_rel
open Sheet_core

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let session () = Session.create ~name:"cars" Sample_cars.relation

let run s script =
  match Script.run_silent s script with
  | Ok s -> s
  | Error msg -> Alcotest.failf "script failed: %s" msg

let test_history_labels () =
  let s =
    run (session ())
      "select Year = 2005\ngroup Model asc\nagg avg Price level 2\nhide ID"
  in
  let labels = List.map (fun e -> e.Session.label) (Session.history s) in
  Alcotest.(check (list string)) "numbered meaningful names"
    [ "Load cars"; "Select Year = 2005"; "Group by {Model} ASC";
      "Aggregate avg(Price) at level 2"; "Hide column ID" ]
    labels;
  let indices = List.map (fun e -> e.Session.index) (Session.history s) in
  Alcotest.(check (list int)) "1-based indices" [ 1; 2; 3; 4; 5 ] indices

let test_redo_cleared_on_new_op () =
  let s = run (session ()) "select Year = 2005" in
  let s = Option.get (Session.undo s) in
  Alcotest.(check bool) "redo available" true (Session.can_redo s);
  let s = run s "select Year = 2006" in
  Alcotest.(check bool) "redo cleared by a new operation" false
    (Session.can_redo s)

let test_undo_bottom () =
  let s = session () in
  Alcotest.(check bool) "cannot undo the initial load" false
    (Session.can_undo s);
  Alcotest.(check bool) "undo returns None at the bottom" true
    (Option.is_none (Session.undo s));
  let s = Session.undo_many (run s "select Year = 2005") 99 in
  Alcotest.(check int) "undo_many stops at the bottom" 9
    (Relation.cardinality (Session.materialized s))

let test_save_is_a_snapshot () =
  let s = run (session ()) "select Model = 'Jetta'" in
  let s = Session.save_as s "jettas" in
  (* keep working on the current sheet *)
  let s = run s "select Year = 2006" in
  Alcotest.(check int) "current narrowed" 3
    (Relation.cardinality (Session.materialized s));
  (* the snapshot is unaffected *)
  match Session.open_sheet s "jettas" with
  | Error e -> Alcotest.fail (Errors.to_string e)
  | Ok s2 ->
      Alcotest.(check int) "snapshot unchanged" 6
        (Relation.cardinality (Session.materialized s2));
      (* and its selection is still modifiable after reopening *)
      let sels = Session.selections_on s2 "Model" in
      Alcotest.(check int) "state travels with the sheet" 1
        (List.length sels)

let test_open_is_undoable () =
  let s = Session.save_as (session ()) "orig" in
  let s = run s "select Year = 2005" in
  match Session.open_sheet s "orig" with
  | Error e -> Alcotest.fail (Errors.to_string e)
  | Ok s2 ->
      Alcotest.(check int) "opened sheet current" 9
        (Relation.cardinality (Session.materialized s2));
      let s3 = Option.get (Session.undo s2) in
      Alcotest.(check int) "undo returns to the filtered sheet" 4
        (Relation.cardinality (Session.materialized s3))

let test_store_listing () =
  let s = session () in
  Alcotest.(check (list string)) "empty" []
    (Store.names (Session.store s));
  let s = Session.save_as s "bbb" in
  let s = Session.save_as s "aaa" in
  Alcotest.(check (list string)) "sorted" [ "aaa"; "bbb" ]
    (Store.names (Session.store s));
  Alcotest.(check bool) "close existing" true
    (Store.close (Session.store s) "aaa");
  Alcotest.(check bool) "close missing" false
    (Store.close (Session.store s) "aaa")

let test_load_relation_switch () =
  let s = run (session ()) "select Year = 2005" in
  let small =
    Relation.make
      (Schema.of_list [ ("x", Value.TInt) ])
      [ Row.of_list [ Value.Int 1 ] ]
  in
  let s = Session.load_relation s ~name:"tiny" small in
  Alcotest.(check int) "switched" 1
    (Relation.cardinality (Session.materialized s));
  Alcotest.(check bool) "history notes the load" true
    (List.exists
       (fun e -> contains e.Session.label "Load tiny")
       (Session.history s));
  (* undo returns to the cars sheet *)
  let s = Option.get (Session.undo s) in
  Alcotest.(check int) "back to cars" 4
    (Relation.cardinality (Session.materialized s))

let test_goto () =
  let s =
    run (session ())
      "select Year = 2005\nselect Model = 'Jetta'\nhide Mileage"
  in
  (* timeline: 1 Load, 2 select, 3 select, 4 hide *)
  let s2 = Option.get (Session.goto s 2) in
  Alcotest.(check int) "at entry 2: one selection" 4
    (Relation.cardinality (Session.materialized s2));
  Alcotest.(check bool) "redo available from there" true
    (Session.can_redo s2);
  let s4 = Option.get (Session.goto s2 4) in
  Alcotest.(check bool) "back at the tip: Mileage hidden" false
    (Schema.mem (Relation.schema (Session.materialized s4)) "Mileage");
  Alcotest.(check bool) "same place is identity" true
    (Option.is_some (Session.goto s4 4));
  Alcotest.(check bool) "index 0 rejected" true
    (Option.is_none (Session.goto s 0));
  Alcotest.(check bool) "index past the end rejected" true
    (Option.is_none (Session.goto s 99))

let test_modification_is_a_history_entry () =
  let s = run (session ()) "select Year = 2005" in
  let id = (List.hd (Session.selections_on s "Year")).Query_state.id in
  match Session.replace_selection s ~id
          (Expr_parse.parse_string_exn "Year = 2006") with
  | Error e -> Alcotest.fail (Errors.to_string e)
  | Ok s ->
      Alcotest.(check bool) "history entry recorded" true
        (List.exists
           (fun e -> contains e.Session.label "Modify selection")
           (Session.history s));
      (* modification is itself undoable *)
      let s = Option.get (Session.undo s) in
      let years =
        Relation.column_values (Session.materialized s) "Year"
      in
      Alcotest.(check bool) "undo restores 2005" true
        (List.for_all (Value.equal (Value.Int 2005)) years)

(* ---------- the flight recorder sees what the session did ---------- *)

module Obs = Sheet_obs.Obs
module P = Obs.Profile

let flight_kinds () = List.map (fun r -> r.P.p_kind) (P.records ())

let test_flightrec_records_ops () =
  P.clear ();
  let s = run (session ()) "select Year = 2005\ngroup Model asc" in
  Alcotest.(check bool) "op events recorded" true
    (List.length
       (List.filter (fun k -> k = "op") (flight_kinds ()))
    >= 2);
  let s = Option.get (Session.undo s) in
  let s = Option.get (Session.redo s) in
  ignore s;
  Alcotest.(check bool) "undo recorded" true
    (List.mem "undo" (flight_kinds ()));
  Alcotest.(check bool) "redo recorded" true
    (List.mem "redo" (flight_kinds ()));
  (* op events carry the sheet uid and a duration *)
  let op = List.find (fun r -> r.P.p_kind = "op") (P.records ()) in
  Alcotest.(check bool) "uid attached" true (op.P.p_uid > 0);
  Alcotest.(check bool) "duration attached" true (op.P.p_total_ns >= 0);
  P.clear ()

let test_flightrec_records_rejections () =
  P.clear ();
  let s = session () in
  (match Session.apply s (Op.Project "NoSuchColumn") with
  | Ok _ -> Alcotest.fail "projecting a missing column should fail"
  | Error _ -> ());
  Alcotest.(check bool) "rejection recorded" true
    (List.mem "op-rejected" (flight_kinds ()));
  P.clear ()

(* an op that takes 100 ms or more is marked slow in the view: a test
   clock that jumps 50 ms per reading makes this one slow *)
let test_flightrec_slow_op_marker () =
  P.clear ();
  let t = ref (Obs.now_ns ()) in
  Obs.set_raw_clock_for_tests
    (Some
       (fun () ->
         t := !t + 50_000_000;
         !t));
  Fun.protect
    ~finally:(fun () ->
      Obs.set_raw_clock_for_tests None;
      P.clear ())
  @@ fun () ->
  ignore (run (session ()) "select Year = 2005");
  Alcotest.(check bool) "slow op marked" true
    (List.exists
       (fun line -> contains line " op " && contains line "  slow")
       (String.split_on_char '\n' (P.render ())))

let () =
  Alcotest.run "sheet_session"
    [ ( "history",
        [ Alcotest.test_case "labels" `Quick test_history_labels;
          Alcotest.test_case "redo cleared" `Quick
            test_redo_cleared_on_new_op;
          Alcotest.test_case "undo bottom" `Quick test_undo_bottom;
          Alcotest.test_case "modification entry" `Quick
            test_modification_is_a_history_entry;
          Alcotest.test_case "goto" `Quick test_goto ] );
      ( "store",
        [ Alcotest.test_case "save snapshots" `Quick test_save_is_a_snapshot;
          Alcotest.test_case "open is undoable" `Quick test_open_is_undoable;
          Alcotest.test_case "listing/close" `Quick test_store_listing;
          Alcotest.test_case "load relation" `Quick
            test_load_relation_switch ] );
      ( "flightrec",
        [ Alcotest.test_case "ops, undo, redo recorded" `Quick
            test_flightrec_records_ops;
          Alcotest.test_case "rejections recorded" `Quick
            test_flightrec_records_rejections;
          Alcotest.test_case "slow-op marker" `Quick
            test_flightrec_slow_op_marker ] ) ]
