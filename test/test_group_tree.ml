(* Tests of the recursive group-tree structure (Sec. II-A). *)

open Sheet_rel
open Sheet_core

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let run_script s script =
  match Script.run_silent s script with
  | Ok s -> s
  | Error msg -> Alcotest.failf "script failed: %s" msg

let session () = Session.create ~name:"cars" Sample_cars.relation

let grouped_sheet () =
  Session.current
    (run_script (session ())
       "group Model desc\ngroup Year asc\norder Price asc")

let test_structure () =
  let tree = Group_tree.build (grouped_sheet ()) in
  Alcotest.(check int) "depth = |G|" 3 (Group_tree.depth tree);
  Alcotest.(check int) "root" 1 (Group_tree.group_count tree ~level:1);
  Alcotest.(check int) "2 models" 2 (Group_tree.group_count tree ~level:2);
  Alcotest.(check int) "4 (model, year) groups" 4
    (Group_tree.group_count tree ~level:3);
  match tree.Group_tree.members with
  | Group_tree.Groups [ jetta; civic ] ->
      Alcotest.(check bool) "Jetta first (desc)" true
        (jetta.Group_tree.key = [ ("Model", Value.String "Jetta") ]);
      Alcotest.(check bool) "Civic second" true
        (civic.Group_tree.key = [ ("Model", Value.String "Civic") ]);
      (match jetta.Group_tree.members with
      | Group_tree.Groups [ y2005; y2006 ] ->
          Alcotest.(check bool) "2005 before 2006 (asc)" true
            (y2005.Group_tree.key = [ ("Year", Value.Int 2005) ]
            && y2006.Group_tree.key = [ ("Year", Value.Int 2006) ]);
          (match y2005.Group_tree.members with
          | Group_tree.Rows rows ->
              Alcotest.(check int) "3 Jetta 2005 rows" 3 (List.length rows)
          | _ -> Alcotest.fail "leaf expected")
      | _ -> Alcotest.fail "expected 2 year groups under Jetta")
  | _ -> Alcotest.fail "expected 2 model groups"

let test_rows_roundtrip () =
  let sheet = grouped_sheet () in
  let tree = Group_tree.build sheet in
  let flat = Relation.rows (Materialize.full sheet) in
  Alcotest.(check bool) "flatten inverts build" true
    (List.equal Row.equal flat (Group_tree.rows tree))

let test_ungrouped_tree () =
  let sheet = Session.current (session ()) in
  let tree = Group_tree.build sheet in
  Alcotest.(check int) "depth 1" 1 (Group_tree.depth tree);
  (match tree.Group_tree.members with
  | Group_tree.Rows rows -> Alcotest.(check int) "all rows" 9 (List.length rows)
  | _ -> Alcotest.fail "flat sheet has no groups")

let test_rendering () =
  let text = Group_tree.to_string (Group_tree.build (grouped_sheet ())) in
  Alcotest.(check bool) "group headers" true
    (contains text "+ Model = Jetta" && contains text "+ Year = 2005");
  Alcotest.(check bool) "indented rows" true (contains text "  ");
  let truncated =
    Group_tree.to_string ~max_rows:2 (Group_tree.build (grouped_sheet ()))
  in
  Alcotest.(check bool) "ellipsis" true (contains truncated "...")

let test_order_groups_ordering () =
  let s =
    run_script (session ())
      "group Model asc\nagg avg Price level 2 as ap\norder-groups ap desc"
  in
  let tree = Group_tree.build (Session.current s) in
  match tree.Group_tree.members with
  | Group_tree.Groups [ first; second ] ->
      (* Jetta's avg 16333 > Civic's 14833: Jetta group first *)
      Alcotest.(check bool) "jetta first" true
        (first.Group_tree.key = [ ("Model", Value.String "Jetta") ]
        && second.Group_tree.key = [ ("Model", Value.String "Civic") ])
  | _ -> Alcotest.fail "expected two groups"

let test_script_tree_command () =
  let s = run_script (session ()) "group Model asc" in
  match Script.run_line s "tree" with
  | Ok { Script.output = Some text; _ } ->
      Alcotest.(check bool) "tree output" true (contains text "+ Model = ")
  | _ -> Alcotest.fail "tree command must produce output"

(* [tree] reads the same cached materialization as [print]: showing
   the tree of a sheet just printed replays nothing *)
let test_tree_after_print_cached () =
  let s = run_script (session ()) "group Model asc\norder Price desc" in
  let run line =
    match Script.run_line s line with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  run "print";
  let replays () =
    Sheet_obs.Obs.Metrics.value_of Sheet_obs.Obs.k_full_replays
  in
  let before = replays () in
  run "tree";
  Alcotest.(check int) "no full replay" before (replays ())

let () =
  Alcotest.run "sheet_group_tree"
    [ ( "tree",
        [ Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "rows roundtrip" `Quick test_rows_roundtrip;
          Alcotest.test_case "ungrouped" `Quick test_ungrouped_tree;
          Alcotest.test_case "rendering" `Quick test_rendering;
          Alcotest.test_case "script command" `Quick
            test_script_tree_command;
          Alcotest.test_case "order-groups ordering" `Quick
            test_order_groups_ordering;
          Alcotest.test_case "tree after print replays nothing" `Quick
            test_tree_after_print_cached ] ) ]
