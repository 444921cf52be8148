(* A durable analysis workflow: profile the data, build a query by
   direct manipulation, save the *live* sheet to disk, reload it in a
   "later session", and keep modifying the query where it left off.

   Run with:  dune exec examples/durable_analysis.exe

   This exercises the Save/Open housekeeping operators of Sec. III-C
   backed by real files (Persist), and shows that what is saved is the
   modifiable query state of Sec. V, not a frozen result. *)

open Sheet_rel
open Sheet_core

let run session command =
  match Script.run_silent session command with
  | Ok session -> session
  | Error msg -> failwith (command ^ ": " ^ msg)

let show title session =
  Printf.printf "\n=== %s ===\n\n" title;
  Render.print (Session.current session)

let () =
  let path = Filename.temp_file "musiq_demo" ".sheet" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* --- session one: explore and save --- *)
      let session = Session.create ~name:"cars" Sample_cars.relation in

      Printf.printf "Column profile of the raw data ('describe'):\n\n";
      (match Script.run_line session "describe" with
      | Ok { Script.output = Some text; _ } -> print_string text
      | _ -> ());

      let session =
        run session
          {|select Year >= 2005
select Condition IN ('Good', 'Excellent')
group Model asc
agg avg Price level 2
order Price asc|}
      in
      show "The analysis so far" session;

      let session = run session (Printf.sprintf "export %s" path) in
      Printf.printf "\n(sheet exported to %s)\n" path;
      ignore session;

      (* --- session two: reload and continue --- *)
      let restored =
        match Persist.load ~path with
        | Ok sheet -> sheet
        | Error msg -> failwith msg
      in
      let session2 =
        Session.push_sheet
          (Session.create ~name:"scratch" Sample_cars.relation)
          ~label:"Import saved analysis" restored
      in
      show "Reloaded in a fresh session" session2;

      (* the query state survived: list and modify the selections *)
      Printf.printf "\nSelections on Year in the reloaded sheet:\n";
      List.iter
        (fun s ->
          Printf.printf "  #%d: %s\n" s.Query_state.id
            (Expr.to_string s.Query_state.pred))
        (Session.selections_on session2 "Year");

      let year_sel =
        (List.hd (Session.selections_on session2 "Year")).Query_state.id
      in
      let session2 =
        run session2 (Printf.sprintf "replace %d Year = 2006" year_sel)
      in
      show "After modifying the reloaded query (Year >= 2005 -> = 2006)"
        session2;

      Printf.printf "\nGroup tree of the final sheet:\n\n";
      match Script.run_line session2 "tree" with
      | Ok { Script.output = Some text; _ } -> print_string text
      | _ -> ())
