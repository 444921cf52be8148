(* Regenerate every table and figure of the paper's evaluation.

   Usage: experiments [table1|table2|table3|table4_5|fig3|fig4|fig5|
                       table6|stats|theorem1|all] [--trace out.json]
   (default: all)

   --trace records every engine/materializer/plan span of the run and
   writes a Chrome trace_event JSON (load in about://tracing or
   Perfetto).

   The experiment ids match the index in DESIGN.md §6. *)

open Sheet_rel
open Sheet_core

let section title =
  Printf.printf "\n=== %s ===\n\n" title

let run_script_exn session script =
  match Script.run_silent session script with
  | Ok s -> s
  | Error msg -> failwith ("script failed: " ^ msg)

let cars_session () = Session.create ~name:"cars" Sample_cars.relation

(* ---- Tables I-V: the running example ---- *)

let table1 () =
  section "Table I -- Sample Used Car Database";
  Render.print (Session.current (cars_session ()))

let grouping_setup = {|
group Model desc
group Year asc
order Price asc
|}

let table2 () =
  section "Table II -- Car Database After Grouping by Condition";
  let s = run_script_exn (cars_session ()) grouping_setup in
  let s = run_script_exn s "group Year, Model, Condition asc" in
  Render.print (Session.current s)

let table3 () =
  section "Table III -- Database After Computing Average Price";
  let s = run_script_exn (cars_session ()) grouping_setup in
  let s = run_script_exn s "agg avg Price level 3" in
  let s = run_script_exn s "hide Condition" in
  Render.print (Session.current s)

let table4_5 () =
  section "Table IV -- Results Before Query Modification";
  let s =
    run_script_exn (cars_session ())
      {|select Year = 2005
select Model = 'Jetta'
select Mileage < 80000
group Condition asc
order Price asc|}
  in
  Render.print (Session.current s);
  section "Table V -- Results After Query Modification (Year -> 2006)";
  let year_sel =
    match Session.selections_on s "Year" with
    | sel :: _ -> sel.Query_state.id
    | [] -> failwith "no selection on Year"
  in
  let s =
    match
      Session.replace_selection s ~id:year_sel
        (Sheet_rel.Expr_parse.parse_string_exn "Year = 2006")
    with
    | Ok s -> s
    | Error e -> failwith (Errors.to_string e)
  in
  Render.print (Session.current s)

(* ---- the user study ---- *)

let report = lazy (Sheet_study.Report.of_observations
                     (Sheet_study.Simulator.run ()))

let fig3 () =
  section "Figure 3 -- Speed Result";
  let r = Lazy.force report in
  Printf.printf "%-6s %12s %12s %8s\n" "query" "Navicat" "SheetMusiq" "ratio";
  List.iter
    (fun (task, nav, sheet) ->
      Printf.printf "%-6d %12.1f %12.1f %7.2fx\n" task nav sheet
        (nav /. Float.max 0.01 sheet))
    (Sheet_study.Report.fig3_rows r)

let fig4 () =
  section "Figure 4 -- Standard Deviation of Speeds";
  let r = Lazy.force report in
  Printf.printf "%-6s %12s %12s\n" "query" "Navicat" "SheetMusiq";
  List.iter
    (fun (task, nav, sheet) ->
      Printf.printf "%-6d %12.1f %12.1f\n" task nav sheet)
    (Sheet_study.Report.fig4_rows r)

let fig5 () =
  section "Figure 5 -- Correctness Result";
  let r = Lazy.force report in
  Printf.printf "%-6s %12s %12s\n" "query" "Navicat" "SheetMusiq";
  List.iter
    (fun (task, nav, sheet) -> Printf.printf "%-6d %12d %12d\n" task nav sheet)
    (Sheet_study.Report.fig5_rows r);
  let t = r.Sheet_study.Report.totals in
  Printf.printf
    "totals: SheetMusiq %d/%d, Navicat %d/%d (paper: 95/100 vs 81/100)\n"
    t.Sheet_study.Report.sheet_correct_total
    t.Sheet_study.Report.trials_per_tool
    t.Sheet_study.Report.navicat_correct_total
    t.Sheet_study.Report.trials_per_tool

let table6 () =
  section "Table VI -- Subjective Results";
  let r = Lazy.force report in
  let s = r.Sheet_study.Report.subjective in
  Printf.printf "Prefer SheetMusiq / Navicat:       %d / %d\n"
    s.Sheet_study.Report.prefer_sheet s.Sheet_study.Report.prefer_navicat;
  Printf.printf "Seeing data helps (yes):           %d\n"
    s.Sheet_study.Report.seeing_data_helps_yes;
  Printf.printf "Progressive refinement better:     %d\n"
    s.Sheet_study.Report.progressive_refinement_yes;
  Printf.printf "Concepts easier in SheetMusiq:     %d\n"
    s.Sheet_study.Report.concepts_easier_yes

let stats () =
  section "Significance analysis (Sec. VII-A.2/3)";
  let r = Lazy.force report in
  List.iter
    (fun p ->
      Printf.printf "query %2d: Mann-Whitney p = %.5f%s\n"
        p.Sheet_study.Report.task p.Sheet_study.Report.mw_p
        (if p.Sheet_study.Report.mw_p < 0.002 then "  (significant)" else ""))
    r.Sheet_study.Report.per_task;
  Printf.printf "significant at 0.002: queries %s (paper: all but 5, 7, 10)\n"
    (String.concat ", "
       (List.map string_of_int (Sheet_study.Report.significant_tasks r)));
  Printf.printf "Fisher's exact on totals: p = %.5f (paper: < 0.004)\n"
    r.Sheet_study.Report.totals.Sheet_study.Report.fisher_p

let sensitivity () =
  section "Sensitivity of the study conclusions to simulator parameters";
  let run_with config = Sheet_study.Report.of_observations
      (Sheet_study.Simulator.run ~config ()) in
  let describe label config =
    let r = run_with config in
    let t = r.Sheet_study.Report.totals in
    let sig_tasks = Sheet_study.Report.significant_tasks r in
    let mean_ratio =
      let rows = Sheet_study.Report.fig3_rows r in
      List.fold_left (fun acc (_, nav, sheet) -> acc +. (nav /. sheet)) 0.0 rows
      /. float_of_int (List.length rows)
    in
    Printf.printf
      "%-34s correct %3d vs %3d | fisher %.4f | mean speed ratio %.2fx | \
       significant: %s\n"
      label t.Sheet_study.Report.sheet_correct_total
      t.Sheet_study.Report.navicat_correct_total
      t.Sheet_study.Report.fisher_p mean_ratio
      (String.concat "," (List.map string_of_int sig_tasks))
  in
  let base = Sheet_study.Simulator.default_config in
  describe "baseline (paper protocol)" base;
  describe "no second-tool advantage"
    { base with Sheet_study.Simulator.second_tool_discount = 1.0 };
  describe "20 subjects"
    { base with Sheet_study.Simulator.n_subjects = 20 };
  describe "strict 300 s timeout"
    { base with Sheet_study.Simulator.timeout_s = 300.0 };
  List.iter
    (fun seed ->
      describe
        (Printf.sprintf "different population (seed %d)" seed)
        { base with Sheet_study.Simulator.seed })
    [ 1; 7; 99 ];
  print_endline
    "\nThe qualitative conclusions (SheetMusiq faster on complex tasks, \
     comparable on 5/7/10,\nmore correct overall) hold across all \
     parameter variations; exact counts move with the seed.";
  ()

let analysis () =
  section "Sec. VII-A.4 analysis, quantified: why SheetMusiq wins";
  Printf.printf
    "%-4s %-34s %9s %9s %7s  %s\n" "task" "title" "sheet(s)" "nav(s)"
    "ratio" "concepts forcing the SQL window";
  List.iter
    (fun (task : Sheet_tpch.Tpch_tasks.t) ->
      let base m =
        Sheet_study.Tool_model.base_time
          (m.Sheet_study.Tool_model.plan_of_task task)
      in
      let sheet = base Sheet_study.Sheetmusiq_model.model in
      let nav = base Sheet_study.Navicat_model.model in
      let concepts =
        match Sheet_ui.Query_builder.classify task with
        | `Graphical -> "(fully graphical)"
        | `Requires_sql cs -> String.concat ", " cs
      in
      Printf.printf "%-4d %-34s %9.1f %9.1f %6.2fx  %s\n"
        task.Sheet_tpch.Tpch_tasks.id task.Sheet_tpch.Tpch_tasks.title
        sheet nav (nav /. sheet) concepts)
    Sheet_tpch.Tpch_tasks.all;
  print_endline
    "\nKLM base times (before per-subject variation and error loops).\n\
     The builder is competitive exactly on the fully graphical tasks\n\
     (5, 7, 10) and falls off the SQL cliff elsewhere — the paper's\n\
     explanation of Figs. 3-5, reproduced from the interaction\n\
     structure alone.";
  print_endline
    "\nSilent-wrong-result hazards per tool (probability x miss rate):";
  List.iter
    (fun (task : Sheet_tpch.Tpch_tasks.t) ->
      let silent m =
        let plan = m.Sheet_study.Tool_model.plan_of_task task in
        List.fold_left
          (fun acc (e : Sheet_study.Tool_model.error_source) ->
            acc
            +. (e.Sheet_study.Tool_model.prob
               *. (1.0 -. e.Sheet_study.Tool_model.detect_prob)))
          0.0 plan.Sheet_study.Tool_model.errors
      in
      Printf.printf
        "  task %2d: SheetMusiq %.3f vs Navicat %.3f\n"
        task.Sheet_tpch.Tpch_tasks.id
        (silent Sheet_study.Sheetmusiq_model.model)
        (silent Sheet_study.Navicat_model.model))
    Sheet_tpch.Tpch_tasks.all

let learning () =
  section "Learning effect (Sec. VII-A.4: 'picked up SheetMusiq much            faster')";
  Printf.printf "%-6s %22s %22s\n" "task" "Navicat time/KLM"
    "SheetMusiq time/KLM";
  List.iter
    (fun (task, nav, sheet) ->
      Printf.printf "%-6d %22.2f %22.2f\n" task nav sheet)
    (Sheet_study.Report.learning_rows (Sheet_study.Simulator.run ()));
  print_endline
    "\nTasks are performed in order; the normalized overhead decays      toward the\nsteady-state multiplier as familiarity grows — and      decays faster for\nSheetMusiq, as the paper observed on the first      two queries.";
  ()

let csv () =
  print_string
    (Sheet_study.Report.observations_csv (Sheet_study.Simulator.run ()))

(* ---- Theorem 1 spot-check ---- *)

let theorem1 () =
  section "Theorem 1 -- SQL emulation spot-check on the TPC-H tasks";
  let catalog =
    Sheet_tpch.Tpch_views.install
      (Sheet_tpch.Tpch_gen.generate
         { Sheet_tpch.Tpch_gen.sf = 0.001; seed = 42 })
  in
  List.iter
    (fun (task : Sheet_tpch.Tpch_tasks.t) ->
      let ok =
        match Sheet_tpch.Tpch_tasks.verify catalog task with
        | Ok () -> "ok"
        | Error msg -> "MISMATCH: " ^ msg
      in
      Printf.printf "task %2d (%s): %s\n" task.Sheet_tpch.Tpch_tasks.id
        task.Sheet_tpch.Tpch_tasks.title ok)
    Sheet_tpch.Tpch_tasks.all

let all () =
  table1 (); table2 (); table3 (); table4_5 ();
  fig3 (); fig4 (); fig5 (); table6 (); stats (); theorem1 ();
  analysis ();
  sensitivity ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_trace acc = function
    | "--trace" :: path :: rest -> (Some path, List.rev_append acc rest)
    | x :: rest -> split_trace (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let trace_path, args = split_trace [] args in
  (* a trace covers the whole run: room for every record *)
  Option.iter
    (fun _ ->
      Sheet_obs.Obs.Profile.set_capacity 1_000_000;
      Sheet_obs.Obs.set_sink Sheet_obs.Obs.Memory)
    trace_path;
  let cmd = match args with c :: _ -> c | [] -> "all" in
  let finish () =
    Option.iter
      (fun path ->
        Sheet_obs.Obs.save_chrome_trace ~path;
        Printf.printf "\ntrace written to %s (%d records, %d dropped)\n"
          path
          (Sheet_obs.Obs.Profile.length ())
          (Sheet_obs.Obs.Profile.dropped ()))
      trace_path
  in
  (fun run -> run (); finish ())
  @@ fun () ->
  match cmd with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "table4_5" -> table4_5 ()
  | "fig3" -> fig3 ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "table6" -> table6 ()
  | "stats" -> stats ()
  | "theorem1" -> theorem1 ()
  | "sensitivity" -> sensitivity ()
  | "analysis" -> analysis ()
  | "csv" -> csv ()
  | "learning" -> learning ()
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown experiment %S; expected table1..table6, fig3..fig5, \
         stats, theorem1, analysis, sensitivity or all\n"
        other;
      exit 2
