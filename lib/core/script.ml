open Sheet_rel
module Obs = Sheet_obs.Obs
module Obs_json = Sheet_obs.Obs_json

type outcome = { session : Session.t; output : string option }

let trim = String.trim

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* Split "head rest" at the first space. *)
let head_rest s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      ( String.sub s 0 i,
        trim (String.sub s (i + 1) (String.length s - i - 1)) )

let parse_dir = function
  | "asc" | "ASC" -> Some Grouping.Asc
  | "desc" | "DESC" -> Some Grouping.Desc
  | _ -> None

let parse_pred text =
  match Expr_parse.parse_string text with
  | Ok e -> Ok e
  | Error msg -> Error (Printf.sprintf "cannot parse %S: %s" text msg)

let parse_cols_dir rest =
  (* "<col>[, <col>...] [asc|desc]" *)
  let words = split_words rest in
  let dir, words =
    match List.rev words with
    | last :: init_rev when Option.is_some (parse_dir last) ->
        (Option.get (parse_dir last), List.rev init_rev)
    | _ -> (Grouping.Asc, words)
  in
  let cols =
    String.concat " " words |> String.split_on_char ','
    |> List.map trim
    |> List.filter (fun c -> c <> "")
  in
  if cols = [] then Error "expected column name(s)" else Ok (cols, dir)

let apply_op session op =
  match Session.apply session op with
  | Ok session -> Ok { session; output = None }
  | Error e -> Error (Errors.to_string e)

let finest_level session =
  Grouping.num_levels (Spreadsheet.grouping (Session.current session))

(* Parse trailing "level <n>" and "as <name>" options from a word list. *)
let rec extract_options words ~level ~as_name =
  match words with
  | "level" :: n :: rest -> (
      match int_of_string_opt n with
      | Some l -> extract_options rest ~level:(Some l) ~as_name
      | None -> Error (Printf.sprintf "bad level %S" n))
  | "as" :: name :: rest -> extract_options rest ~level ~as_name:(Some name)
  | [] -> Ok (level, as_name)
  | w :: _ -> Error (Printf.sprintf "unexpected %S" w)

let run_order session rest =
  match split_words rest with
  | col :: rest_words -> (
      let dir, rest_words =
        match rest_words with
        | d :: more when Option.is_some (parse_dir d) ->
            (Option.get (parse_dir d), more)
        | _ -> (Grouping.Asc, rest_words)
      in
      match extract_options rest_words ~level:None ~as_name:None with
      | Error msg -> Error msg
      | Ok (_, Some _) -> Error "order does not take 'as'"
      | Ok (level, None) ->
          let level =
            Option.value level ~default:(finest_level session)
          in
          apply_op session (Op.Order { attr = col; dir; level }))
  | [] -> Error "order: expected column"

let run_agg session rest =
  match split_words rest with
  | [] -> Error "agg: expected function"
  | fn_word :: rest_words -> (
      let fn =
        match String.lowercase_ascii fn_word with
        | "count" -> Ok `Count
        | "count_distinct" | "countd" -> Ok (`Fn Expr.Count_distinct)
        | "sum" -> Ok (`Fn Expr.Sum)
        | "avg" -> Ok (`Fn Expr.Avg)
        | "min" -> Ok (`Fn Expr.Min)
        | "max" -> Ok (`Fn Expr.Max)
        | other -> Error (Printf.sprintf "unknown aggregate %S" other)
      in
      match fn with
      | Error msg -> Error msg
      | Ok fn -> (
          let col, rest_words =
            match rest_words with
            | c :: more when c <> "level" && c <> "as" -> (Some c, more)
            | _ -> (None, rest_words)
          in
          match extract_options rest_words ~level:None ~as_name:None with
          | Error msg -> Error msg
          | Ok (level, as_name) ->
              let level =
                Option.value level ~default:(finest_level session)
              in
              let fn =
                match (fn, col) with
                | `Count, None -> Expr.Count_star
                | `Count, Some _ -> Expr.Count
                | `Fn f, _ -> f
              in
              apply_op session (Op.Aggregate { fn; col; level; as_name })))

let run_formula session rest =
  (* "name = expr" when the text before the first '=' is a single
     identifier and the '=' is not part of <=, >=, <>, !=, ==. *)
  let named =
    match String.index_opt rest '=' with
    | Some i
      when i > 0 && i < String.length rest - 1
           && (not (List.mem rest.[i - 1] [ '<'; '>'; '!' ]))
           && rest.[i + 1] <> '=' -> (
        let left = trim (String.sub rest 0 i) in
        let right = trim (String.sub rest (i + 1) (String.length rest - i - 1)) in
        let is_ident =
          left <> ""
          && String.for_all
               (fun c ->
                 (c >= 'a' && c <= 'z')
                 || (c >= 'A' && c <= 'Z')
                 || (c >= '0' && c <= '9')
                 || c = '_')
               left
          && not (left.[0] >= '0' && left.[0] <= '9')
        in
        if is_ident then Some (left, right) else None)
    | _ -> None
  in
  let name, body =
    match named with
    | Some (n, b) -> (Some n, b)
    | None -> (None, rest)
  in
  match parse_pred body with
  | Error msg -> Error msg
  | Ok expr -> apply_op session (Op.Formula { name; expr })

(* Cut a trailing #-comment, but never inside a '...' string literal
   (task predicates legitimately contain values like 'Brand#12'). *)
let strip_comment line =
  let n = String.length line in
  let rec scan i in_string =
    if i >= n then line
    else
      match line.[i] with
      | '\'' -> scan (i + 1) (not in_string)
      | '#' when not in_string -> String.sub line 0 i
      | _ -> scan (i + 1) in_string
  in
  scan 0 false

type reach = Sheet_only | Host_files | Process_telemetry

let reach line =
  let cmd, rest = head_rest (trim (strip_comment line)) in
  let words = split_words (String.lowercase_ascii rest) in
  match (String.lowercase_ascii cmd, words) with
  | ("load" | "import" | "export" | "html"), _ | "trace", "export" :: _ ->
      Host_files
  | "trace", ([] | [ "status" ]) -> Sheet_only
  | "trace", _ | "flightrec", [ "clear" ] -> Process_telemetry
  | _ -> Sheet_only

let run_line session line =
  let line = trim (strip_comment line) in
  (* EXPLAIN ANALYZE of the sheet's plan, whose root row count equals
     the full materialization's; the run lands in the Sheetdoctor ring
     under the sheet's uid *)
  let analyze () =
    let sheet = Session.current session in
    snd (Plan.explain_analyze ~uid:sheet.Spreadsheet.uid (Plan.of_sheet sheet))
  in
  (* a shell shared by many users shows each only its own records *)
  let mine () = Obs.Labels.to_string (Obs.ambient_labels ()) in
  let ring_json () =
    Obs_json.to_string (Obs.Profile.to_json ~session:(mine ()) ())
  in
  let say text = Ok { session; output = Some text } in
  if line = "" then Ok { session; output = None }
  else
    let cmd, rest = head_rest line in
    (* stray words are refused, never silently dropped *)
    let no_args name k =
      if split_words rest = [] then k ()
      else Error (name ^ ": expected no arguments")
    in
    let optional_int usage k =
      match split_words rest with
      | [] -> k None
      | [ w ] when Option.is_some (int_of_string_opt w) ->
          k (int_of_string_opt w)
      | _ -> Error usage
    in
    match String.lowercase_ascii cmd with
    | "group" | "regroup" -> (
        match parse_cols_dir rest with
        | Error msg -> Error msg
        | Ok (basis, dir) ->
            let op =
              if String.lowercase_ascii cmd = "group" then
                Op.Group { basis; dir }
              else Op.Regroup { basis; dir }
            in
            apply_op session op)
    | "ungroup" -> no_args "ungroup" (fun () -> apply_op session Op.Ungroup)
    | "order-groups" -> (
        match split_words rest with
        | [ attr ] ->
            apply_op session (Op.Order_groups { attr; dir = Grouping.Asc })
        | [ attr; d ] when Option.is_some (parse_dir d) ->
            apply_op session
              (Op.Order_groups { attr; dir = Option.get (parse_dir d) })
        | _ -> Error "order-groups: expected <aggregate-column> [asc|desc]")
    | "order" -> run_order session rest
    | "select" -> (
        match parse_pred rest with
        | Error msg -> Error msg
        | Ok pred -> apply_op session (Op.Select pred))
    | "hide" -> apply_op session (Op.Project (trim rest))
    | "show" -> apply_op session (Op.Unproject (trim rest))
    | "agg" -> run_agg session rest
    | "formula" -> run_formula session rest
    | "dedup" -> no_args "dedup" (fun () -> apply_op session Op.Dedup)
    | "rename" -> (
        match split_words rest with
        | [ old_name; new_name ] ->
            apply_op session (Op.Rename { old_name; new_name })
        | _ -> Error "rename: expected <old> <new>")
    | "save" -> Ok { session = Session.save_as session (trim rest);
                     output = None }
    | "open" -> (
        match Session.open_sheet session (trim rest) with
        | Ok session -> Ok { session; output = None }
        | Error e -> Error (Errors.to_string e))
    | "close" ->
        if Store.close (Session.store session) (trim rest) then
          Ok { session; output = None }
        else Error (Printf.sprintf "no stored spreadsheet %S" (trim rest))
    | "load" -> (
        let path = trim rest in
        match Csv.load_relation (Csv.read_file path) with
        | Ok rel ->
            Ok
              { session =
                  Session.load_relation session
                    ~name:(Filename.basename path) rel;
                output = None }
        | Error msg | (exception Sys_error msg) -> Error msg)
    | "export" -> (
        match Persist.save (Session.current session) ~path:(trim rest) with
        | Ok () -> say ("saved to " ^ trim rest)
        | Error msg -> Error msg)
    | "import" ->
        Result.map
          (fun sheet ->
            { session =
                Session.push_sheet session
                  ~label:(Printf.sprintf "Import %s" (trim rest))
                  sheet;
              output = None })
          (Persist.load ~path:(trim rest))
    | "product" -> apply_op session (Op.Product (trim rest))
    | "union" -> apply_op session (Op.Union (trim rest))
    | "except" -> apply_op session (Op.Diff (trim rest))
    | "join" -> (
        let name, after = head_rest rest in
        let after_l = String.lowercase_ascii after in
        if
          name <> ""
          && String.length after > 3
          && String.sub after_l 0 3 = "on "
        then
          let cond_text = trim (String.sub after 3 (String.length after - 3)) in
          match parse_pred cond_text with
          | Error msg -> Error msg
          | Ok cond -> apply_op session (Op.Join { stored = name; cond })
        else Error "join: expected <name> on <condition>")
    | "undo" ->
        optional_int "undo: expected [<steps>]" @@ fun n ->
        Ok
          { session = Session.undo_many session (Option.value n ~default:1);
            output = None }
    | "goto" -> (
        match int_of_string_opt (trim rest) with
        | None -> Error "goto: expected <history-index>"
        | Some index -> (
            match Session.goto session index with
            | Some session -> Ok { session; output = None }
            | None -> Error (Printf.sprintf "no history entry %d" index)))
    | "redo" ->
        no_args "redo" (fun () ->
            match Session.redo session with
            | Some session -> Ok { session; output = None }
            | None -> Error "nothing to redo")
    | "history" ->
        no_args "history" @@ fun () ->
        let text =
          Session.history session
          |> List.map (fun e ->
                 Printf.sprintf "%2d. %s" e.Session.index e.Session.label)
          |> String.concat "\n"
        in
        say text
    | "selections" ->
        let col = trim rest in
        let text =
          Session.selections_on session col
          |> List.map (fun s ->
                 Printf.sprintf "#%d: %s" s.Query_state.id
                   (Expr.to_string s.Query_state.pred))
          |> String.concat "\n"
        in
        let text = if text = "" then "(no selections on " ^ col ^ ")" else text in
        say text
    | "replace" -> (
        match head_rest rest with
        | id_text, pred_text -> (
            match int_of_string_opt id_text with
            | None -> Error "replace: expected <selection-id> <predicate>"
            | Some id -> (
                match parse_pred pred_text with
                | Error msg -> Error msg
                | Ok pred -> (
                    match Session.replace_selection session ~id pred with
                    | Ok session -> Ok { session; output = None }
                    | Error e -> Error (Errors.to_string e)))))
    | "drop-select" -> (
        match int_of_string_opt (trim rest) with
        | None -> Error "drop-select: expected <selection-id>"
        | Some id -> (
            match Session.remove_selection session ~id with
            | Ok session -> Ok { session; output = None }
            | Error e -> Error (Errors.to_string e)))
    | "drop-column" -> (
        match Session.remove_computed session (trim rest) with
        | Ok session -> Ok { session; output = None }
        | Error e -> Error (Errors.to_string e))
    | "explain" -> (
        match split_words (String.lowercase_ascii rest) with
        | [] ->
            (* the plan every materialization of the sheet runs *)
            say (Plan.explain (Plan.of_sheet (Session.current session)))
        | [ "analyze" ] -> say (analyze ())
        | _ -> Error "explain: expected [analyze]")
    | "profile" -> (
        match split_words (String.lowercase_ascii rest) with
        | [] ->
            (* bare [profile] is EXPLAIN ANALYZE *)
            say (analyze ())
        | [ "last" ] -> (
            match Obs.Profile.last ~session:(mine ()) () with
            | Some r -> say (Obs.Profile.render_record r)
            | None -> Error "profile: no profiles recorded")
        | [ "json" ] -> say (ring_json ())
        | [ w ] -> (
            match int_of_string_opt w with
            | Some uid -> (
                match Obs.Profile.find ~uid with
                | Some r when r.Obs.Profile.p_session = mine () ->
                    say (Obs.Profile.render_record r)
                | _ ->
                    Error (Printf.sprintf "profile: no profile for #%d" uid))
            | None -> Error "profile: expected [last|<uid>|json]")
        | _ -> Error "profile: expected [last|<uid>|json]")
    | "metrics" ->
        no_args "metrics" @@ fun () ->
        say (Obs.metrics_report ())
    | "slo" -> (
        match split_words (String.lowercase_ascii rest) with
        | [] -> say (Obs.Slo.render ())
        | [ "json" ] -> say (Obs_json.to_string (Obs.Slo.to_json ()))
        | _ -> Error "slo: expected [json]")
    | "flightrec" -> (
        match split_words (String.lowercase_ascii rest) with
        | [] -> say (Obs.Profile.render ~session:(mine ()) ())
        | [ "json" ] -> say (ring_json ())
        | [ "clear" ] ->
            Obs.Profile.clear ();
            say "flight recorder cleared"
        | _ -> Error "flightrec: expected [json|clear]")
    | "trace" -> (
        match split_words (String.lowercase_ascii rest), split_words rest with
        | ([] | [ "status" ]), _ ->
            let s =
              match Obs.sink () with
              | Obs.Off -> "off"
              | Obs.Memory ->
                  Printf.sprintf "memory (%d records, %d dropped)"
                    (Obs.Profile.length ()) (Obs.Profile.dropped ())
            in
            say ("tracing: " ^ s)
        | ([ "mem" ] | [ "memory" ]), _ ->
            Obs.set_sink Obs.Memory;
            say "tracing to in-memory ring"
        | [ "off" ], _ ->
            Obs.set_sink Obs.Off;
            say "tracing off"
        | [ "export"; _ ], [ _; path ] -> (
            match Obs.save_chrome_trace ~path with
            | () -> say ("trace written to " ^ path)
            | exception Sys_error msg -> Error msg)
        | _ ->
            Error "trace: expected status|mem|off|export <path>")
    | "html" -> (
        match Render_html.save (Session.current session) ~path:(trim rest) with
        | () -> say ("written to " ^ trim rest)
        | exception Sys_error msg -> Error msg)
    | "describe" ->
        no_args "describe" @@ fun () ->
        say (Profile.render (Materialize.visible (Session.current session)))
    | "tree" ->
        optional_int "tree: expected [<rows>]" @@ fun max_rows ->
        say
          (Group_tree.to_string ?max_rows
             (Group_tree.build (Session.current session)))
    | "print" ->
        optional_int "print: expected [<rows>]" @@ fun max_rows ->
        say (Render.to_string ?max_rows (Session.current session))
    | "status" ->
        no_args "status" @@ fun () ->
        say (Render.status_line (Session.current session))
    | other -> Error (Printf.sprintf "unknown command %S" other)

let run_general ~emit session text =
  let lines = String.split_on_char '\n' text in
  let rec go session lineno = function
    | [] -> Ok session
    | line :: rest -> (
        match run_line session line with
        | Ok { session; output } ->
            Option.iter emit output;
            go session (lineno + 1) rest
        | Error msg ->
            Error (Printf.sprintf "line %d (%s): %s" lineno (trim line) msg))
  in
  go session 1 lines

let run session text = run_general ~emit:print_endline session text
let run_silent session text = run_general ~emit:(fun _ -> ()) session text
