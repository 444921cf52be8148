(* Robustness fuzzing: no public parsing or command entry point may
   escape with an exception — malformed input must come back as a
   clean [Error]. *)

open Sheet_rel
open Sheet_core

let gen_garbage : string QCheck.Gen.t =
  let open QCheck.Gen in
  let printable = map Char.chr (int_range 32 126) in
  oneof
    [ string_size ~gen:printable (int_range 0 60);
      (* token soup: valid lexemes in random order *)
      (let* words =
         list_size (int_range 0 12)
           (oneofl
              [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "ORDER";
                "HAVING"; "AND"; "OR"; "NOT"; "BETWEEN"; "CASE"; "WHEN";
                "END"; "("; ")"; ","; "*"; "+"; "-"; "/"; "="; "<"; ">=";
                "'x'"; "42"; "4.5"; "col"; "t"; "avg"; "count"; "DATE";
                "'2009-03-29'"; "||"; "." ])
       in
       return (String.concat " " words));
      (* near-miss SQL *)
      (let* tail =
         oneofl
           [ ""; ";"; " FROM"; " WHERE"; " GROUP BY"; " 'open"; " (";
             " IN ("; " BETWEEN 1"; " CASE WHEN" ]
       in
       return ("SELECT a FROM t" ^ tail)) ]

let no_exception f =
  match f () with
  | _ -> true
  | exception (Lexer.Lex_error _ | Lexer.Cursor.Parse_error _) ->
      (* parsers must catch their own lexer/cursor errors at the
         public entry points *)
      false
  | exception _ -> false

let expr_parser_total =
  QCheck.Test.make ~count:1000 ~name:"Expr_parse.parse_string never raises"
    (QCheck.make ~print:(fun s -> s) gen_garbage)
    (fun s -> no_exception (fun () -> Expr_parse.parse_string s))

let sql_parser_total =
  QCheck.Test.make ~count:1000 ~name:"Sql_parser.parse never raises"
    (QCheck.make ~print:(fun s -> s) gen_garbage)
    (fun s -> no_exception (fun () -> Sheet_sql.Sql_parser.parse s))

let script_total =
  QCheck.Test.make ~count:1000 ~name:"Script.run_line never raises"
    (QCheck.make ~print:(fun s -> s) gen_garbage)
    (fun s ->
      let session = Session.create ~name:"cars" Sample_cars.relation in
      (* 'export'/'html'/'trace export' write files and 'trace'
         mutates the global sink; keep fuzzing away from both by
         skipping those commands *)
      QCheck.assume
        (not
           (List.exists
              (fun prefix ->
                String.length s >= String.length prefix
                && String.lowercase_ascii
                     (String.sub s 0 (String.length prefix))
                   = prefix)
              [ "export"; "html"; "import"; "trace" ]));
      no_exception (fun () -> Script.run_line session s))

let sql_executor_total =
  QCheck.Test.make ~count:500
    ~name:"Sql_executor.run_string never raises"
    (QCheck.make ~print:(fun s -> s) gen_garbage)
    (fun s ->
      let catalog =
        Sheet_sql.Catalog.of_list [ ("t", Sample_cars.relation) ]
      in
      no_exception (fun () -> Sheet_sql.Sql_executor.run_string catalog s))

let persist_total =
  QCheck.Test.make ~count:500
    ~name:"Persist.of_string never raises, returns Error"
    (QCheck.make ~print:(fun s -> s)
       QCheck.Gen.(
         let* garbage = gen_garbage in
         oneofl
           [ garbage;
             "musiq-sheet v1\n" ^ garbage;
             "musiq-sheet v1\nname x\ndata\n" ^ garbage;
             "musiq-sheet v1\nselection notanint x = 1\ndata\na:int\n1\n" ]))
    (fun s ->
      match Persist.of_string s with
      | Error _ -> true
      | Ok _ -> QCheck.Test.fail_reportf "accepted %S" s
      | exception _ -> false)

let csv_total =
  QCheck.Test.make ~count:500
    ~name:"Csv.parse_string / load_relation never raise"
    (QCheck.make ~print:(fun s -> s) gen_garbage)
    (fun s ->
      (match Csv.parse_string s with
      | Ok _ | Error _ -> true
      | exception _ -> false)
      (* an unterminated quote after the text is an [Error] *)
      && (String.contains s '"'
         || Result.is_error (Csv.parse_string (s ^ "\"open")))
      && match Csv.load_relation s with
         | Ok _ | Error _ -> true
         | exception _ -> false)

(* structurally plausible but ragged CSV: rows of independent widths
   (including zero-width and blank lines), half-quoted cells,
   duplicate or empty headers, mixed separators — the loader must
   reject cleanly, never escape with a match failure or index error *)
let gen_ragged_csv : string QCheck.Gen.t =
  let open QCheck.Gen in
  let cell =
    oneofl [ ""; "1"; "4.5"; "x"; "\"q\""; "\"un"; " "; "NULL"; "-0" ]
  in
  let row = map (String.concat ",") (list_size (int_range 0 6) cell) in
  let header =
    oneofl
      [ "ID,Model,Price,Year,Mileage,Condition"; "a,b"; "a,a"; ",";
        "a,b,c,d,e,f,g"; "" ]
  in
  let* h = header in
  let* rows = list_size (int_range 0 8) row in
  let* sep = oneofl [ "\n"; "\r\n"; "\n\n" ] in
  return (String.concat sep (h :: rows))

let csv_ragged_total =
  QCheck.Test.make ~count:500
    ~name:"Csv.load_relation on ragged rows raises nothing"
    (QCheck.make ~print:(fun s -> s) gen_ragged_csv)
    (fun s ->
      let total load =
        match load s with Ok _ | Error _ -> true | exception _ -> false
      in
      total Csv.load_relation
      && total (Csv.load_relation ~schema:Sample_cars.schema))

(* a header naming one column twice is a schema fault: an [Error], not
   the [Schema_error] that [Schema.of_list] raises *)
let csv_duplicate_header () =
  match Csv.load_relation "a,a\n1,2\n" with
  | Error msg ->
      Alcotest.(check string) "names the column" "duplicate column \"a\"" msg
  | Ok _ -> Alcotest.fail "a duplicate header was accepted"

let browser_total =
  QCheck.Test.make ~count:300
    ~name:"Browser.handle never raises and keeps the cursor in range"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 40)
           (oneof
              [ oneofl
                  [ Sheet_ui.Browser.Up; Sheet_ui.Browser.Down;
                    Sheet_ui.Browser.Left; Sheet_ui.Browser.Right;
                    Sheet_ui.Browser.Page_up; Sheet_ui.Browser.Page_down;
                    Sheet_ui.Browser.Enter; Sheet_ui.Browser.Escape;
                    Sheet_ui.Browser.Backspace ];
                map
                  (fun c -> Sheet_ui.Browser.Key c)
                  (map Char.chr (int_range 32 126)) ])))
    (fun events ->
      let state =
        Sheet_ui.Browser.init
          (Session.create ~name:"cars" Sample_cars.relation)
      in
      match
        List.fold_left
          (fun s e -> Sheet_ui.Browser.handle ~page:5 s e)
          state events
      with
      | final ->
          let rel = Session.materialized final.Sheet_ui.Browser.session in
          let rows = Relation.cardinality rel in
          let cols = Schema.arity (Relation.schema rel) in
          final.Sheet_ui.Browser.quit
          || (final.Sheet_ui.Browser.row >= 0
             && (rows = 0 || final.Sheet_ui.Browser.row < rows)
             && final.Sheet_ui.Browser.col >= 0
             && final.Sheet_ui.Browser.col < max 1 cols
             && String.length (Sheet_ui.Browser.render_text final) > 0)
      | exception _ -> false)

(* adversarial expression trees: deep, ill-typed, null-ridden, with
   ghost columns and nested aggregates — the static analyzer must
   return a verdict (or a diagnostic), never escape with an
   exception *)
let gen_adversarial_expr : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let const =
    oneofl
      [ Value.Null; Value.Int 42; Value.Int max_int; Value.Float 4.5;
        Value.Float nan; Value.String ""; Value.String "x";
        Value.Bool false; Value.Date 733000 ]
  in
  let leaf =
    oneof
      [ map (fun v -> Expr.Const v) const;
        map (fun c -> Expr.Col c) (oneofl [ "Price"; "Model"; "ghost"; "" ])
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [ leaf;
               (let* op =
                  oneofl
                    [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]
                in
                let* a = sub in
                let* b = sub in
                return (Expr.Cmp (op, a, b)));
               (let* a = sub in
                let* b = sub in
                oneofl [ Expr.And (a, b); Expr.Or (a, b) ]);
               map (fun a -> Expr.Not a) sub;
               map (fun a -> Expr.Is_null a) sub;
               (let* a = sub in
                let* lo = sub in
                let* hi = sub in
                return (Expr.Between (a, lo, hi)));
               (let* a = sub in
                return
                  (Expr.In_list (a, [ Value.Null; Value.Int 1; Value.String "y" ])));
               (let* a = sub in
                return (Expr.Like (a, "%x_")));
               (let* op = oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div ] in
                let* a = sub in
                let* b = sub in
                return (Expr.Arith (op, a, b)));
               (let* a = sub in
                return (Expr.Agg (Expr.Sum, Some a))) ])

let print_expr e = Expr.to_string e

let sheetsolve_total =
  QCheck.Test.make ~count:1000
    ~name:"Sheetsolve.check/tautology never raise"
    (QCheck.make ~print:print_expr gen_adversarial_expr)
    (fun e ->
      let type_of = Schema.type_of Sample_cars.schema in
      match
        ( Sheetsolve.check ~type_of e,
          Sheetsolve.tautology ~type_of e,
          Sheetsolve.check e )
      with
      | _ -> true
      | exception _ -> false)

let sheetlint_expr_total =
  QCheck.Test.make ~count:1000
    ~name:"Sheetlint.expr never raises nor reports an analyzer failure"
    (QCheck.make ~print:print_expr gen_adversarial_expr)
    (fun e ->
      match
        Sheet_analysis.Sheetlint.expr
          ~type_of:(Schema.type_of Sample_cars.schema) e
      with
      | diags ->
          not
            (List.exists
               (fun (d : Sheet_analysis.Diagnostic.t) ->
                 d.code = "analyzer-failure")
               diags)
      | exception _ -> false)

(* ---------- Sheetscope's JSON codec ---------- *)

module J = Sheet_obs.Obs_json

let json_parser_total =
  QCheck.Test.make ~count:1000 ~name:"Obs_json.parse never raises"
    (QCheck.make ~print:(fun s -> s)
       QCheck.Gen.(
         oneof
           [ gen_garbage;
             (* JSON-flavored soup *)
             (let* words =
                list_size (int_range 0 20)
                  (oneofl
                     [ "{"; "}"; "["; "]"; ":"; ","; "null"; "true";
                       "false"; "42"; "-0.5"; "1e9"; "1e999"; "\"x\"";
                       "\"\\u0041\""; "\"\\ud83d\\ude00\""; "\"\\q\"";
                       "\"" ])
              in
              return (String.concat "" words)) ]))
    (fun s -> no_exception (fun () -> J.parse s))

let gen_json : J.t QCheck.Gen.t =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (int_range (-1000000) 1000000);
        (* finite floats only: non-finite ones serialize as null by
           design, which is a lossy (documented) conversion *)
        map (fun f -> J.Float f) (float_range (-1e15) 1e15);
        map (fun s -> J.String s)
          (string_size ~gen:(map Char.chr (int_range 32 126))
             (int_range 0 12)) ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           oneof
             [ scalar;
               map (fun xs -> J.List xs)
                 (list_size (int_range 0 4) (self (n / 3)));
               map (fun kvs -> J.Obj kvs)
                 (list_size (int_range 0 4)
                    (pair
                       (string_size
                          ~gen:(map Char.chr (int_range 97 122))
                          (int_range 1 6))
                       (self (n / 3)))) ])

let json_round_trip =
  QCheck.Test.make ~count:1000
    ~name:"Obs_json: to_string |> parse is the identity"
    (QCheck.make ~print:J.to_string gen_json)
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' -> J.equal v v'
      | Error _ -> false)

(* The string codec copies runs of plain characters whole; these
   hold it to the character-at-a-time escaper it replaced. *)
let reference_escape s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let plain_char =
  QCheck.Gen.(
    map Char.chr (int_range 0x20 0xff)
    |> map (fun c -> if c = '"' || c = '\\' then 'x' else c))

let plain_run = QCheck.Gen.(string_size ~gen:plain_char (int_range 0 200))

(* long plain runs, with control bytes, quotes and backslashes between
   them, so every special character sits at a run's edge *)
let gen_runs =
  let open QCheck.Gen in
  let special =
    oneof
      [ map Char.chr (int_range 0 0x1f); return '"'; return '\\' ]
  in
  map (String.concat "")
    (list_size (int_range 0 8)
       (oneof
          [ plain_run;
            map (String.make 1) special;
            map2 (fun a b -> String.make 1 a ^ String.make 1 b) special special
          ]))

let json_escape_is_reference =
  QCheck.Test.make ~count:2000
    ~name:"Obs_json: a string prints as the per-character escaper's"
    (QCheck.make ~print:String.escaped gen_runs)
    (fun s ->
      J.to_string (J.String s) = reference_escape s
      && J.parse (J.to_string (J.String s)) = Ok (J.String s))

let json_raw_control_rejected =
  QCheck.Test.make ~count:2000
    ~name:"Obs_json: a raw control byte in a run fails at its position"
    (QCheck.make
       ~print:(fun (p, c, e, q) -> String.escaped (p ^ String.make 1 c ^ e ^ q))
       QCheck.Gen.(
         quad plain_run
           (map Char.chr (int_range 0 0x1f))
           (oneofl [ ""; "\\n"; "\\u00e9"; "\\\"" ])
           plain_run))
    (fun (before, c, escape, after) ->
      (* the control byte lands after [escape] or before it *)
      let text = before ^ escape ^ String.make 1 c ^ after in
      let at = 1 + String.length before + String.length escape in
      J.parse ("\"" ^ text ^ "\"")
      = Error (Printf.sprintf "at %d: raw control character in string" at)
      && J.parse ("{\"" ^ text ^ "\": 1}")
         = Error (Printf.sprintf "at %d: raw control character in string"
                    (at + 1)))

let sheetlint_sql_total =
  QCheck.Test.make ~count:500
    ~name:"Sheetlint.sql_string never raises nor reports an analyzer failure"
    (QCheck.make ~print:(fun s -> s) gen_garbage)
    (fun s ->
      let catalog =
        Sheet_sql.Catalog.of_list [ ("t", Sample_cars.relation) ]
      in
      match Sheet_analysis.Sheetlint.sql_string catalog s with
      | diags ->
          not
            (List.exists
               (fun (d : Sheet_analysis.Diagnostic.t) ->
                 d.code = "analyzer-failure")
               diags)
      | exception _ -> false)

let () =
  let suite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "sheet_fuzz"
    [ suite "parsers" [ expr_parser_total; sql_parser_total ];
      (let name, tests =
         suite "entry-points"
           [ script_total; sql_executor_total; persist_total; csv_total;
             csv_ragged_total ]
       in
       ( name,
         tests
         @ [ Alcotest.test_case "Csv.load_relation: duplicate header is an Error"
               `Quick csv_duplicate_header ] ));
      suite "analysis"
        [ sheetsolve_total; sheetlint_expr_total; sheetlint_sql_total ];
      suite "json"
        [ json_parser_total; json_round_trip; json_escape_is_reference;
          json_raw_control_rejected ];
      suite "tui" [ browser_total ] ]
