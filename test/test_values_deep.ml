(* Deeper coverage of the value layer: typed parsing, rendering,
   coercions, hashing and type lattice. *)

open Sheet_rel

let v = Alcotest.testable Value.pp Value.equal

let test_parse_typed () =
  let p ty s = Value.parse_typed ty s in
  Alcotest.(check (option v)) "int" (Some (Value.Int 42)) (p Value.TInt "42");
  Alcotest.(check (option v)) "negative int" (Some (Value.Int (-3)))
    (p Value.TInt "-3");
  Alcotest.(check (option v)) "bad int" None (p Value.TInt "4x");
  Alcotest.(check (option v)) "float" (Some (Value.Float 2.5))
    (p Value.TFloat "2.5");
  Alcotest.(check (option v)) "float accepts int text"
    (Some (Value.Float 7.0)) (p Value.TFloat "7");
  Alcotest.(check (option v)) "bool true" (Some (Value.Bool true))
    (p Value.TBool "TRUE");
  Alcotest.(check (option v)) "bool yes" (Some (Value.Bool true))
    (p Value.TBool "yes");
  Alcotest.(check (option v)) "bool 0" (Some (Value.Bool false))
    (p Value.TBool "0");
  Alcotest.(check (option v)) "bad bool" None (p Value.TBool "maybe");
  Alcotest.(check (option v)) "date" (Some (Value.of_ymd 2009 3 29))
    (p Value.TDate "2009-03-29");
  Alcotest.(check (option v)) "bad month" None (p Value.TDate "2009-13-29");
  Alcotest.(check (option v)) "not a date" None (p Value.TDate "whenever");
  Alcotest.(check (option v)) "string verbatim"
    (Some (Value.String "2009-03-29")) (p Value.TString "2009-03-29");
  (* empty string is NULL for every type *)
  List.iter
    (fun ty ->
      Alcotest.(check (option v))
        ("empty as " ^ Value.type_name ty)
        (Some Value.Null) (p ty ""))
    [ Value.TBool; Value.TInt; Value.TFloat; Value.TString; Value.TDate ]

let test_rendering () =
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "csv null is empty" ""
    (Value.to_csv_string Value.Null);
  Alcotest.(check string) "whole float" "2.0"
    (Value.to_string (Value.Float 2.0));
  Alcotest.(check string) "fractional float" "2.5"
    (Value.to_string (Value.Float 2.5));
  Alcotest.(check string) "bool" "true" (Value.to_string (Value.Bool true));
  Alcotest.(check string) "date padding" "0099-01-05"
    (Value.to_string (Value.of_ymd 99 1 5))

let test_type_lattice () =
  Alcotest.(check bool) "int <= float" true
    (Value.subtype Value.TInt Value.TFloat);
  Alcotest.(check bool) "float not <= int" false
    (Value.subtype Value.TFloat Value.TInt);
  Alcotest.(check bool) "reflexive" true
    (Value.subtype Value.TDate Value.TDate);
  Alcotest.(check bool) "unify numerics" true
    (Value.unify Value.TInt Value.TFloat = Some Value.TFloat);
  Alcotest.(check bool) "no unifier" true
    (Value.unify Value.TDate Value.TString = None);
  Alcotest.(check bool) "numeric" true
    (Value.numeric Value.TInt && Value.numeric Value.TFloat
    && (not (Value.numeric Value.TDate)))

let test_hash_consistency () =
  (* values that compare equal must hash equal (int/float coercion) *)
  Alcotest.(check bool) "int/float hash" true
    (Value.hash (Value.Int 3) = Value.hash (Value.Float 3.0));
  Alcotest.(check bool) "string hash stable" true
    (Value.hash (Value.String "x") = Value.hash (Value.String "x"))

let test_to_float () =
  Alcotest.(check (option (float 0.0))) "int" (Some 3.0)
    (Value.to_float (Value.Int 3));
  Alcotest.(check (option (float 0.0))) "float" (Some 2.5)
    (Value.to_float (Value.Float 2.5));
  Alcotest.(check (option (float 0.0))) "string" None
    (Value.to_float (Value.String "3"));
  Alcotest.(check (option (float 0.0))) "null" None
    (Value.to_float Value.Null)

let test_date_boundaries () =
  List.iter
    (fun (y, m, d) ->
      match Value.of_ymd y m d with
      | Value.Date days ->
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%04d-%02d-%02d" y m d)
            (y, m, d)
            (Value.ymd_of_days days)
      | _ -> Alcotest.fail "not a date")
    [ (1970, 1, 1); (1969, 12, 31); (2000, 2, 29); (1900, 2, 28);
      (2400, 2, 29); (1, 1, 1); (9999, 12, 31) ]

let test_date_arithmetic () =
  let eval e =
    Expr_eval.eval ~lookup:(fun _ -> raise Not_found)
      (Expr_parse.parse_string_exn e)
  in
  Alcotest.(check v) "date + days" (Value.of_ymd 1994 1 31)
    (eval "DATE '1994-01-01' + 30");
  Alcotest.(check v) "date - days" (Value.of_ymd 1993 12 31)
    (eval "DATE '1994-01-01' - 1");
  Alcotest.(check v) "days + date" (Value.of_ymd 1994 1 2)
    (eval "1 + DATE '1994-01-01'");
  Alcotest.(check v) "date - date" (Value.Int 365)
    (eval "DATE '1995-01-01' - DATE '1994-01-01'");
  Alcotest.(check bool) "date * int refused at eval" true
    (try ignore (eval "DATE '1994-01-01' * 2"); false
     with Expr_eval.Eval_error _ -> true);
  (* and the type checker agrees *)
  let schema = Schema.of_list [ ("d", Value.TDate); ("n", Value.TInt) ] in
  let check e = Expr_check.check schema (Expr_parse.parse_string_exn e) in
  Alcotest.(check bool) "d + n : date" true
    (check "d + n" = Ok (Some Value.TDate));
  Alcotest.(check bool) "d - d : int" true
    (check "d - d" = Ok (Some Value.TInt));
  Alcotest.(check bool) "d * n refused" true (Result.is_error (check "d * n"));
  Alcotest.(check bool) "n - d refused" true (Result.is_error (check "n - d"));
  (* usable in predicates: shipped within 30 days of a reference *)
  Alcotest.(check bool) "predicate typechecks" true
    (Result.is_ok
       (Expr_check.check_pred schema
          (Expr_parse.parse_string_exn
             "d >= DATE '1994-01-01' AND d < DATE '1994-01-01' + 90")))

let test_row_utilities () =
  let r = Row.of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ] in
  Alcotest.(check int) "width" 3 (Row.width r);
  Alcotest.(check v) "get" (Value.Int 2) (Row.get r 1);
  let r2 = Row.remove_at r 1 in
  Alcotest.(check int) "remove width" 2 (Row.width r2);
  Alcotest.(check v) "remove shifts" (Value.Int 3) (Row.get r2 1);
  let r3 = Row.set_at r 0 (Value.Int 9) in
  Alcotest.(check v) "set_at fresh" (Value.Int 9) (Row.get r3 0);
  Alcotest.(check v) "original untouched" (Value.Int 1) (Row.get r 0);
  let r4 = Row.project r [ 2; 0 ] in
  Alcotest.(check bool) "project reorders" true
    (Row.to_list r4 = [ Value.Int 3; Value.Int 1 ]);
  Alcotest.(check bool) "lexicographic shorter-first" true
    (Row.compare (Row.of_list [ Value.Int 1 ]) r < 0)

(* ---------- display formats: the Printf forms are the specification ---------- *)

let printf_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let float_edges =
  let p53 = 9007199254740992. in
  [ 0.; -0.; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
    Float.min_float; Float.min_float /. 2.; 4.9e-324; -4.9e-324;
    Float.max_float; -.Float.max_float; Float.epsilon;
    1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.); 1e15 +. 1.; -.(1e15 +. 1.);
    999999999999999.5; -999999999999999.5; 1e15 -. 0.125;
    p53; -.p53; p53 +. 2.; -.(p53 +. 2.); p53 -. 1.; 1e16; 1e17;
    (* ties at the sixth significant digit *)
    1234565.; 12345650.; 123456.5; 1.234565; 0.1234565; 1.0000005;
    9999995.; 999999.5; 99999.95; 0.0000012345650; 2.5; 0.5; 1.5e-5;
    0.1; 0.2; 0.3; 1e-5; 1e-4; 100000.; 1000000.; 999999.; 1e21 ]

let gen_float =
  let open QCheck.Gen in
  frequency
    [ (3, map Int64.float_of_bits ui64);
      (2, oneofl float_edges);
      (* integral floats on both sides of 1e15 *)
      (2, map float_of_int (int_range (-2_000_000_000_000_000)
                              2_000_000_000_000_000));
      (2, map float_of_int (int_range (-1000) 1000));
      (* six-digit mantissas with a fifth digit after them: the
         rounding tie of %.6g, at every scale *)
      (2, map2 (fun m e -> (float_of_int m +. 0.5) *. (10. ** float_of_int e))
            (int_range 100000 999999) (int_range (-20) 20));
      (2, float) ]

let float_format_is_printf =
  QCheck.Test.make ~count:20_000
    ~name:"Float: %.1f when integral below 1e15, else %.6g"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_float)
    (fun f -> Value.to_string (Value.Float f) = printf_float f)

let test_float_edges () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (printf_float f)
        (Value.to_string (Value.Float f)))
    float_edges;
  Alcotest.(check string) "-0." "-0.0" (Value.to_string (Value.Float (-0.)))

let printf_date d =
  let y, m, dd = Value.ymd_of_days d in
  Printf.sprintf "%04d-%02d-%02d" y m dd

(* every day of years -5 to 10005: both sides of 0 and 9999 *)
let test_date_every_day () =
  let day y m d =
    match Value.of_ymd y m d with Value.Date d -> d | _ -> assert false
  in
  let first = day (-5) 1 1 and last = day 10005 12 31 in
  for d = first to last do
    let got = Value.to_string (Value.Date d) in
    if got <> printf_date d then
      Alcotest.failf "day %d: %S, Printf %S" d got (printf_date d)
  done

let date_format_is_printf =
  QCheck.Test.make ~count:5000 ~name:"Date: %04d-%02d-%02d of any day"
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof
           [ int; int_range (-1_000_000_000) 1_000_000_000;
             int_range (-800_000) 3_000_000 ]))
    (fun d -> Value.to_string (Value.Date d) = printf_date d)

(* The table text as it was written before it was built from arrays:
   lists, [List.mem] for the group breaks, a fresh padding string per
   cell. *)
let reference_table ~align ~header ~breaks rows =
  let pad right w s =
    let len = String.length s in
    if len >= w then s
    else
      let fill = String.make (w - len) ' ' in
      if right then fill ^ s else s ^ fill
  in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
    rows;
  let buf = Buffer.create 256 in
  let rule () =
    Array.iter
      (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-'))
      widths;
    Buffer.add_string buf "+\n"
  in
  let row cells =
    List.iteri
      (fun i c ->
        Buffer.add_string buf "| ";
        Buffer.add_string buf (pad (List.nth align i) widths.(i) c);
        Buffer.add_char buf ' ')
      cells;
    Buffer.add_string buf "|\n"
  in
  rule ();
  row header;
  rule ();
  List.iteri
    (fun i r ->
      row r;
      if List.mem i breaks then rule ())
    rows;
  rule ();
  Buffer.contents buf

let table_is_reference =
  let open QCheck.Gen in
  let cell = string_size ~gen:(char_range ' ' '~') (int_range 0 9) in
  let grid =
    let* ncols = int_range 0 5 in
    let* nrows = int_range 0 12 in
    let* header = list_repeat ncols cell in
    let* align = list_repeat ncols bool in
    let* rows = list_repeat nrows (list_repeat ncols cell) in
    let* breaks = list_repeat nrows bool in
    return (align, header, breaks, rows)
  in
  QCheck.Test.make ~count:1000 ~name:"render_cells = the list-built table"
    (QCheck.make grid)
    (fun (align, header, breaks, rows) ->
      let of_lists l = Array.of_list (List.map Array.of_list l) in
      Table_print.render_cells ~align_right:(Array.of_list align)
        ~header:(Array.of_list header) ~breaks:(Array.of_list breaks)
        ~footer:"tail\n" (of_lists rows)
      = reference_table ~align ~header
          ~breaks:
            (List.concat (List.mapi (fun i b -> if b then [ i ] else []) breaks))
          rows
        ^ "tail\n")

let () =
  let prop = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "sheet_values_deep"
    [ ( "values",
        [ Alcotest.test_case "parse_typed" `Quick test_parse_typed;
          Alcotest.test_case "rendering" `Quick test_rendering;
          Alcotest.test_case "type lattice" `Quick test_type_lattice;
          Alcotest.test_case "hash consistency" `Quick test_hash_consistency;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "date boundaries" `Quick test_date_boundaries;
          Alcotest.test_case "date arithmetic" `Quick test_date_arithmetic ]
      );
      ("rows", [ Alcotest.test_case "utilities" `Quick test_row_utilities ]);
      ( "formats",
        [ prop float_format_is_printf;
          Alcotest.test_case "float edges" `Quick test_float_edges;
          Alcotest.test_case "every day of years -5 to 10005" `Quick
            test_date_every_day;
          prop date_format_is_printf;
          prop table_is_reference ] )
    ]
