type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

(* A character a JSON string may carry as itself: neither the quote,
   the backslash, nor a control character. *)
let plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20

let hex_digit v = "0123456789abcdef".[v]

(* Each run of plain characters is copied with one [add_substring];
   only the characters between runs are looked at one by one. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if not (plain c) then begin
      Buffer.add_substring buf s !start (i - !start);
      start := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf (hex_digit (Char.code c lsr 4));
          Buffer.add_char buf (hex_digit (Char.code c land 15))
    end
  done;
  Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

(* Printf's [%.17g] is this primitive with the same format string
   (camlinternalFormat's [convert_float]). *)
external format_float : string -> float -> string = "caml_format_float"

(* A float must re-read as a float (never as an int) and round-trip
   bit-exactly; %.17g is exact, and a trailing ".0" keeps "1" from
   collapsing into the Int constructor on re-parse. Non-finite floats
   have no JSON spelling and are emitted as null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = format_float "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let add_indent buf n = Buffer.add_string buf (String.make n ' ')

let to_buffer ?(pretty = false) buf v =
  let newline depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      add_indent buf (depth * 2)
    end
  in
  (* a list or an object: [add] prints one item at [depth + 1] *)
  let seq depth opening closing add = function
    | [] ->
        Buffer.add_char buf opening;
        Buffer.add_char buf closing
    | items ->
        Buffer.add_char buf opening;
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline (depth + 1);
            add item)
          items;
        newline depth;
        Buffer.add_char buf closing
  in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_string buf s
    | List items -> seq depth '[' ']' (go (depth + 1)) items
    | Obj fields ->
        seq depth '{' '}'
          (fun (k, item) ->
            escape_string buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) item)
          fields
  in
  go 0 v

let to_string ?pretty v =
  let buf = Buffer.create 1024 in
  to_buffer ?pretty buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Fail of string

let max_depth = 512

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Fail (Printf.sprintf "at %d: %s" !pos m))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail "expected %C, found %C" c d
    | None -> fail "expected %C, found end of input" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some code -> code
    | None -> fail "bad \\u escape %S" h
  in
  let utf8_add buf code = Buffer.add_utf_8_uchar buf (Uchar.of_int code) in
  (* the end of the run of plain characters from [i]: a string's body
     is copied a run at a time *)
  let rec run_end i =
    if i < n && plain (String.unsafe_get s i) then run_end (i + 1) else i
  in
  let parse_string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      let stop = run_end !pos in
      Buffer.add_substring buf s !pos (stop - !pos);
      pos := stop;
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          (match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' -> (
                  let code = parse_hex4 () in
                  (* surrogate pair *)
                  if code >= 0xD800 && code <= 0xDBFF then begin
                    if
                      !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                    then begin
                      pos := !pos + 2;
                      let low = parse_hex4 () in
                      if low >= 0xDC00 && low <= 0xDFFF then
                        utf8_add buf
                          (0x10000
                          + ((code - 0xD800) lsl 10)
                          + (low - 0xDC00))
                      else fail "unpaired surrogate"
                    end
                    else fail "unpaired surrogate"
                  end
                  else if code >= 0xDC00 && code <= 0xDFFF then
                    fail "unpaired surrogate"
                  else utf8_add buf code)
              | c -> fail "bad escape \\%C" c));
          go ())
      | Some _ -> fail "raw control character in string"
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  (* the items of a list or an object, after its opening bracket *)
  let seq closing item =
    advance ();
    skip_ws ();
    if peek () = Some closing then begin
      advance ();
      []
    end
    else
      let rec items acc =
        let v = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            items (v :: acc)
        | Some c when c = closing ->
            advance ();
            List.rev (v :: acc)
        | _ -> fail "expected ',' or %C" closing
      in
      items []
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting deeper than %d" max_depth;
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string_body ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' -> List (seq ']' (fun () -> parse_value (depth + 1)))
    | Some '{' ->
        Obj
          (seq '}' (fun () ->
               skip_ws ();
               let k = parse_string_body () in
               skip_ws ();
               expect ':';
               (k, parse_value (depth + 1))))
    | Some c -> fail "unexpected character %C" c
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

let equal a b = Stdlib.compare a b = 0

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
