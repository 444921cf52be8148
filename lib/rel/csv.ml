(* A malformed input, private to this module: every public entry
   point turns it into [Error]. *)
exception Csv_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Csv_error s)) fmt

let parse_exn input =
  let n = String.length input in
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let field_started = ref false in
  let push_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf;
    field_started := false
  in
  let push_row () =
    push_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = '"' then begin
      field_started := true;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if input.[!i] = '"' then
          if !i + 1 < n && input.[!i + 1] = '"' then begin
            Buffer.add_char buf '"';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      if not !closed then err "unterminated quoted field"
    end
    else if c = ',' then begin
      push_field ();
      incr i
    end
    else if c = '\n' then begin
      push_row ();
      incr i
    end
    else if c = '\r' then incr i
    else begin
      field_started := true;
      Buffer.add_char buf c;
      incr i
    end
  done;
  if Buffer.length buf > 0 || !field_started || !fields <> [] then push_row ();
  List.rev !rows

let parse_string input =
  match parse_exn input with
  | rows -> Ok rows
  | exception Csv_error msg -> Error msg

let infer_type values =
  (* Narrowest vtype accepting every non-empty cell. *)
  let candidates =
    [ Value.TBool; Value.TInt; Value.TFloat; Value.TDate; Value.TString ]
  in
  let fits ty =
    List.for_all
      (fun s -> s = "" || Option.is_some (Value.parse_typed ty s))
      values
  in
  List.find fits candidates

let load_relation_exn ?schema text =
  match parse_exn text with
  | [] -> err "empty CSV input"
  | header :: data ->
      let schema =
        match schema with
        | Some s ->
            if Schema.names s <> header then
              err "CSV header does not match the given schema";
            s
        | None ->
            let cols =
              List.mapi
                (fun idx name ->
                  let column = List.map (fun row ->
                      match List.nth_opt row idx with
                      | Some v -> v
                      | None -> err "ragged CSV row") data
                  in
                  (name, infer_type column))
                header
            in
            Schema.of_list cols
      in
      let arity = Schema.arity schema in
      let rows =
        List.map
          (fun record ->
            if List.length record <> arity then err "ragged CSV row";
            Row.of_list
              (List.mapi
                 (fun idx cell ->
                   let c = Schema.column_at schema idx in
                   match Value.parse_typed c.Schema.ty cell with
                   | Some v -> v
                   | None ->
                       err "cell %S does not parse as %s" cell
                         (Value.type_name c.Schema.ty))
                 record))
          data
      in
      Relation.make schema rows

let load_relation ?schema text =
  match load_relation_exn ?schema text with
  | rel -> Ok rel
  | exception
      ( Csv_error msg
      | Schema.Schema_error msg
      | Relation.Relation_error msg ) ->
      Error msg

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let quote_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let of_relation (r : Relation.t) =
  let buf = Buffer.create 1024 in
  let emit_record cells =
    Buffer.add_string buf (String.concat "," (List.map quote_field cells));
    Buffer.add_char buf '\n'
  in
  emit_record (Schema.names (Relation.schema r));
  Relation.iter
    (fun row ->
      emit_record (List.map Value.to_csv_string (Row.to_list row)))
    r;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)
