(* Every line of a table has the same length: per column "| " or "+-",
   the padded cell or dashes, then " " or "-"; then "|\n" or "+\n".
   So the buffer is sized once, and padding is a substring of one
   string of blanks. *)
let render_cells ?align_right ~header ?breaks ?(footer = "") rows =
  let ncols = Array.length header in
  let align =
    match align_right with
    | Some a ->
        assert (Array.length a = ncols);
        a
    | None -> Array.make ncols false
  in
  let nrows = Array.length rows in
  let breaks =
    match breaks with
    | Some b ->
        assert (Array.length b = nrows);
        b
    | None -> Array.make nrows false
  in
  let widths = Array.map String.length header in
  Array.iter
    (fun row ->
      assert (Array.length row = ncols);
      Array.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let line = Array.fold_left (fun acc w -> acc + w + 3) 2 widths in
  let blanks = String.make (Array.fold_left max 0 widths) ' ' in
  let rule =
    let b = Bytes.make line '-' in
    let pos = ref 0 in
    Array.iter
      (fun w ->
        Bytes.set b !pos '+';
        pos := !pos + w + 3)
      widths;
    Bytes.set b (line - 2) '+';
    Bytes.set b (line - 1) '\n';
    Bytes.unsafe_to_string b
  in
  let nbreaks = Array.fold_left (fun n b -> if b then n + 1 else n) 0 breaks in
  let buf =
    Buffer.create ((line * (nrows + nbreaks + 4)) + String.length footer)
  in
  let emit_row cells =
    for i = 0 to ncols - 1 do
      let cell = Array.unsafe_get cells i in
      let fill = widths.(i) - String.length cell in
      Buffer.add_string buf "| ";
      if align.(i) then begin
        Buffer.add_substring buf blanks 0 fill;
        Buffer.add_string buf cell
      end
      else begin
        Buffer.add_string buf cell;
        Buffer.add_substring buf blanks 0 fill
      end;
      Buffer.add_char buf ' '
    done;
    Buffer.add_string buf "|\n"
  in
  Buffer.add_string buf rule;
  emit_row header;
  Buffer.add_string buf rule;
  Array.iteri
    (fun idx row ->
      emit_row row;
      if breaks.(idx) then Buffer.add_string buf rule)
    rows;
  Buffer.add_string buf rule;
  Buffer.add_string buf footer;
  Buffer.contents buf

let render (r : Relation.t) =
  let columns = Array.of_list (Schema.columns (Relation.schema r)) in
  let header = Array.map (fun c -> c.Schema.name) columns in
  let align_right = Array.map (fun c -> Value.numeric c.Schema.ty) columns in
  let rows =
    Array.map
      (fun row ->
        Array.init (Row.width row) (fun i -> Value.to_string (Row.get row i)))
      (Relation.to_array r)
  in
  render_cells ~align_right ~header rows

let print r = print_string (render r)
