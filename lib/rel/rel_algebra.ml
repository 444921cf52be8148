module Obs = Sheet_obs.Obs

exception Algebra_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Algebra_error s)) fmt

let c_sel_in = Obs.Metrics.counter Obs.k_col_sel_rows_in
let c_sel_out = Obs.Metrics.counter Obs.k_col_sel_rows_out

(* ---------- selection ----------

   Three execution strategies, strongest first:

   1. Columnar: when the relation has a (lazily built, memoized)
      Sheetcol image and every predicate compiles (Col_pred), each
      morsel filters an index selection vector through the compiled
      chain and gathers the surviving row pointers — no Value boxing,
      no per-row name resolution.
   2. Row fallback: predicates are applied predicate-major (the whole
      array through pred 1, then pred 2, ...) with each pass split
      into morsels. This is exactly the historical semantics, error
      order included: a pass raises at its first failing row before
      any later predicate runs.
   3. Both cut over to a single sequential morsel below the Par
      threshold.

   [select] drives them; the plan executor calls [compile_filter]
   directly for the filters that run straight off a scan. *)

(* Run compiled selection-vector filters [fs] over [r]'s rows. *)
let run_compiled (r : Relation.t) fs =
  let data = Relation.to_array r in
  let n = Array.length data in
  Obs.Metrics.incr ~by:n c_sel_in;
  let chunks =
    Par.run ~n (fun lo hi ->
        let m = hi - lo in
        let sel = Array.init m (fun i -> lo + i) in
        let k = List.fold_left (fun k f -> f sel k) m fs in
        if k = 0 then [||]
        else begin
          let out = Array.make k data.(Array.unsafe_get sel 0) in
          for j = 0 to k - 1 do
            Array.unsafe_set out j
              (Array.unsafe_get data (Array.unsafe_get sel j))
          done;
          out
        end)
  in
  let out = Par.concat chunks in
  Obs.Metrics.incr ~by:(Array.length out) c_sel_out;
  out

(* Columnar filtering of [Relation.to_array r] through [preds],
   compiled now and run when the thunk is forced; [None] when the
   relation has no columnar image or a predicate does not compile
   (caller falls back to the row path). Inside a profile region each
   predicate is attributed to the path it will really take, with the
   reason for a fallback: no image, or the non-total subtree
   [Col_pred] refuses. *)
let compile_filter (r : Relation.t) preds =
  let schema = Relation.schema r in
  let view = Relation.columnar_hot r in
  let compiled =
    match view with
    | None -> None
    | Some view ->
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | p :: rest -> (
              match Col_pred.compile schema view p with
              | Some f -> go (f :: acc) rest
              | None -> None)
        in
        go [] preds
  in
  if Obs.Profile.in_region () then
    List.iter
      (fun p ->
        let pred = Expr.to_string p in
        match (compiled, view) with
        | Some _, _ -> Obs.Profile.note_compiled pred
        | None, None ->
            Obs.Profile.note_fallback ~pred ~reason:"no columnar image"
        | None, Some view ->
            Obs.Profile.note_fallback ~pred
              ~reason:
                (match Col_pred.diagnose schema view p with
                | Some subtree -> "non-total subtree " ^ subtree
                | None -> "a predicate it runs with does not compile"))
      preds;
  Option.map (fun fs () -> run_compiled r fs) compiled

let columnar_filter r preds =
  Option.map (fun run -> run ()) (compile_filter r preds)

(* One predicate-major row-path pass, morselized. *)
let filter_pass schema pred (data : Row.t array) =
  let index = Schema.compile_index schema in
  let n = Array.length data in
  Par.concat
    (Par.run ~n (fun lo hi ->
         let buf = Array.make (hi - lo) data.(lo) in
         let k = ref 0 in
         for i = lo to hi - 1 do
           let row = Array.unsafe_get data i in
           if
             Expr_eval.eval_pred
               ~lookup:(fun name -> Row.get row (index name))
               pred
           then begin
             Array.unsafe_set buf !k row;
             incr k
           end
         done;
         if !k = hi - lo then buf else Array.sub buf 0 !k))

let select pred (r : Relation.t) =
  let schema = Relation.schema r in
  (match Expr_check.check_pred schema pred with
  | Ok () -> ()
  | Error msg -> err "selection: %s" msg);
  Relation.unsafe_of_array schema
    (match columnar_filter r [ pred ] with
    | Some out -> out
    | None -> filter_pass schema pred (Relation.to_array r))

let project names (r : Relation.t) =
  let rschema = Relation.schema r in
  let schema = Schema.restrict rschema names in
  let positions =
    Array.of_list (List.map (Schema.index_exn rschema) names)
  in
  let data = Relation.to_array r in
  let out =
    Par.concat
      (Par.run ~n:(Array.length data) (fun lo hi ->
           Array.init (hi - lo) (fun i ->
               Row.project_arr (Array.unsafe_get data (lo + i)) positions)))
  in
  (* a memoized columnar image projects for free: the column subset
     shares the typed arrays *)
  match Relation.columnar_if_built r with
  | Some view ->
      Relation.unsafe_of_array_with_columnar schema out
        (Columnar.select_cols view positions)
  | None -> Relation.unsafe_of_array schema out

let product (a : Relation.t) (b : Relation.t) =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let da = Relation.to_array a and db = Relation.to_array b in
  let na = Array.length da and nb = Array.length db in
  if na = 0 || nb = 0 then Relation.empty schema
  else begin
    let out = Array.make (na * nb) da.(0) in
    for i = 0 to na - 1 do
      let ra = da.(i) in
      let base = i * nb in
      for j = 0 to nb - 1 do
        out.(base + j) <- Row.append ra db.(j)
      done
    done;
    Relation.unsafe_of_array schema out
  end

let union (a : Relation.t) (b : Relation.t) =
  if not (Schema.union_compatible (Relation.schema a) (Relation.schema b)) then
    err "union: schemas are not union-compatible";
  Relation.unsafe_of_array (Relation.schema a)
    (Array.append (Relation.to_array a) (Relation.to_array b))

let diff (a : Relation.t) (b : Relation.t) =
  if not (Schema.union_compatible (Relation.schema a) (Relation.schema b)) then
    err "difference: schemas are not union-compatible";
  (* Bag difference: each row of [b] cancels one occurrence in [a],
     earliest first. Keyed on real row equality — O(1) amortized per
     probe, where the old int-keyed bucket lists were rebuilt with
     [List.partition] on every hit. *)
  let db = Relation.to_array b in
  let budget = Row.Tbl.create (max 16 (Array.length db)) in
  Array.iter
    (fun row ->
      match Row.Tbl.find_opt budget row with
      | Some n -> Row.Tbl.replace budget row (n + 1)
      | None -> Row.Tbl.add budget row 1)
    db;
  let keep row =
    match Row.Tbl.find_opt budget row with
    | Some n when n > 0 ->
        Row.Tbl.replace budget row (n - 1);
        false
    | _ -> true
  in
  Relation.unsafe_of_array (Relation.schema a)
    (Vec.filter_array keep (Relation.to_array a))

let join cond (a : Relation.t) (b : Relation.t) =
  let prod = product a b in
  (match Expr_check.check_pred (Relation.schema prod) cond with
  | Ok () -> ()
  | Error msg -> err "join condition: %s" msg);
  select cond prod

let equijoin ~on:(left_col, right_col) (a : Relation.t) (b : Relation.t) =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let li = Schema.index_exn (Relation.schema a) left_col in
  let ri = Schema.index_exn (Relation.schema b) right_col in
  let db = Relation.to_array b in
  let index = Value.Tbl.create (max 16 (Array.length db)) in
  Array.iter
    (fun rb ->
      let key = Row.get rb ri in
      if not (Value.is_null key) then
        match Value.Tbl.find_opt index key with
        | Some cell -> cell := rb :: !cell
        | None -> Value.Tbl.add index key (ref [ rb ]))
    db;
  (* Buckets were built by prepending; reverse each once so matches
     come out in right-relation order. *)
  Value.Tbl.iter (fun _ cell -> cell := List.rev !cell) index;
  (* Accumulate into a scratch array seeded at |a| (the exact output
     size for the common key-join), growing by doubling and trimming
     once — the same pattern as Vec.filter_array, but inline so the
     hot loop stays in one function. Building a list first and
     converting loses: the conversion re-stores every element into a
     fresh major-heap array, paying the write barrier twice. *)
  let da = Relation.to_array a in
  let scratch = ref [||] in
  let k = ref 0 in
  let push row =
    if !k >= Array.length !scratch then begin
      let cap =
        if Array.length !scratch = 0 then max 8 (Array.length da)
        else 2 * Array.length !scratch
      in
      let grown = Array.make cap row in
      Array.blit !scratch 0 grown 0 !k;
      scratch := grown
    end;
    !scratch.(!k) <- row;
    incr k
  in
  let rec emit ra = function
    | [] -> ()
    | rb :: rest ->
        push (Row.append ra rb);
        emit ra rest
  in
  (* A [String] key can only equal another [String] (cross-type
     equality exists only between [Int] and [Float]), so when every
     build-side key is a string and there are few of them — the
     dimension-table case — probe a flat string array instead of the
     hash table: no [Value.hash] per left row, and [String.equal]'s
     pointer fast path catches shared key strings. *)
  let string_keys =
    if Value.Tbl.length index > 16 then None
    else
      Value.Tbl.fold
        (fun key cell acc ->
          match (key, acc) with
          | Value.String s, Some (ks, bs) -> Some (s :: ks, !cell :: bs)
          | _ -> None)
        index
        (Some ([], []))
  in
  (match string_keys with
  | Some (ks, bs) ->
      let skeys = Array.of_list ks and sbuckets = Array.of_list bs in
      let nk = Array.length skeys in
      Array.iter
        (fun ra ->
          match Row.get ra li with
          | Value.String s ->
              let rec go i =
                if i < nk then
                  if String.equal (Array.unsafe_get skeys i) s then
                    emit ra (Array.unsafe_get sbuckets i)
                  else go (i + 1)
              in
              go 0
          | _ -> ())
        da
  | None ->
      Array.iter
        (fun ra ->
          let key = Row.get ra li in
          if not (Value.is_null key) then
            match Value.Tbl.find_opt index key with
            | Some cell -> emit ra !cell
            | None -> ())
        da);
  Relation.unsafe_of_array schema
    (if !k = Array.length !scratch then !scratch
     else Array.sub !scratch 0 !k)

let distinct (r : Relation.t) =
  let data = Relation.to_array r in
  let seen = Row.Tbl.create (max 16 (Array.length data)) in
  let keep row =
    if Row.Tbl.mem seen row then false
    else begin
      Row.Tbl.add seen row ();
      true
    end
  in
  Relation.unsafe_of_array (Relation.schema r) (Vec.filter_array keep data)

let sort keys (r : Relation.t) =
  let positions =
    List.map
      (fun (name, dir) -> (Schema.index_exn (Relation.schema r) name, dir))
      keys
  in
  let dirc dir c = match dir with `Asc -> c | `Desc -> -c in
  (* one- and two-key sorts dominate; a specialized comparator skips
     the per-comparison walk over the key list *)
  let compare_rows =
    match positions with
    | [ (i, d) ] ->
        fun ra rb -> dirc d (Value.compare (Row.get ra i) (Row.get rb i))
    | [ (i1, d1); (i2, d2) ] ->
        fun ra rb ->
          let c = dirc d1 (Value.compare (Row.get ra i1) (Row.get rb i1)) in
          if c <> 0 then c
          else dirc d2 (Value.compare (Row.get ra i2) (Row.get rb i2))
    | positions ->
        fun ra rb ->
          let rec go = function
            | [] -> 0
            | (i, dir) :: rest ->
                let c =
                  dirc dir (Value.compare (Row.get ra i) (Row.get rb i))
                in
                if c <> 0 then c else go rest
          in
          go positions
  in
  Relation.unsafe_of_array (Relation.schema r)
    (Vec.stable_sorted compare_rows (Relation.to_array r))

let group_rows cols (r : Relation.t) =
  let positions =
    Array.of_list (List.map (Schema.index_exn (Relation.schema r)) cols)
  in
  let data = Relation.to_array r in
  let tbl = Row.Tbl.create (max 16 (Array.length data)) in
  let order = Vec.create () in
  Array.iter
    (fun row ->
      let key = Row.project_arr row positions in
      match Row.Tbl.find_opt tbl key with
      | Some cell -> cell := row :: !cell
      | None ->
          let cell = ref [ row ] in
          Row.Tbl.add tbl key cell;
          Vec.push order (key, cell))
    data;
  Array.to_list
    (Array.map (fun (key, cell) -> (key, List.rev !cell)) (Vec.to_array order))
