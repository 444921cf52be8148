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
  let keep = Expr_eval.compile_pred schema pred in
  let n = Array.length data in
  Par.concat
    (Par.run ~n (fun lo hi ->
         let buf = Array.make (hi - lo) data.(lo) in
         let k = ref 0 in
         for i = lo to hi - 1 do
           let row = Array.unsafe_get data i in
           if keep row then begin
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

(* ---------- sort ----------

   Column-at-a-time: each key column is ranked once into ints in
   [0, m) that order exactly as [Value.compare] orders the cells (so
   [Int 3] and [Float 3.0] share a rank), descending keys flip their
   ranks, the ranks are combined into one order-preserving int key,
   and a row-index permutation is stable-sorted on it; the rows are
   gathered once at the end. No comparison ever looks at a boxed value
   after ranking. *)

(* Stable LSD radix sort of the indices [0, n) on an int key in
   [0, m), in digit passes of up to 16 bits, least significant first.
   Every pass is a stable counting sort, so ties keep input order. *)
let radix_perm key m =
  let n = Array.length key in
  let bits =
    let rec width b = if b < 16 && 1 lsl b < n then width (b + 1) else b in
    width 8
  in
  let perm = ref (Array.init n Fun.id) in
  let next = ref (Array.make n 0) in
  let count = Array.make ((1 lsl bits) + 1) 0 in
  let mask = (1 lsl bits) - 1 in
  let shift = ref 0 in
  while (m - 1) lsr !shift > 0 do
    let sh = !shift in
    let buckets = min (1 lsl bits) (((m - 1) lsr sh) + 1) in
    let src = !perm and dst = !next in
    Array.fill count 0 (buckets + 1) 0;
    for j = 0 to n - 1 do
      let d = (key.(src.(j)) lsr sh) land mask in
      count.(d + 1) <- count.(d + 1) + 1
    done;
    for d = 1 to buckets do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for j = 0 to n - 1 do
      let i = src.(j) in
      let d = (key.(i) lsr sh) land mask in
      dst.(count.(d)) <- i;
      count.(d) <- count.(d) + 1
    done;
    perm := dst;
    next := src;
    shift := sh + bits
  done;
  !perm

(* Ranks by hashing: number the distinct cells ([Value.Tbl] keys
   compare-equal cells, [Int 3] and [Float 3.0] included, together),
   then sort only those. *)
let rank_by_hashing n cell =
  let ids = Value.Tbl.create 64 in
  let distinct = Vec.create () in
  let ranks =
    Array.init n (fun j ->
        let v = cell j in
        match Value.Tbl.find_opt ids v with
        | Some id -> id
        | None ->
            let id = Vec.length distinct in
            Value.Tbl.add ids v id;
            Vec.push distinct v;
            id)
  in
  let distinct = Vec.to_array distinct in
  let m = Array.length distinct in
  let order = Array.init m Fun.id in
  Array.stable_sort
    (fun a b -> Value.compare distinct.(a) distinct.(b))
    order;
  let rank_of_id = Array.make m 0 in
  Array.iteri (fun rank id -> rank_of_id.(id) <- rank) order;
  Array.iteri (fun j id -> ranks.(j) <- rank_of_id.(id)) ranks;
  (ranks, m)

let rank_column (data : Row.t array) i =
  let n = Array.length data in
  let cell j = Row.get (Array.unsafe_get data j) i in
  (* an int or date column's range, if every non-null cell is one *)
  let rec scan j kind lo hi nulls =
    if j = n then (kind, lo, hi, nulls)
    else
      match (cell j, kind) with
      | Value.Null, _ -> scan (j + 1) kind lo hi true
      | Value.Int x, (`Empty | `Int) ->
          scan (j + 1) `Int (min lo x) (max hi x) nulls
      | Value.Date x, (`Empty | `Date) ->
          scan (j + 1) `Date (min lo x) (max hi x) nulls
      | _ -> (`Mixed, lo, hi, nulls)
  in
  match scan 0 `Empty max_int min_int false with
  | `Empty, _, _, _ -> (Array.make n 0, 1)
  | (`Int | `Date), lo, hi, nulls when hi - lo >= 0 && hi - lo < max_int - 1
    ->
      (* offset from the minimum, nulls after the maximum: no sort *)
      let range = hi - lo + 1 in
      ( Array.init n (fun j ->
            match cell j with Value.Int x | Value.Date x -> x - lo | _ -> range),
        if nulls then range + 1 else range )
  | _ -> rank_by_hashing n cell

(* Dense numbering of an int key in [0, m), in key order: equal keys,
   equal ids; a smaller key, a smaller id. *)
let renumber key m =
  let order = radix_perm key m in
  let ids = Array.make (Array.length key) 0 in
  let g = ref 0 in
  Array.iteri
    (fun k j ->
      if k > 0 && key.(j) <> key.(order.(k - 1)) then incr g;
      ids.(j) <- !g)
    order;
  (ids, !g + 1)

(* A key in [0, m) of at most [n] values, in key order. *)
let dense n (key, m) = if m > n then renumber key m else (key, m)

(* One int key in [0, m) that orders [n] rows lexicographically by
   their per-column ranks (each [(ranks, mc)], ranks in [0, mc)):
   key * mc + rank while the product of the ranges fits; past that,
   both factors are renumbered densely, to at most [n] each, first. *)
let combine n = function
  | [] -> (Array.make n 0, 1)
  | first :: rest ->
      List.fold_left
        (fun (key, m) (ranks, mc) ->
          let (key, m), (ranks, mc) =
            if m <= max_int / mc then ((key, m), (ranks, mc))
            else (dense n (key, m), dense n (ranks, mc))
          in
          Array.iteri (fun j r -> key.(j) <- (key.(j) * mc) + r) ranks;
          (key, m * mc))
        first rest

let group_ids (data : Row.t array) positions =
  let n = Array.length data in
  if n = 0 then ([||], 0)
  else dense n (combine n (List.map (rank_column data) positions))

let sort keys (r : Relation.t) =
  let schema = Relation.schema r in
  let keys =
    List.map (fun (name, dir) -> (Schema.index_exn schema name, dir)) keys
  in
  let data = Relation.to_array r in
  let n = Array.length data in
  if keys = [] || n < 2 then r
  else
    let ranked =
      List.map
        (fun (i, dir) ->
          let ranks, m = rank_column data i in
          (match dir with
          | `Asc -> ()
          | `Desc -> Array.iteri (fun j r -> ranks.(j) <- m - 1 - r) ranks);
          (ranks, m))
        keys
    in
    let key, m = combine n ranked in
    Relation.unsafe_of_array schema
      (Array.map (Array.unsafe_get data) (radix_perm key m))

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
