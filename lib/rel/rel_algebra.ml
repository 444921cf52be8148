module Obs = Sheet_obs.Obs

exception Algebra_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Algebra_error s)) fmt

let c_sel_in = Obs.Metrics.counter Obs.k_col_sel_rows_in
let c_sel_out = Obs.Metrics.counter Obs.k_col_sel_rows_out

(* ---------- batches ----------

   The unary operators run over [Relation.batch] of their input — a
   selection vector over a row-backed base plus a column map — and
   return a batch-backed relation, so a chain of them never builds a
   row: selection narrows the vector, projection edits the map, an
   extension appends a column of as many cells as the vector, sorting
   permutes the vector and duplicate elimination thins it. A batch's
   row handle is a position in its vector: computed columns and
   groupings are indexed by it, and base columns are read through the
   vector. So an operator that makes a new vector gathers the
   positional columns with it ([reindex]). *)

(* Column [c] of [b], read by position. Base cells come from the
   base's own rows, so nothing is boxed anew. *)
let reader (b : Relation.batch) c : int -> Value.t =
  match b.cols.(c) with
  | Relation.Base j ->
      let rows = Relation.to_array b.base and sel = b.sel in
      fun p -> Row.get (Array.unsafe_get rows (Array.unsafe_get sel p)) j
  | Relation.Computed col -> Column.get col
  | Relation.Broadcast { grouping; values } ->
      let group = grouping.group in
      fun p -> values.(Array.unsafe_get group p)

let resolve schema b name =
  Option.map (fun (c, _) -> reader b c) (Schema.find schema name)

let compile_batch schema b e =
  Expr_eval.compile_with ~column:(resolve schema b) e

let compile r e = compile_batch (Relation.schema r) (Relation.batch r) e

(* ---------- scratch vectors ----------

   A fresh vector longer than 256 words is allocated on the major
   heap, and the collector pays for it in proportion to its length:
   over a large heap, more than the loop that fills it. A kernel's
   temporaries are therefore borrowed from one pool, a plain stack of
   vectors (the engine runs on one thread, as obs.mli states), so
   that it allocates little beyond its result. *)

let pool : int array list ref = ref []

(* [f] run with a vector of at least [n] ints, of unspecified
   contents, that is [f]'s alone until it returns: a kernel [f] calls
   borrows another. *)
let with_scratch n f =
  let buf =
    match !pool with
    | [] -> Array.make n 0
    | b :: rest ->
        pool := rest;
        if Array.length b >= n then b else Array.make n 0
  in
  let r = f buf in
  pool := buf :: !pool;
  r

(* The first [k] entries of [a], in a vector of their own. *)
let copy_ints (a : int array) k =
  let out = Array.make k 0 in
  for j = 0 to k - 1 do
    Array.unsafe_set out j (Array.unsafe_get a j)
  done;
  out

(* [a.(idx.(j))] for every [j] below [n] *)
let gather (a : int array) (idx : int array) n =
  let out = Array.make n 0 in
  for j = 0 to n - 1 do
    Array.unsafe_set out j (Array.unsafe_get a (Array.unsafe_get idx j))
  done;
  out

(* [0, 1, ..., n - 1] and maybe more: one shared vector, grown by
   doubling and never written once made, the positions a filter over
   a batch reads as its candidates. *)
let iota = ref [||]

let positions n =
  if Array.length !iota < n then begin
    let v = Array.make (max n (2 * Array.length !iota)) 0 in
    for j = 0 to Array.length v - 1 do
      Array.unsafe_set v j j
    done;
    iota := v
  end;
  !iota

(* Whether [b]'s vector is its base's identity vector: positions are
   then base row ids, and base columns are read by position. *)
let on_identity (b : Relation.batch) = b.sel == (Relation.batch b.base).sel

(* The vector a base column of [b] is read through. *)
let base_through (b : Relation.batch) = if on_identity b then None else Some b.sel

(* [b] over the vector [sel], whose entry [j] is [b]'s row at position
   [idx.(j)] ([idx] may be longer than [sel]): each positional column — computed, or a grouping's
   group ids — gathered along [idx]. A column or grouping several
   entries share (a grouping's basis columns, the aggregates of one
   level) is gathered once, so they still share one, and a gathered
   grouping is over [sel]. Per-group values and the base stay. *)
let reindex (b : Relation.batch) sel (idx : int array) =
  let n = Array.length sel in
  let positional = function Relation.Base _ -> false | _ -> true in
  if not (Array.exists positional b.cols) then { b with sel }
  else begin
    let columns = ref [] and groupings = ref [] in
    let memo table make x =
      match List.assq_opt x !table with
      | Some y -> y
      | None ->
          let y = make x in
          table := (x, y) :: !table;
          y
    in
    let rec col = function
      | Relation.Base _ as c -> c
      | Relation.Computed x ->
          Relation.Computed (memo columns (fun x -> Column.gather x idx n) x)
      | Relation.Broadcast { grouping; values } ->
          Relation.Broadcast { grouping = memo groupings regroup grouping; values }
    and regroup (g : Relation.grouping) =
      { Relation.over = sel;
        keys = Array.map col g.keys;
        group = gather g.group idx n;
        groups = g.groups }
    in
    { b with sel; cols = Array.map col b.cols }
  end

(* ---------- selection ----------

   Three strategies, each one pass over the selection vector, whose
   survivors land in a vector of their own:

   1. Columnar: when every column the predicate reads is typed — a
      base column of the base's Sheetcol image (built on the first
      scan, memoized), or a typed computed column — and the predicate
      compiles (Col_pred), its filter reads the vector and writes the
      survivors — no Value boxing, no per-row name resolution.
   2. Per group: when every column the predicate reads is an
      aggregate column of one grouping (a HAVING), the predicate is
      evaluated once per group, at the group's first row in vector
      order, and each row tests its group's verdict.
   3. Row: otherwise each handle goes through the compiled expression
      ({!Expr_eval.compile_pred}); the first failing row in
      vector order raises. *)

let check_selection schema pred =
  match Expr_check.check_pred schema pred with
  | Ok () -> ()
  | Error msg -> err "selection: %s" msg

(* The typed column a reference reads at a position: a base column of
   the base's Sheetcol image, through the vector, or a computed
   column; [None] for an aggregate column. *)
let typed_column schema (b : Relation.batch) name =
  match Schema.find schema name with
  | None -> None
  | Some (c, _) -> (
      match b.cols.(c) with
      | Relation.Base j ->
          Some
            { Col_pred.col = Columnar.column (Relation.columnar_view b.base) j;
              through = base_through b }
      | Relation.Computed col -> Some { Col_pred.col; through = None }
      | Relation.Broadcast _ -> None)

let typed_arg r name = typed_column (Relation.schema r) (Relation.batch r) name

(* Why an expression over [r] cannot run on typed columns: a column it
   reads has none, or [blocker] (the subtree the compiler refused) is
   not total. *)
let fallback_reason (r : Relation.t) e ~blocker =
  let schema = Relation.schema r and b = Relation.batch r in
  let untyped name =
    match Schema.find schema name with
    | None -> None
    | Some (c, _) -> (
        match b.cols.(c) with
        | Relation.Computed { Column.repr = Column.Boxed _; _ }
        | Relation.Broadcast _ ->
            Some ("computed column " ^ name)
        | Relation.Base _ | Relation.Computed _ -> None)
  in
  match List.find_map untyped (Expr.columns e) with
  | Some reason -> reason
  | None -> "non-total subtree " ^ Expr.to_string blocker

(* [b] narrowed by the filter [f]: [f] reads [b]'s positions — the
   shared [positions] vector, or the base's identity vector, which
   are never written — and writes the surviving ones into a scratch
   vector, along which the new vector (of their exact length) and the
   positional columns are gathered. When no row is dropped the batch
   itself is the answer. *)
let narrow (b : Relation.batch) (f : Col_pred.filter) =
  let n = Array.length b.sel in
  let identity = on_identity b in
  with_scratch n (fun kept ->
      let k = f (if identity then b.sel else positions n) n kept in
      if k = n then b
      else
        reindex b
          (if identity then copy_ints kept k else gather b.sel kept k)
          kept)

(* A compiled selection (strategies 1 and 2), counted as one. *)
let run_compiled (b : Relation.batch) f =
  let n = Array.length b.sel in
  Obs.Metrics.incr ~by:n c_sel_in;
  let b = narrow b f in
  Obs.Metrics.incr ~by:(Array.length b.sel) c_sel_out;
  b

(* The grouping whose aggregate columns are the only columns [pred]
   reads, if there is one. *)
let predicate_grouping schema (b : Relation.batch) pred =
  let grouping name =
    match Schema.find schema name with
    | Some (c, _) -> (
        match b.cols.(c) with
        | Relation.Broadcast { grouping; _ } -> Some grouping
        | Relation.Base _ | Relation.Computed _ -> None)
    | None -> None
  in
  match List.map grouping (Expr.columns pred) with
  | Some g :: rest
    when List.for_all (function Some h -> h == g | None -> false) rest ->
      Some g
  | _ -> None

(* Every row of a group reads the same aggregate cells, so [keep]
   decides a group at its first row in vector order, and raises there
   exactly when the row path would first raise. *)
let group_filter (g : Relation.grouping) keep : Col_pred.filter =
 fun src k dst ->
  (* '\000' undecided, '\001' kept, '\002' dropped *)
  let verdict = Bytes.make g.groups '\000' in
  let group = g.group in
  let out = ref 0 in
  for i = 0 to k - 1 do
    let p = Array.unsafe_get src i in
    let gi = Array.unsafe_get group p in
    if Bytes.unsafe_get verdict gi = '\000' then
      Bytes.unsafe_set verdict gi (if keep p then '\001' else '\002');
    if Bytes.unsafe_get verdict gi = '\001' then begin
      Array.unsafe_set dst !out p;
      incr out
    end
  done;
  !out

let row_filter keep : Col_pred.filter =
 fun src k dst ->
  let out = ref 0 in
  for i = 0 to k - 1 do
    let p = Array.unsafe_get src i in
    if keep p then begin
      Array.unsafe_set dst !out p;
      incr out
    end
  done;
  !out

(* The Col_pred filter runs over [b]'s typed columns — base columns
   of its image, computed columns — when the predicate compiles; a
   predicate over one grouping's aggregates runs per group; otherwise
   the row path runs, and the path names the subtree the compiler
   refused. *)
let select_path pred (r : Relation.t) =
  let schema = Relation.schema r in
  check_selection schema pred;
  let b = Relation.batch r in
  let b, path =
    match Col_pred.compile ~column:(typed_column schema b) pred with
    | Ok f -> (run_compiled b f, `Columnar)
    | Error blocker -> (
        let keep = Expr_eval.compile_pred ~column:(resolve schema b) pred in
        match predicate_grouping schema b pred with
        | Some g -> (run_compiled b (group_filter g keep), `Columnar)
        | None -> (narrow b (row_filter keep), `Row blocker))
  in
  (Relation.of_batch schema b, path)

let select pred r = fst (select_path pred r)

let project names (r : Relation.t) =
  let rschema = Relation.schema r in
  let schema = Schema.restrict rschema names in
  let b = Relation.batch r in
  Relation.of_batch schema
    { b with
      cols =
        Array.of_list
          (List.map (fun name -> b.cols.(Schema.index_exn rschema name)) names)
    }

(* The new column holds one cell per position of the vector, written
   in one pass in vector order: by the typed kernel when the
   expression compiles over typed columns, else per position into a
   boxed column. *)
let extend_path (column : Schema.column) e (r : Relation.t) =
  let rschema = Relation.schema r in
  let schema = Schema.append rschema column in
  let b = Relation.batch r in
  let n = Array.length b.sel in
  let typed = typed_column rschema b in
  let col, path =
    match Col_expr.compile ~column:typed e with
    | Ok kernel -> (Col_expr.eval kernel n, `Columnar)
    | Error blocker ->
        let cells = Array.init n (compile_batch rschema b e) in
        ({ Column.repr = Column.Boxed cells; validity = None }, `Row blocker)
  in
  ( Relation.of_batch schema
      { b with cols = Array.append b.cols [| Relation.Computed col |] },
    path )

let extend column e r = fst (extend_path column e r)

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

(* ---------- ranking, sort, grouping, duplicate elimination ----------

   Column-at-a-time: each key column of a batch is ranked once into
   ints in [0, m) that order exactly as [Value.compare] orders its
   cells (so [Int 3] and [Float 3.0] share a rank). A ranking reads
   the column itself:
   - a dictionary-coded string column ranks by its sorted dictionary
     (memoized with the image), numbering only the codes the vector
     selects;
   - an int or date column ranks by offset from its minimum, or, when
     that range overflows, by sorting its values;
   - a float column ranks by the bits of its cells: within its class
     (NaN, negative, non-negative, null) each maps to a 63-bit key
     whose signed order is [Float.compare]'s; the keys are sorted by a
     most-significant-digit bucket sort and numbered densely;
   - a bool column ranks false before true;
   - cells alone (a [Boxed] column, an aggregate column's per-group
     values) rank as the typed column of their one constructor would.
   Only cells that mix constructors, or strings without a dictionary,
   rank by hashing their distinct cells and sorting only those: a
   typed column never hashes. Every ranking puts nulls last.
   Descending keys flip their ranks. A sort orders the positions by
   one stable pass per key, the last key first, and breaks ties by
   root row id, whatever the order of its input; grouping and
   duplicate elimination combine the ranks of their keys into one
   order-preserving int key, whose dense numbering are the group ids.
   No comparison ever looks at a boxed value after ranking. *)

(* [Array.init] for ints: typed stores, no write barrier on a large
   (major-heap) result. *)
let init_ints n (f : int -> int) =
  let a = Array.make n 0 in
  for j = 0 to n - 1 do
    Array.unsafe_set a j (f j)
  done;
  a

(* The counts [count.(0)] .. [count.(m - 1)] turned into where each
   bucket starts, the first at [from]. *)
let starts (count : int array) m from =
  let at = ref from in
  for d = 0 to m - 1 do
    let c = Array.unsafe_get count d in
    Array.unsafe_set count d !at;
    at := !at + c
  done

(* Sort [perm.(lo)] .. [perm.(hi - 1)], positions into [key], stably
   by key in signed order: one counting pass on the leading bits of
   [key - min] into about as many buckets as keys (256 to 2^16), then
   each bucket the same way, down to an insertion sort for at most 32
   keys. The bits a pass reads cover the range, so a bucket's range
   is at most 1/128 of its parent's: the recursion is at most 9 deep,
   whatever the keys' distribution. [spare] is scratch as long as
   [perm]. *)
let rec sort_by_key (key : int array) perm spare lo hi =
  if hi - lo <= 32 then
    for j = lo + 1 to hi - 1 do
      let p = Array.unsafe_get perm j in
      let kp = Array.unsafe_get key p in
      let i = ref (j - 1) in
      while !i >= lo && Array.unsafe_get key (Array.unsafe_get perm !i) > kp do
        Array.unsafe_set perm (!i + 1) (Array.unsafe_get perm !i);
        decr i
      done;
      Array.unsafe_set perm (!i + 1) p
    done
  else begin
    let kmin = ref max_int and kmax = ref min_int in
    for j = lo to hi - 1 do
      let x = Array.unsafe_get key (Array.unsafe_get perm j) in
      if x < !kmin then kmin := x;
      if x > !kmax then kmax := x
    done;
    let kmin = !kmin in
    (* [range] and each [x - kmin] are unsigned: [lsr] reads them so *)
    let range = !kmax - kmin in
    if range <> 0 then begin
      let bits =
        let rec width b =
          if b < 16 && 1 lsl b < hi - lo then width (b + 1) else b
        in
        width 8
      in
      let shift =
        let rec fit s =
          let top = range lsr s in
          if top < 0 || top >= 1 lsl bits then fit (s + 1) else s
        in
        fit 0
      in
      let buckets = (range lsr shift) + 1 in
      with_scratch buckets @@ fun count ->
      Array.fill count 0 buckets 0;
      for j = lo to hi - 1 do
        let x = Array.unsafe_get key (Array.unsafe_get perm j) in
        let d = (x - kmin) lsr shift in
        Array.unsafe_set count d (Array.unsafe_get count d + 1)
      done;
      starts count buckets lo;
      (* [count.(d)] is where bucket [d] starts; the scatter advances
         it to where the bucket ends *)
      for j = lo to hi - 1 do
        let p = Array.unsafe_get perm j in
        let d = (Array.unsafe_get key p - kmin) lsr shift in
        let at = Array.unsafe_get count d in
        Array.unsafe_set spare at p;
        Array.unsafe_set count d (at + 1)
      done;
      (* a typed loop: [Array.blit] into a major-heap array goes
         through [caml_modify] for every entry *)
      for j = lo to hi - 1 do
        Array.unsafe_set perm j (Array.unsafe_get spare j)
      done;
      let start = ref lo in
      for d = 0 to buckets - 1 do
        let stop = Array.unsafe_get count d in
        if stop - !start > 1 then sort_by_key key perm spare !start stop;
        start := stop
      done
    end
  end

(* [src.(0)] .. [src.(n - 1)], positions into [key] (in [0, m)),
   stably sorted on their keys: by one counting pass into [dst] when
   the key range is no wider than 2^16 or the row count, else by the
   bucket sort in place ([dst] its scratch). Returns the array that
   holds the result. *)
let sort_positions key m n ~src ~dst =
  if m > 1 lsl 16 && m > n then begin
    sort_by_key key src dst 0 n;
    src
  end
  else
    with_scratch m @@ fun count ->
    Array.fill count 0 m 0;
    for j = 0 to n - 1 do
      let d = Array.unsafe_get key (Array.unsafe_get src j) in
      Array.unsafe_set count d (Array.unsafe_get count d + 1)
    done;
    starts count m 0;
    for j = 0 to n - 1 do
      let p = Array.unsafe_get src j in
      let d = Array.unsafe_get key p in
      let at = Array.unsafe_get count d in
      Array.unsafe_set dst at p;
      Array.unsafe_set count d (at + 1)
    done;
    dst

(* Ranks by hashing: number the distinct cells ([Value.Tbl] keys
   compare-equal cells, [Int 3] and [Float 3.0] included, together),
   then sort only those. *)
let rank_by_hashing n cell =
  let ids = Value.Tbl.create 64 in
  let distinct = Vec.create () in
  let ranks =
    init_ints n (fun j ->
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

(* Offset ranks of an int (or date) column: [int_at j] for non-null
   rows, nulls after the maximum, no sort. [None] when the range
   overflows an int. *)
let offset_ranks n ~null_at ~int_at =
  let lo = ref max_int and hi = ref min_int and nulls = ref false in
  for j = 0 to n - 1 do
    if null_at j then nulls := true
    else begin
      let x = int_at j in
      if x < !lo then lo := x;
      if x > !hi then hi := x
    end
  done;
  if !hi < !lo then Some (Array.make n 0, 1)
  else if !hi - !lo >= 0 && !hi - !lo < max_int - 1 then
    let lo = !lo in
    let range = !hi - lo + 1 in
    Some
      ( init_ints n (fun j -> if null_at j then range else int_at j - lo),
        if !nulls then range + 1 else range )
  else None

(* Dense ranks of [n] positions, each of a class in [0, classes)
   ([cls]) and, in a class that [keyed] holds, of a key in signed
   order: classes rank in their order, a keyed class's positions by
   key (equal keys, equal ranks), and every position of another class
   alike. The ranks are written over [key]. *)
let class_ranks n ~classes (cls : Bytes.t) ~keyed (key : int array) =
  let start = Array.make (classes + 1) 0 in
  for j = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get cls j) + 1 in
    Array.unsafe_set start c (Array.unsafe_get start c + 1)
  done;
  for c = 1 to classes do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let next = Array.sub start 0 classes in
  let r = ref (-1) in
  with_scratch n (fun perm ->
      with_scratch n (fun spare ->
          for j = 0 to n - 1 do
            let c = Char.code (Bytes.unsafe_get cls j) in
            let at = Array.unsafe_get next c in
            Array.unsafe_set perm at j;
            Array.unsafe_set next c (at + 1)
          done;
          for c = 0 to classes - 1 do
            let lo = start.(c) and hi = start.(c + 1) and keyed = keyed c in
            if keyed then sort_by_key key perm spare lo hi;
            (* each key is read before its rank is written over it *)
            let prev = ref 0 in
            for k = lo to hi - 1 do
              let j = Array.unsafe_get perm k in
              let x = Array.unsafe_get key j in
              if k = lo || (keyed && x <> !prev) then incr r;
              prev := x;
              Array.unsafe_set key j !r
            done
          done));
  (key, !r + 1)

(* The class and key at [j] of a non-null float, for [float_ranks].
   The classes: NaN (below [neg_infinity]), negative, non-negative
   ([-0.] is [0.]); null is the last. A number's bits without the sign
   are 63, an int: the key is they, reversed for a negative, with the
   sign bit flipped so that signed order is theirs unsigned. *)
let set_float_key cls key j x =
  if Float.is_nan x then Bytes.unsafe_set cls j '\000'
  else begin
    let x = if x = 0. then 0. else x in
    let m = Int64.to_int (Int64.bits_of_float x) lxor min_int in
    if x < 0. then begin
      Bytes.unsafe_set cls j '\001';
      Array.unsafe_set key j (lnot m)
    end
    else begin
      Bytes.unsafe_set cls j '\002';
      Array.unsafe_set key j m
    end
  end

(* Dense ranks of [n] floats under [Float.compare], nulls last:
   [fill] sets the class and key of each non-null position by
   [set_float_key], in one loop of its own. *)
let float_ranks n fill =
  let cls = Bytes.make n '\003' and key = Array.make n 0 in
  fill cls key;
  class_ranks n ~classes:4 cls ~keyed:(fun c -> c = 1 || c = 2) key

(* Ranks of an int (or date) column: by offset, or, when the range
   overflows an int, densely by value, nulls last. *)
let int_ranks n ~null_at ~int_at =
  match offset_ranks n ~null_at ~int_at with
  | Some r -> r
  | None ->
      let cls = Bytes.make n '\001' and key = Array.make n 0 in
      for j = 0 to n - 1 do
        if not (null_at j) then begin
          Bytes.unsafe_set cls j '\000';
          Array.unsafe_set key j (int_at j)
        end
      done;
      class_ranks n ~classes:2 cls ~keyed:(fun c -> c = 0) key

(* Dense ranks of a dictionary-coded column at [sel.(0)] ..
   [sel.(n - 1)]: the codes there are numbered in the dictionary's
   sorted [order], nulls last — the ranks [rank_by_hashing] gives the
   same cells. *)
let dictionary_ranks n sel ~order ~validity (codes : int array) =
  let[@inline] valid id =
    match validity with None -> true | Some bits -> Column.valid_bit bits id
  in
  let present = Bytes.make (Array.length order) '\000' in
  let nulls = ref false in
  for j = 0 to n - 1 do
    let id = Array.unsafe_get sel j in
    if valid id then Bytes.unsafe_set present (Array.unsafe_get codes id) '\001'
    else nulls := true
  done;
  let dense = Array.make (Array.length order) 0 in
  let m = ref 0 in
  Array.iter
    (fun code ->
      if Bytes.get present code = '\001' then begin
        dense.(code) <- !m;
        incr m
      end)
    order;
  let m = !m in
  let ranks = Array.make n m in
  for j = 0 to n - 1 do
    let id = Array.unsafe_get sel j in
    if valid id then
      Array.unsafe_set ranks j (Array.unsafe_get dense (Array.unsafe_get codes id))
  done;
  (ranks, if !nulls then m + 1 else m)

(* A column known only by its cells: as the typed column of their one
   constructor ranks, if every non-null cell has the same one (ints,
   dates, floats or bools); by hashing otherwise. *)
let rank_cells n cell =
  let rec kind j k =
    if j = n then k
    else
      match (cell j, k) with
      | Value.Null, _ -> kind (j + 1) k
      | Value.Int _, (`Empty | `Int) -> kind (j + 1) `Int
      | Value.Date _, (`Empty | `Date) -> kind (j + 1) `Date
      | Value.Float _, (`Empty | `Float) -> kind (j + 1) `Float
      | Value.Bool _, (`Empty | `Bool) -> kind (j + 1) `Bool
      | _ -> `Mixed
  in
  let null_at j = Value.is_null (cell j) in
  match kind 0 `Empty with
  | `Mixed -> rank_by_hashing n cell
  | `Float ->
      float_ranks n (fun cls key ->
          for j = 0 to n - 1 do
            match cell j with
            | Value.Float x -> set_float_key cls key j x
            | _ -> ()
          done)
  | `Empty | `Int | `Date | `Bool ->
      int_ranks n ~null_at ~int_at:(fun j ->
          match cell j with
          | Value.Int x | Value.Date x -> x
          | Value.Bool x -> Bool.to_int x
          | _ -> 0)

(* Ranks of column [c] of [b] over its selection vector. A typed
   column ranks from its arrays: a base image column at the vector's
   ids, a computed one at its positions. *)
let rank_column (b : Relation.batch) c =
  let n = Array.length b.sel in
  let typed col ~sel ~dict_order =
    let null_at =
      match col.Column.validity with
      | None -> fun _ -> false
      | Some bits ->
          fun k -> not (Column.valid_bit bits (Array.unsafe_get sel k))
    in
    match col.Column.repr with
    | Column.Strings { codes; dict } ->
        dictionary_ranks n sel ~order:(dict_order dict)
          ~validity:col.Column.validity codes
    | Column.Ints a | Column.Dates a ->
        int_ranks n ~null_at ~int_at:(fun k ->
            Array.unsafe_get a (Array.unsafe_get sel k))
    | Column.Floats a ->
        let validity = col.Column.validity in
        float_ranks n (fun cls key ->
            for k = 0 to n - 1 do
              let id = Array.unsafe_get sel k in
              match validity with
              | Some bits when not (Column.valid_bit bits id) -> ()
              | _ -> set_float_key cls key k (Array.unsafe_get a id)
            done)
    | Column.Bools a ->
        int_ranks n ~null_at ~int_at:(fun k ->
            Bool.to_int (Array.unsafe_get a (Array.unsafe_get sel k)))
    | Column.Boxed cells ->
        rank_cells n (fun k -> Array.unsafe_get cells (Array.unsafe_get sel k))
  in
  match b.cols.(c) with
  | Relation.Computed col ->
      typed col ~sel:(positions n) ~dict_order:Column.dict_order
  | Relation.Broadcast { grouping; values } ->
      (* rank the per-group values, then look each row's up *)
      let ranks, m = rank_cells (Array.length values) (Array.unsafe_get values) in
      let group = grouping.group in
      (init_ints n (fun j -> ranks.(Array.unsafe_get group j)), m)
  | Relation.Base j ->
      let view = Relation.columnar_view b.base in
      typed (Columnar.column view j) ~sel:b.sel
        ~dict_order:(fun _ -> Columnar.dict_order view j)

(* Dense numbering of an int key in [0, m), in key order: equal keys,
   equal ids; a smaller key, a smaller id. *)
let renumber key =
  let n = Array.length key in
  class_ranks n ~classes:1 (Bytes.make n '\000') ~keyed:(fun _ -> true) key

(* A key in [0, m) of at most [n] values, in key order. *)
let dense n (key, m) = if m > n then renumber key else (key, m)

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
          for j = 0 to n - 1 do
            Array.unsafe_set key j
              ((Array.unsafe_get key j * mc) + Array.unsafe_get ranks j)
          done;
          (key, m * mc))
        first rest

let group_ids_batch (b : Relation.batch) positions =
  let n = Array.length b.sel in
  if n = 0 then ([||], 0)
  else dense n (combine n (List.map (rank_column b) positions))

let group_ids r positions = group_ids_batch (Relation.batch r) positions

(* Columns that are the same column of the same batch: one base
   column, or physically one computed or aggregate column. *)
let same_col (a : Relation.col) (b : Relation.col) =
  match (a, b) with
  | Relation.Base i, Relation.Base j -> i = j
  | Relation.Computed x, Relation.Computed y -> x == y
  | ( Relation.Broadcast { grouping = g; values = v },
      Relation.Broadcast { grouping = h; values = w } ) ->
      g == h && v == w
  | _ -> false

(* The groupings the batch's aggregate columns carry, longest basis
   first. An operator that narrows or permutes a vector gathers them
   with it, so a grouping's ids number the batch's rows even after a
   later sort or filter. *)
let groupings (b : Relation.batch) =
  Array.fold_left
    (fun acc -> function
      | Relation.Broadcast { grouping = g; _ } when not (List.memq g acc) ->
          g :: acc
      | _ -> acc)
    [] b.cols
  |> List.stable_sort (fun (g : Relation.grouping) h ->
         Int.compare (Array.length h.keys) (Array.length g.keys))

let grouping r positions =
  let b = Relation.batch r in
  let keys = Array.of_list (List.map (fun p -> b.cols.(p)) positions) in
  let shared =
    List.find_opt
      (fun (g : Relation.grouping) ->
        g.over == b.sel
        && Array.length g.keys = Array.length keys
        && Array.for_all2 same_col g.keys keys)
      (groupings b)
  in
  match shared with
  | Some g -> g
  | None ->
      let group, groups = group_ids_batch b positions in
      { Relation.over = b.sel; keys; group; groups }

(* Whether [a] strictly ascends. *)
let ascending (a : int array) =
  let rec go i =
    i >= Array.length a
    || (Array.unsafe_get a (i - 1) < Array.unsafe_get a i && go (i + 1))
  in
  go 1

(* Whether [b]'s vector is in root order: the root's own (a
   projection of the root), or one that ascends. *)
let in_root_order (b : Relation.batch) = on_identity b || ascending b.sel

(* [f] of [b]'s positions in root order: stably sorted on their ids
   (one counting pass over the root's id range, or the bucket sort
   past 2^16 ids more than the rows), in a scratch vector [f] must not
   keep. *)
let by_id (b : Relation.batch) f =
  let sel = b.sel in
  let n = Array.length sel in
  with_scratch n @@ fun src ->
  with_scratch n @@ fun dst ->
  for j = 0 to n - 1 do
    Array.unsafe_set src j j
  done;
  f (sort_positions sel (Relation.cardinality b.base) n ~src ~dst)

let root_positions r =
  let b = Relation.batch r in
  by_id b (fun order -> copy_ints order (Array.length b.sel))

let root_order r =
  let b = Relation.batch r in
  if in_root_order b then b.sel
  else by_id b (fun order -> gather b.sel order (Array.length b.sel))

let sort keys (r : Relation.t) =
  let schema = Relation.schema r in
  let keys =
    List.map (fun (name, dir) -> (Schema.index_exn schema name, dir)) keys
  in
  let b = Relation.batch r in
  let n = Array.length b.sel in
  if n < 2 then r
  else if keys = [] then
    if in_root_order b then r
    else
      by_id b (fun order ->
          Relation.of_batch schema (reindex b (gather b.sel order n) order))
  else
    let groupings = groupings b in
    let directed dir (ranks, m) =
      (match dir with
      | `Asc -> ()
      | `Desc -> Array.iteri (fun j r -> ranks.(j) <- m - 1 - r) ranks);
      (ranks, m)
    in
    (* A run of keys in one direction that is the basis of a grouping
       over this vector ranks by its group ids, which order as the
       run's cells do, tuple by tuple; other keys rank column by
       column. *)
    let rec rank = function
      | [] -> []
      | ((c, dir) :: _) as keys -> (
          let covers (g : Relation.grouping) =
            let k = Array.length g.keys in
            k > 0
            && List.length keys >= k
            && List.for_all2
                 (fun (c', dir') key -> dir' = dir && same_col b.cols.(c') key)
                 (List.filteri (fun i _ -> i < k) keys)
                 (Array.to_list g.keys)
          in
          match List.find_opt covers groupings with
          | Some g ->
              (* the group array is the grouping's: flipped into a
                 copy *)
              (match dir with
              | `Asc -> (g.group, g.groups)
              | `Desc ->
                  (init_ints n (fun j -> g.groups - 1 - g.group.(j)), g.groups))
              :: rank (List.filteri (fun i _ -> i >= Array.length g.keys) keys)
          | None -> directed dir (rank_column b c) :: rank (List.tl keys))
    in
    (* one stable pass per key, the last key first, over the
       positions; then the vector in their order *)
    let ranked = List.rev (rank keys) in
    with_scratch n @@ fun first ->
    with_scratch n @@ fun second ->
    for j = 0 to n - 1 do
      Array.unsafe_set first j j
    done;
    let order, spare =
      List.fold_left
        (fun (src, dst) (key, m) ->
          let out = sort_positions key m n ~src ~dst in
          (out, if out == src then dst else src))
        (first, second) ranked
    in
    let sel = Array.make n 0 in
    for j = 0 to n - 1 do
      Array.unsafe_set sel j (Array.unsafe_get b.sel (Array.unsafe_get order j))
    done;
    (* the passes leave ties in the vector's order: unless that is
       root order, each run of ties whose ids descend somewhere is
       sorted by id *)
    if not (in_root_order b) then begin
      let ranks = Array.of_list (List.map fst ranked) in
      (* whether the rows at [j - 1] and [j] tie on every key *)
      let tie j =
        let p = Array.unsafe_get order (j - 1) and q = Array.unsafe_get order j in
        let k = ref 0 in
        while
          !k < Array.length ranks
          && Array.unsafe_get (Array.unsafe_get ranks !k) p
             = Array.unsafe_get (Array.unsafe_get ranks !k) q
        do
          incr k
        done;
        !k = Array.length ranks
      in
      let j = ref 1 in
      while !j < n do
        if Array.unsafe_get sel (!j - 1) > Array.unsafe_get sel !j && tie !j
        then begin
          let lo = ref (!j - 1) and hi = ref (!j + 1) in
          while !lo > 0 && tie !lo do
            decr lo
          done;
          while !hi < n && tie !hi do
            incr hi
          done;
          sort_by_key b.sel order spare !lo !hi;
          for k = !lo to !hi - 1 do
            Array.unsafe_set sel k (Array.unsafe_get b.sel (Array.unsafe_get order k))
          done;
          j := !hi
        end
        else incr j
      done
    end;
    Relation.of_batch schema (reindex b sel order)

(* Ids equal exactly for rows equal on the columns at [positions], in
   no particular order. An aggregate column whose basis is among those
   columns adds nothing — its cells follow its group — and a grouping
   of the batch over exactly the remaining columns numbers the rows
   without ranking any. *)
let class_ids (b : Relation.batch) positions =
  let cols = List.map (fun p -> b.cols.(p)) positions in
  let within cols (g : Relation.grouping) =
    Array.for_all (fun k -> List.exists (same_col k) cols) g.keys
  in
  let positions =
    List.filter
      (fun p ->
        match b.cols.(p) with
        | Relation.Broadcast { grouping = g; _ } -> not (within cols g)
        | Relation.Base _ | Relation.Computed _ -> true)
      positions
  in
  let rest = List.map (fun p -> b.cols.(p)) positions in
  let spans (g : Relation.grouping) =
    within rest g
    && List.for_all (fun c -> Array.exists (same_col c) g.keys) rest
  in
  match (rest, List.find_opt spans (groupings b)) with
  | _ :: _, Some g -> (g.group, g.groups)
  | _ -> group_ids_batch b positions

let distinct_on keys (r : Relation.t) =
  let schema = Relation.schema r in
  let positions = List.map (Schema.index_exn schema) keys in
  let b = Relation.batch r in
  let gid, groups = class_ids b positions in
  let sel = b.sel and n = Array.length gid in
  (* each class's lowest root id, then the positions that hold one,
     in vector order *)
  let low = Array.make groups max_int in
  for j = 0 to n - 1 do
    let g = Array.unsafe_get gid j and id = Array.unsafe_get sel j in
    if id < Array.unsafe_get low g then Array.unsafe_set low g id
  done;
  with_scratch n @@ fun kept ->
  let k = ref 0 in
  for j = 0 to n - 1 do
    if Array.unsafe_get low (Array.unsafe_get gid j) = Array.unsafe_get sel j
    then begin
      Array.unsafe_set kept !k j;
      incr k
    end
  done;
  Relation.of_batch schema (reindex b (gather sel kept !k) kept)

let distinct (r : Relation.t) =
  distinct_on (Schema.names (Relation.schema r)) r
