(* Sheetcol: one type-specialized column of a relation.

   A column is materialized from boxed [Value.t] cells exactly once
   (see Columnar); afterwards predicate compilation (Col_pred) runs
   over the unboxed arrays directly. Specialization requires every
   non-null cell to carry the SAME constructor — an int-typed value
   sitting in a float column stays [Boxed], because the codec must
   reproduce the original constructors bit-for-bit, not merely
   [Value.equal] ones. Nulls are carried out-of-band in a validity
   bitmap (bit set = non-null); all-null and empty columns stay
   [Boxed] rather than guessing a type. *)

type repr =
  | Ints of int array
  | Floats of float array
  | Dates of int array
  | Bools of bool array
  | Strings of { codes : int array; dict : string array }
      (** [dict.(codes.(i))] is row [i]'s string; codes of null rows
          are 0 (masked by the validity bitmap). *)
  | Boxed of Value.t array
      (** Mixed-constructor / all-null fallback; nulls inline,
          validity is [None]. *)

type t = { repr : repr; validity : Bytes.t option }

let length t =
  match t.repr with
  | Ints a | Dates a -> Array.length a
  | Floats a -> Array.length a
  | Bools a -> Array.length a
  | Strings { codes; _ } -> Array.length codes
  | Boxed a -> Array.length a

let valid_bit b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let get t i =
  match t.validity with
  | Some b when not (valid_bit b i) -> Value.Null
  | _ -> (
      match t.repr with
      | Ints a -> Value.Int a.(i)
      | Floats a -> Value.Float a.(i)
      | Dates a -> Value.Date a.(i)
      | Bools a -> Value.Bool a.(i)
      | Strings { codes; dict } -> Value.String dict.(codes.(i))
      | Boxed a -> a.(i))

(* Typed loops: a fresh int or float array is filled without the
   write barrier [Array.map] would pay over a boxed result. *)
let gather_ints (a : int array) (idx : int array) n =
  let out = Array.make n 0 in
  for j = 0 to n - 1 do
    Array.unsafe_set out j (Array.unsafe_get a (Array.unsafe_get idx j))
  done;
  out

let gather t (idx : int array) n =
  let validity =
    match t.validity with
    | None -> None
    | Some bits ->
        let out = Bytes.make ((n + 7) / 8) '\xff' and nulls = ref false in
        for j = 0 to n - 1 do
          if not (valid_bit bits (Array.unsafe_get idx j)) then begin
            nulls := true;
            Bytes.unsafe_set out (j lsr 3)
              (Char.unsafe_chr
                 (Char.code (Bytes.unsafe_get out (j lsr 3))
                 land lnot (1 lsl (j land 7))))
          end
        done;
        if !nulls then Some out else None
  in
  let repr =
    match t.repr with
    | Ints a -> Ints (gather_ints a idx n)
    | Dates a -> Dates (gather_ints a idx n)
    | Floats a ->
        let out = Array.create_float n in
        for j = 0 to n - 1 do
          Array.unsafe_set out j (Array.unsafe_get a (Array.unsafe_get idx j))
        done;
        Floats out
    | Bools a -> Bools (Array.init n (fun j -> Array.unsafe_get a idx.(j)))
    | Strings { codes; dict } -> Strings { codes = gather_ints codes idx n; dict }
    | Boxed a -> Boxed (Array.init n (fun j -> Array.unsafe_get a idx.(j)))
  in
  { repr; validity }

let kind_name t =
  match t.repr with
  | Ints _ -> "int"
  | Floats _ -> "float"
  | Dates _ -> "date"
  | Bools _ -> "bool"
  | Strings _ -> "string"
  | Boxed _ -> "boxed"

let dict_size t =
  match t.repr with Strings { dict; _ } -> Array.length dict | _ -> 0

let dict_order dict =
  let order = Array.init (Array.length dict) Fun.id in
  Array.sort (fun a b -> String.compare dict.(a) dict.(b)) order;
  order

(* Constructor classification for [of_values]: which single
   constructor, if any, covers every non-null cell. *)
type kind = KInt | KFloat | KDate | KBool | KString

let kind_of = function
  | Value.Int _ -> Some KInt
  | Value.Float _ -> Some KFloat
  | Value.Date _ -> Some KDate
  | Value.Bool _ -> Some KBool
  | Value.String _ -> Some KString
  | Value.Null -> None

let of_values (cells : Value.t array) : t =
  let n = Array.length cells in
  let uniform = ref None and mixed = ref false and nulls = ref 0 in
  for i = 0 to n - 1 do
    match kind_of cells.(i) with
    | None -> incr nulls
    | Some k -> (
        match !uniform with
        | None -> uniform := Some k
        | Some k' -> if k <> k' then mixed := true)
  done;
  match !uniform with
  | Some k when not !mixed ->
      let validity =
        if !nulls = 0 then None
        else begin
          let b = Bytes.make ((n + 7) / 8) '\x00' in
          for i = 0 to n - 1 do
            if not (Value.is_null cells.(i)) then
              Bytes.unsafe_set b (i lsr 3)
                (Char.chr
                   (Char.code (Bytes.unsafe_get b (i lsr 3))
                   lor (1 lsl (i land 7))))
          done;
          Some b
        end
      in
      let repr =
        match k with
        | KInt ->
            Ints
              (Array.init n (fun i ->
                   match cells.(i) with Value.Int x -> x | _ -> 0))
        | KFloat ->
            Floats
              (Array.init n (fun i ->
                   match cells.(i) with Value.Float x -> x | _ -> 0.))
        | KDate ->
            Dates
              (Array.init n (fun i ->
                   match cells.(i) with Value.Date x -> x | _ -> 0))
        | KBool ->
            Bools
              (Array.init n (fun i ->
                   match cells.(i) with Value.Bool x -> x | _ -> false))
        | KString ->
            let table = Hashtbl.create 64 in
            let dict = Vec.create () in
            let codes =
              Array.init n (fun i ->
                  match cells.(i) with
                  | Value.String s -> (
                      match Hashtbl.find_opt table s with
                      | Some c -> c
                      | None ->
                          let c = Vec.length dict in
                          Hashtbl.add table s c;
                          Vec.push dict s;
                          c)
                  | _ -> 0)
            in
            Strings { codes; dict = Vec.to_array dict }
      in
      { repr; validity }
  | _ ->
      (* mixed constructors, all-null, or empty: keep the cells boxed
         (the array is built fresh by the caller and owned here) *)
      { repr = Boxed cells; validity = None }
