type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int

type vtype = TBool | TInt | TFloat | TString | TDate

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | String _ -> Some TString
  | Date _ -> Some TDate

let type_name = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TString -> "string"
  | TDate -> "date"

let is_null = function Null -> true | _ -> false

let numeric = function TInt | TFloat -> true | _ -> false

let subtype a b =
  match (a, b) with TInt, TFloat -> true | _ -> a = b

let unify a b =
  if a = b then Some a
  else
    match (a, b) with
    | TInt, TFloat | TFloat, TInt -> Some TFloat
    | _ -> None

(* Fixed rank deciding the order of values of incomparable types, so
   that [compare] is a total order usable for multiset normalization.
   [Null] ranks last: ascending sorts put missing data at the end. *)
let type_rank = function
  | Bool _ -> 0
  | Int _ | Float _ -> 1
  | Date _ -> 2
  | String _ -> 3
  | Null -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let sql_comparable a b =
  match (a, b) with
  | Bool _, Bool _
  | Int _, (Int _ | Float _)
  | Float _, (Int _ | Float _)
  | String _, String _
  | Date _, Date _ ->
      true
  | _ -> false

let sql_compare a b = if sql_comparable a b then Some (compare a b) else None

let hash = function
  | Null -> 0
  | Bool b -> if b then 7 else 3
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s
  | Date d -> 31 * Hashtbl.hash d

(* Hash tables keyed on value equality (consistent with [hash]:
   numerically equal [Int]/[Float] values hash alike). *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = compare a b = 0
  let hash = hash
end)

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

(* Civil-date conversions after Howard Hinnant's algorithms. *)
let days_of_ymd y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let ymd_of_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let of_ymd y m d = Date (days_of_ymd y m d)

(* The C primitive under Printf's [%g]: camlinternalFormat's
   [convert_float] hands it the same format string, so the bytes are
   Printf's without its format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

(* [%.1f] of an integral float below 1e15 is its integer and ".0";
   only [-0.] keeps a sign its integer lacks. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0.0"
    else string_of_int (int_of_float f) ^ ".0"
  else format_float "%.6g" f

(* [%04d-%02d-%02d] by digits; a year outside 0..9999 (wider, or
   signed) keeps Printf. *)
let date_to_string d =
  let y, m, dd = ymd_of_days d in
  if y < 0 || y > 9999 then Printf.sprintf "%04d-%02d-%02d" y m dd
  else begin
    let b = Bytes.create 10 in
    let digit i v = Bytes.unsafe_set b i (Char.unsafe_chr (48 + v)) in
    digit 0 (y / 1000);
    digit 1 (y / 100 mod 10);
    digit 2 (y / 10 mod 10);
    digit 3 (y mod 10);
    Bytes.unsafe_set b 4 '-';
    digit 5 (m / 10);
    digit 6 (m mod 10);
    Bytes.unsafe_set b 7 '-';
    digit 8 (dd / 10);
    digit 9 (dd mod 10);
    Bytes.unsafe_to_string b
  end

let to_string = function
  | Null -> "NULL"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | String s -> s
  | Date d -> date_to_string d

let to_csv_string = function Null -> "" | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_string v)

let parse_date s =
  (* Accepts YYYY-MM-DD. *)
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
      match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
      | Some y, Some m, Some d
        when m >= 1 && m <= 12 && d >= 1 && d <= 31 && String.length s = 10 ->
          Some (of_ymd y m d)
      | _ -> None)
  | _ -> None

let parse_typed ty s =
  if s = "" then Some Null
  else
    match ty with
    | TBool -> (
        match String.lowercase_ascii s with
        | "true" | "t" | "1" | "yes" -> Some (Bool true)
        | "false" | "f" | "0" | "no" -> Some (Bool false)
        | _ -> None)
    | TInt -> Option.map (fun i -> Int i) (int_of_string_opt s)
    | TFloat -> Option.map (fun f -> Float f) (float_of_string_opt s)
    | TString -> Some (String s)
    | TDate -> parse_date s

let parse_guess s =
  if s = "" then Null
  else
    match String.lowercase_ascii s with
    | "true" -> Bool true
    | "false" -> Bool false
    | _ -> (
        match int_of_string_opt s with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt s with
            | Some f -> Float f
            | None -> (
                match parse_date s with Some d -> d | None -> String s)))
