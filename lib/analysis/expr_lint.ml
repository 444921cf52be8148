open Sheet_rel

let unknown_columns ~known e =
  match known with
  | None -> []
  | Some names ->
      List.filter (fun c -> not (List.mem c names)) (Expr.columns e)

(* Conjunction of the conjuncts at the selected indices. *)
let conj_where conjs keep =
  match List.filteri (fun j _ -> keep j) conjs with
  | [] -> Expr.Const (Value.Bool true)
  | c :: cs -> List.fold_left (fun a b -> Expr.And (a, b)) c cs

(* [x = v] with the constant on either side. *)
let eq_atom = function
  | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Const v)
  | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col c) ->
      Some (c, v)
  | _ -> None

(* [x <> v], spelled with [<>] or as a negated equality. *)
let ne_atom = function
  | Expr.Cmp (Expr.Ne, Expr.Col c, Expr.Const v)
  | Expr.Cmp (Expr.Ne, Expr.Const v, Expr.Col c) ->
      Some (c, v)
  | Expr.Not inner -> eq_atom inner
  | _ -> None

(* An equality and a disequality pinning the same column to the same
   value ([x = 3 AND x <> 3]) — name the witness column so the user
   sees where the contradiction pivots. *)
let contradictory_pairs conjs =
  let arr = Array.of_list conjs in
  let n = Array.length arr in
  let out = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let clash a b =
        match (eq_atom a, ne_atom b) with
        | Some (c1, v1), Some (c2, v2) ->
            String.equal c1 c2 && Value.equal v1 v2
        | _ -> false
      in
      if clash arr.(i) arr.(j) || clash arr.(j) arr.(i) then
        out := (arr.(i), arr.(j)) :: !out
    done
  done;
  List.rev !out

let witness_column a b =
  let cols_b = Expr.columns b in
  match List.find_opt (fun c -> List.mem c cols_b) (Expr.columns a) with
  | Some c -> Some c
  | None -> ( match cols_b with c :: _ -> Some c | [] -> None)

let lint_pred ?type_of ?known ~loc (pred : Expr.t) : Diagnostic.t list =
  let unknown = unknown_columns ~known pred in
  if unknown <> [] then
    [ Diagnostic.error ~code:"unknown-column" ~loc
        (Printf.sprintf "references unknown column%s %s"
           (if List.length unknown > 1 then "s" else "")
           (String.concat ", " unknown)) ]
  else
    match Sheetsolve.check ?type_of pred with
    | `Unsat cols ->
        let detail =
          match cols with
          | [] -> ""
          | cs -> " (conflicting constraints on " ^ String.concat ", " cs ^ ")"
        in
        Diagnostic.error ~code:"unsat-predicate" ~loc
          (Printf.sprintf
             "predicate %s can never hold%s — it filters out every row"
             (Expr.to_string pred) detail)
        :: List.map
             (fun (a, b) ->
               Diagnostic.warning ~code:"contradictory-conjunct" ~loc
                 (Printf.sprintf
                    "conjunct %s contradicts %s (both pin column %s)"
                    (Expr.to_string b) (Expr.to_string a)
                    (match witness_column a b with
                    | Some c -> c
                    | None -> "?")))
             (contradictory_pairs (Expr.conjuncts pred))
    | `Maybe ->
        let diags = ref [] in
        let add d = diags := d :: !diags in
        if Sheetsolve.tautology ?type_of pred then
          add
            (Diagnostic.warning ~code:"tautology" ~loc
               (Printf.sprintf "predicate %s holds on every row — the filter is a no-op"
                  (Expr.to_string pred)));
        (* conjunct-level redundancy: duplicates and implied conjuncts *)
        let conjs = Expr.conjuncts pred in
        if List.length conjs > 1 then begin
          let arr = Array.of_list conjs in
          let n = Array.length arr in
          let reported = Array.make n false in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              if (not reported.(j)) && Expr.equal arr.(i) arr.(j) then begin
                reported.(j) <- true;
                add
                  (Diagnostic.hint ~code:"duplicate-conjunct" ~loc
                     (Printf.sprintf "conjunct %s is repeated"
                        (Expr.to_string arr.(j))))
              end
            done
          done;
          (* semantically equivalent (but not literally equal)
             conjuncts, e.g. [Price < 10000] vs [Price <= 9999] over
             an integer column: the later one is flagged, with the
             column the equivalence pivots on *)
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              if
                (not reported.(i))
                && (not reported.(j))
                && (not (Expr.equal arr.(i) arr.(j)))
                && Sheetsolve.equivalent ?type_of arr.(i) arr.(j)
              then begin
                reported.(j) <- true;
                add
                  (Diagnostic.hint ~code:"equivalent-conjunct" ~loc
                     (Printf.sprintf
                        "conjunct %s is equivalent to conjunct %s%s"
                        (Expr.to_string arr.(j))
                        (Expr.to_string arr.(i))
                        (match witness_column arr.(i) arr.(j) with
                        | Some c -> " (on column " ^ c ^ ")"
                        | None -> "")))
              end
            done
          done;
          (* a conjunct implied by the rest adds nothing; scan from the
             right so of two equivalent conjuncts the later one is
             flagged. Already-reported duplicates are left out of the
             rest, lest they justify flagging their own twin. *)
          for i = n - 1 downto 0 do
            if
              (not reported.(i))
              && Sheetsolve.implies ?type_of
                   (conj_where conjs (fun j -> j <> i && not reported.(j)))
                   arr.(i)
            then begin
              reported.(i) <- true;
              add
                (Diagnostic.hint ~code:"redundant-conjunct" ~loc
                   (Printf.sprintf "conjunct %s is implied by the rest of the predicate"
                      (Expr.to_string arr.(i))))
            end
          done
        end;
        List.rev !diags
