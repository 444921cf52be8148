(* Minimal growable vector (OCaml 5.1 has no [Dynarray]). Used by
   operators whose output size is not known up front; [to_array]
   hands the rows to [Relation.unsafe_of_array] with one final copy. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let grown = Array.make (max 8 (2 * cap)) x in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let to_array t = Array.sub t.data 0 t.len

(* Order-preserving array filter: fill a full-size scratch array and
   trim once — no per-element allocation beyond the final copy. *)
let filter_array keep data =
  let n = Array.length data in
  if n = 0 then [||]
  else begin
    let out = Array.make n data.(0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let x = data.(i) in
      if keep x then begin
        out.(!k) <- x;
        incr k
      end
    done;
    if !k = n then out else Array.sub out 0 !k
  end

(* Stable sort into a fresh array under an arbitrary comparison.
   Both branches are merge sorts; the stdlib's list sort is measurably
   faster on small inputs (its merges build young immutable cells, no
   write barrier), while the in-place array sort wins once the list's
   cache behaviour degrades. (Keys that rank into ints sort faster
   still as a radix-sorted index permutation: see
   [Rel_algebra.sort].) *)
let small_sort_cutoff = 4096

let stable_sorted compare data =
  if Array.length data < small_sort_cutoff then
    Array.of_list (List.stable_sort compare (Array.to_list data))
  else begin
    let out = Array.copy data in
    Array.stable_sort compare out;
    out
  end
