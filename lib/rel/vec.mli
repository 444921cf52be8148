(** Minimal growable vector (amortized O(1) push); stands in for the
    [Dynarray] module OCaml gains only in 5.2. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val to_array : 'a t -> 'a array
(** Fresh array of the first [length] elements. *)

val filter_array : ('a -> bool) -> 'a array -> 'a array
(** Order-preserving filter over a plain array; single pass, one
    final trim copy. *)

val stable_sorted : ('a -> 'a -> int) -> 'a array -> 'a array
(** Stable merge sort into a fresh array; the input is not mutated. *)
