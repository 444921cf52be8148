open Sheet_rel

type t = {
  uid : int;
  name : string;
  base_name : string;
  version : int;
  base : Relation.t;
  state : Query_state.t;
}

(* Uid allocation. The default namespace is the process-global counter
   (uids 1, 2, 3, ...). A caller may instead allocate from a numbered
   {e arena}: uids become [arena lsl arena_shift lor local], where the
   local counter is private to the arena. Arenas make per-session uid
   sequences deterministic — a server session replayed alone issues
   exactly the uids it issued under concurrent load — while staying
   collision-free across arenas (and with the default namespace, whose
   counter never plausibly reaches [1 lsl arena_shift]). *)

let arena_shift = 32
let uid_counter = ref 0
let arena_counters : (int, int ref) Hashtbl.t = Hashtbl.create 8
let current_arena : int option ref = ref None

let fresh_uid () =
  match !current_arena with
  | None ->
      incr uid_counter;
      !uid_counter
  | Some arena ->
      let local =
        match Hashtbl.find_opt arena_counters arena with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add arena_counters arena r;
            r
      in
      incr local;
      (arena lsl arena_shift) lor !local

let in_uid_arena arena f =
  if arena < 1 || arena > 1 lsl 29 then
    invalid_arg "Spreadsheet.in_uid_arena: arena out of range";
  let prev = !current_arena in
  current_arena := Some arena;
  Fun.protect ~finally:(fun () -> current_arena := prev) f

let same_uid_arena a b = a lsr arena_shift = b lsr arena_shift

let reset_uid_arena arena = Hashtbl.remove arena_counters arena

let of_relation ~name base =
  { uid = fresh_uid ();
    name;
    base_name = name;
    version = 0;
    base;
    state = Query_state.empty }

let bump t = { t with version = t.version + 1; uid = fresh_uid () }

let grouping t = t.state.Query_state.grouping

let base_schema t = Relation.schema t.base

let full_schema t =
  List.fold_left
    (fun acc (c : Computed.t) ->
      Schema.append acc { Schema.name = c.Computed.name; ty = c.Computed.ty })
    (base_schema t) t.state.Query_state.computed

let hidden_columns t = t.state.Query_state.hidden

let is_hidden t name = List.mem name (hidden_columns t)

let visible_columns t =
  List.filter (fun n -> not (is_hidden t n)) (Schema.names (full_schema t))

let visible_schema t = Schema.restrict (full_schema t) (visible_columns t)

let column_exists t name = Schema.mem (full_schema t) name

let is_computed t name =
  Option.is_some (Query_state.find_computed t.state name)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>spreadsheet %S (version %d, base %s, %d rows)@ columns: %s%s@ %a@ \
     %d selection(s), %d computed, dedup=%b@]"
    t.name t.version t.base_name
    (Relation.cardinality t.base)
    (String.concat ", " (visible_columns t))
    (match hidden_columns t with
    | [] -> ""
    | h -> Printf.sprintf " (hidden: %s)" (String.concat ", " h))
    Grouping.pp (grouping t)
    (List.length t.state.Query_state.selections)
    (List.length t.state.Query_state.computed)
    t.state.Query_state.dedup
