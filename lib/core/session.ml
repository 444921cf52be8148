open Sheet_rel
module Obs = Sheet_obs.Obs

let g_undo = Obs.Metrics.gauge Obs.k_undo_depth
let g_redo = Obs.Metrics.gauge Obs.k_redo_depth

type entry = { index : int; label : string }

type snapshot = { sheet : Spreadsheet.t; label : string }

type t = {
  past : snapshot list;  (** most recent first; head is the current state *)
  future : snapshot list;  (** undone snapshots, most recently undone first *)
  sheets : Store.t;
}

let create ~name rel =
  { past =
      [ { sheet = Spreadsheet.of_relation ~name rel;
          label = Printf.sprintf "Load %s" name } ];
    future = [];
    sheets = Store.create () }

let head t =
  match t.past with
  | s :: _ -> s
  | [] -> assert false (* invariant: past is never empty *)

let current t = (head t).sheet
let store t = t.sheets

(* The registry holds one pair of depth gauges; they track whichever
   session moved last (sessions are plain values, so there may be
   several — shells have exactly one). *)
let observe t =
  Obs.Metrics.set g_undo (List.length t.past - 1);
  Obs.Metrics.set g_redo (List.length t.future);
  t

let push t label sheet =
  observe { t with past = { sheet; label } :: t.past; future = [] }

let apply t op =
  let t0 = Obs.now_ns () in
  match Engine.apply ~store:t.sheets (current t) op with
  | Ok sheet ->
      (* Derive the new materialization incrementally where the
         operator permits, seeding the cache so the redisplay after
         this step is immediate (Sec. V's cost argument). The
         derivation leaves GC work behind: the young cells its new
         columns hold, and major work in proportion to its selection
         vectors and columns. Pay both here, in the step that made
         them: a derivation allocates little on the minor heap, so a
         redisplay would otherwise run most minor collections and
         promote those cells itself. Every session user pays it: the
         REPL, the TUI and the server, inside its engine lock. *)
      ignore (Incremental.materialize_after ~parent:(current t) ~op
                ~child:sheet);
      Obs.with_span "session.gc" (fun () ->
          Gc.minor ();
          ignore (Gc.major_slice 0));
      Obs.Profile.event ~uid:sheet.Spreadsheet.uid ~since:t0 ~kind:"op"
        (Op.describe op);
      Ok (push t (Op.describe op) sheet)
  | Error e ->
      Obs.Profile.event
        ~uid:(current t).Spreadsheet.uid ~since:t0 ~kind:"op-rejected"
        (Printf.sprintf "%s: %s" (Op.describe op) (Errors.to_string e));
      Error e

let history t =
  List.rev t.past
  |> List.mapi (fun i s -> { index = i + 1; label = s.label })

let can_undo t = List.length t.past > 1
let can_redo t = t.future <> []

let undo t =
  match t.past with
  | s :: (_ :: _ as rest) ->
      Obs.Profile.event ~uid:s.sheet.Spreadsheet.uid ~kind:"undo" s.label;
      Some (observe { t with past = rest; future = s :: t.future })
  | _ -> None

let redo t =
  match t.future with
  | s :: rest ->
      Obs.Profile.event ~uid:s.sheet.Spreadsheet.uid ~kind:"redo" s.label;
      Some (observe { t with past = s :: t.past; future = rest })
  | [] -> None

let goto t index =
  let position = List.length t.past in
  let total = position + List.length t.future in
  if index < 1 || index > total then None
  else if index = position then Some t
  else if index < position then
    (* undo (position - index) steps *)
    let rec back t n = if n = 0 then Some t else Option.bind (undo t) (fun t -> back t (n - 1)) in
    back t (position - index)
  else
    let rec forward t n =
      if n = 0 then Some t else Option.bind (redo t) (fun t -> forward t (n - 1))
    in
    forward t (index - position)

let rec undo_many t n =
  if n <= 0 then t
  else match undo t with None -> t | Some t' -> undo_many t' (n - 1)

let save_as t name =
  Store.save t.sheets ~name (current t);
  push t (Printf.sprintf "Save as %s" name) (current t)

let open_sheet t name =
  match Store.open_ t.sheets name with
  | None -> Error (Errors.No_such_sheet name)
  | Some sheet -> Ok (push t (Printf.sprintf "Open %s" name) sheet)

let load_relation t ~name rel =
  push t
    (Printf.sprintf "Load %s" name)
    (Spreadsheet.of_relation ~name rel)

let push_sheet t ~label sheet = push t label sheet

let selections_on t col = Engine.selections_on (current t) col

let modification t label result =
  match result with
  | Ok sheet ->
      Obs.Profile.event ~uid:sheet.Spreadsheet.uid ~kind:"op" label;
      Ok (push t label sheet)
  | Error e ->
      Obs.Profile.event
        ~uid:(current t).Spreadsheet.uid ~kind:"op-rejected"
        (Printf.sprintf "%s: %s" label (Errors.to_string e));
      Error e

let replace_selection t ~id pred =
  modification t
    (Printf.sprintf "Modify selection #%d to %s" id (Expr.to_string pred))
    (Engine.replace_selection (current t) id pred)

let remove_selection t ~id =
  modification t
    (Printf.sprintf "Remove selection #%d" id)
    (Engine.remove_selection (current t) id)

let remove_computed t name =
  modification t
    (Printf.sprintf "Remove column %s" name)
    (Engine.remove_computed (current t) name)

let materialized t = Materialize.visible (current t)
