(* Control-flow graph over the structured IL ("the control flow graph
   built for scalar analysis", §5.2).  Each leaf statement is a node; an
   [If]/[While]/[Do_loop] statement is a node representing its condition
   evaluation.  Two synthetic nodes, [entry] and [exit_], bracket the
   function. *)

open Vpc_support
open Vpc_il

let entry_id = -1
let exit_id = -2

type node = {
  stmt : Stmt.t option;  (* None for entry/exit *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  nodes : (int, node) Hashtbl.t;
  func : Func.t;
  mutable rpo : int list;  (* reverse postorder from entry *)
}

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> Diag.internal "cfg: unknown node %d" id

let succs t id = (node t id).succs
let preds t id = (node t id).preds

let add_edge t a b =
  let na = node t a and nb = node t b in
  if not (List.mem b na.succs) then na.succs <- b :: na.succs;
  if not (List.mem a nb.preds) then nb.preds <- a :: nb.preds

(* First node of a statement list, or [next] if the list is empty. *)
let rec list_entry stmts next =
  match stmts with
  | [] -> next
  | s :: rest -> (
      match s.Stmt.desc with
      | Stmt.Nop -> list_entry rest next  (* Nops are not CFG nodes *)
      | _ -> s.Stmt.id)

let build (func : Func.t) : t =
  let t = { nodes = Hashtbl.create 64; func; rpo = [] } in
  Hashtbl.replace t.nodes entry_id { stmt = None; succs = []; preds = [] };
  Hashtbl.replace t.nodes exit_id { stmt = None; succs = []; preds = [] };
  (* Register all non-Nop statements as nodes. *)
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Nop -> ()
      | _ -> Hashtbl.replace t.nodes s.Stmt.id { stmt = Some s; succs = []; preds = [] })
    func.Func.body;
  (* Label name -> node id *)
  let labels = Hashtbl.create 8 in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Label l -> Hashtbl.replace labels l s.Stmt.id
      | _ -> ())
    func.Func.body;
  let label_target l =
    match Hashtbl.find_opt labels l with
    | Some id -> id
    | None -> Diag.internal "cfg: goto to unknown label %s" l
  in
  (* Wire edges.  [next] is the node that control reaches after the
     statement (list) completes normally. *)
  let rec wire_list stmts next =
    match stmts with
    | [] -> ()
    | s :: rest ->
        let following = list_entry rest next in
        wire_stmt s following;
        wire_list rest next
  and wire_stmt (s : Stmt.t) next =
    match s.Stmt.desc with
    | Stmt.Nop -> ()
    | Stmt.Assign _ | Stmt.Call _ | Stmt.Label _ | Stmt.Vector _ | Stmt.Vdef _
      ->
        add_edge t s.id next
    | Stmt.Goto l -> add_edge t s.id (label_target l)
    | Stmt.Return _ -> add_edge t s.id exit_id
    | Stmt.If (_, then_, else_) ->
        add_edge t s.id (list_entry then_ next);
        add_edge t s.id (list_entry else_ next);
        wire_list then_ next;
        wire_list else_ next
    | Stmt.While (_, _, body) ->
        add_edge t s.id (list_entry body s.id);
        add_edge t s.id next;
        wire_list body s.id
    | Stmt.Do_loop d ->
        add_edge t s.id (list_entry d.body s.id);
        add_edge t s.id next;
        wire_list d.body s.id
  in
  add_edge t entry_id (list_entry func.Func.body exit_id);
  wire_list func.Func.body exit_id;
  (* Reverse postorder. *)
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec dfs id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.replace visited id ();
      List.iter dfs (node t id).succs;
      order := id :: !order
    end
  in
  dfs entry_id;
  t.rpo <- !order;
  t

(* Nodes reachable from entry, as a set. *)
let reachable t =
  let set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace set id ()) t.rpo;
  set

let iter_rpo f t = List.iter (fun id -> f id (node t id)) t.rpo

(* Does any goto outside [body] target a label inside it?  Needed by
   while→DO conversion ("branches are entering the loop", §5.2), and the
   dual: does [body] branch out (break/goto/return)? *)
let labels_in stmts =
  let set = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Stmt.iter
        (fun s ->
          match s.Stmt.desc with
          | Stmt.Label l -> Hashtbl.replace set l ()
          | _ -> ())
        s)
    stmts;
  set

let has_branch_into (func : Func.t) (body : Stmt.t list) =
  let inside = labels_in body in
  let inside_ids = Hashtbl.create 16 in
  List.iter
    (fun s -> Stmt.iter (fun s -> Hashtbl.replace inside_ids s.Stmt.id ()) s)
    body;
  let found = ref false in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Goto l
        when Hashtbl.mem inside l && not (Hashtbl.mem inside_ids s.Stmt.id) ->
          found := true
      | _ -> ())
    func.Func.body;
  !found

let has_branch_out_of (body : Stmt.t list) =
  let inside = labels_in body in
  let found = ref false in
  List.iter
    (fun s ->
      Stmt.iter
        (fun s ->
          match s.Stmt.desc with
          | Stmt.Goto l when not (Hashtbl.mem inside l) -> found := true
          | Stmt.Return _ -> found := true
          | _ -> ())
        s)
    body;
  !found
