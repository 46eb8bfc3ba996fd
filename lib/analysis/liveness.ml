(* Backward live-variable analysis over the CFG.  Dead-code elimination
   and induction-variable elimination consult live-out sets; unsafe
   variables (address-taken, global, volatile) are treated as live
   everywhere that matters. *)

open Vpc_support
open Vpc_il

type t = {
  var_index : (int, int) Hashtbl.t;  (* var id -> bit index *)
  pos : (int, int) Hashtbl.t;        (* node id -> RPO position *)
  live_out : Bitset.t array;         (* RPO position -> live-out set *)
  unsafe : (int, unit) Hashtbl.t;
}

let uses_of (s : Stmt.t) = Stmt.shallow_uses s

let def_of (s : Stmt.t) =
  match s.Stmt.desc with
  | Stmt.Assign (Stmt.Lvar v, _) -> Some v
  | Stmt.Call (Some (Stmt.Lvar v), _, _) -> Some v
  | Stmt.Do_loop d -> Some d.index
  | _ -> None

let build (func : Func.t) : t =
  let cfg = Cfg.build func in
  (* universe of scalar vars *)
  let var_index = Hashtbl.create 32 in
  let n = ref 0 in
  let consider id =
    if not (Hashtbl.mem var_index id) then begin
      Hashtbl.replace var_index id !n;
      incr n
    end
  in
  let unsafe = Hashtbl.create 16 in
  Stmt.iter_list
    (fun s ->
      List.iter
        (fun e ->
          List.iter consider (Expr.read_vars e);
          List.iter
            (fun id ->
              consider id;
              Hashtbl.replace unsafe id ())
            (Expr.vars_addressed [] e))
        (Stmt.shallow_exprs s);
      match def_of s with Some v -> consider v | None -> ())
    func.Func.body;
  List.iter consider func.Func.params;
  Hashtbl.iter
    (fun id _idx ->
      match Func.find_var func id with
      | Some v -> if v.volatile || Var.is_global v then Hashtbl.replace unsafe id ()
      | None -> Hashtbl.replace unsafe id ())
    var_index;
  let nvars = !n in
  (* Dense per-node tables indexed by RPO position.  Unsafe variables need
     no exit seed: [live_out_of] answers [true] for them outright, and
     each variable's bit flows independently of the others. *)
  let order = Array.of_list cfg.Cfg.rpo in
  let nodes = Array.length order in
  let pos = Hashtbl.create nodes in
  Array.iteri (fun k id -> Hashtbl.replace pos id k) order;
  let bit v = Hashtbl.find_opt var_index v in
  let succs = Array.make nodes [||] in
  let defs = Array.make nodes None and uses = Array.make nodes [] in
  Array.iteri
    (fun k id ->
      let node = Cfg.node cfg id in
      succs.(k) <-
        Array.of_list (List.filter_map (Hashtbl.find_opt pos) node.Cfg.succs);
      Option.iter
        (fun s ->
          defs.(k) <- Option.bind (def_of s) bit;
          uses.(k) <- List.filter_map bit (uses_of s))
        node.Cfg.stmt)
    order;
  let live_in = Array.init nodes (fun _ -> Bitset.create nvars) in
  let live_out = Array.init nodes (fun _ -> Bitset.create nvars) in
  let scratch = Bitset.create nvars in
  let changed = ref true in
  while !changed do
    changed := false;
    (* postorder (reverse of RPO) for backward flow; IN = (OUT \ def) ∪
       uses grows monotonically, so it is accumulated by union *)
    for k = nodes - 1 downto 0 do
      let out = live_out.(k) in
      Array.iter (fun sk -> ignore (Bitset.union_into out live_in.(sk))) succs.(k);
      Bitset.blit ~src:out ~dst:scratch;
      Option.iter (Bitset.remove scratch) defs.(k);
      List.iter (Bitset.add scratch) uses.(k);
      if Bitset.union_into live_in.(k) scratch then changed := true
    done
  done;
  { var_index; pos; live_out; unsafe }

let live_out_of t ~stmt_id ~var =
  match Hashtbl.find_opt t.var_index var with
  | None -> false
  | Some idx -> (
      if Hashtbl.mem t.unsafe var then true
      else
        match Hashtbl.find_opt t.pos stmt_id with
        | Some k -> Bitset.mem t.live_out.(k) idx
        | None -> false (* unreachable statement: nothing is live *))
