(* Reaching definitions and use-def chains — the workhorse of the paper's
   scalar phase: while→DO conversion, induction-variable substitution and
   constant propagation are all "driven off the use-def graph" (§8).

   Scalar variables only.  A variable is *unsafe* when stores through
   pointers or calls may modify it (its address is taken, it has global
   lifetime, or it is volatile); every memory-writing statement produces a
   weak definition of each unsafe variable.  A use reached by any weak
   definition reports [Unknown]. *)

open Vpc_support
open Vpc_il

type def = {
  d_index : int;
  d_stmt : int;  (* defining stmt id; [entry_def_stmt] = function entry *)
  d_var : int;
  d_weak : bool;
  d_value : Expr.t option;  (* RHS when the def is [Assign (Lvar v, rhs)] *)
}

let entry_def_stmt = -1

type reach =
  | Defs of def list  (* exactly these strong/entry definitions reach *)
  | Unknown           (* a weak def (memory write / call) may intervene *)

type t = {
  func : Func.t;
  prog : Prog.t option;
  defs : def array;
  defs_of_var : (int, int list) Hashtbl.t;
  tracked : (int, unit) Hashtbl.t;
  unsafe : (int, unit) Hashtbl.t;
  strong_index : (int, int) Hashtbl.t;  (* stmt id -> its strong def *)
  weak_of_stmt : (int, int list) Hashtbl.t;  (* memory-writing stmts *)
  nstmts : int;
  pos : (int, int) Hashtbl.t;  (* node id -> RPO position *)
  ins : Bitset.t array;        (* RPO position -> IN bitset *)
}

(* Resolve variable metadata through the function, then the program. *)
let find_var_meta ?prog func id =
  match Func.find_var func id with
  | Some v -> Some v
  | None -> Option.bind prog (fun p -> Prog.find_var p (Some func) id)

let is_unsafe t var_id = Hashtbl.mem t.unsafe var_id

(* Variables defined (strongly) by a statement node itself. *)
let strong_def_of (s : Stmt.t) =
  match s.Stmt.desc with
  | Stmt.Assign (Stmt.Lvar v, rhs) -> Some (v, Some rhs)
  | Stmt.Call (Some (Stmt.Lvar v), _, _) -> Some (v, None)
  | Stmt.Do_loop d -> Some (d.index, None)
  | _ -> None

let writes_memory (s : Stmt.t) =
  match s.Stmt.desc with
  | Stmt.Assign (Stmt.Lmem _, _) | Stmt.Vector _ | Stmt.Call _ -> true
  | _ -> false

(* The variables the analysis tracks (read, addressed, defined, or a
   parameter) and the unsafe subset of them. *)
let collect_vars ?prog (func : Func.t) =
  let tracked = Hashtbl.create 32 in
  let unsafe = Hashtbl.create 16 in
  let mark_unsafe id = Hashtbl.replace unsafe id () in
  let consider id =
    Hashtbl.replace tracked id ();
    match find_var_meta ?prog func id with
    | Some v -> if v.volatile || Var.is_global v then mark_unsafe id
    | None -> mark_unsafe id  (* foreign variable *)
  in
  Stmt.iter_list
    (fun s ->
      List.iter
        (fun e ->
          List.iter consider (Expr.read_vars e);
          List.iter
            (fun id ->
              consider id;
              mark_unsafe id)
            (Expr.vars_addressed [] e))
        (Stmt.shallow_exprs s);
      match strong_def_of s with Some (v, _) -> consider v | None -> ())
    func.Func.body;
  List.iter consider func.Func.params;
  (match prog with
  | Some p ->
      Hashtbl.iter
        (fun id () -> if Hashtbl.mem p.Prog.globals id then mark_unsafe id)
        tracked
  | None -> ());
  (tracked, unsafe)

let build ?(prog : Prog.t option) (func : Func.t) : t =
  let cfg = Cfg.build func in
  let tracked, unsafe = collect_vars ?prog func in
  (* Enumerate definitions. *)
  let defs = ref [] in
  let count = ref 0 in
  let defs_of_var : (int, int list) Hashtbl.t = Hashtbl.create 32 in
  let add_def d_stmt d_var d_weak d_value =
    let d = { d_index = !count; d_stmt; d_var; d_weak; d_value } in
    incr count;
    defs := d :: !defs;
    Hashtbl.replace defs_of_var d_var
      (d.d_index
      :: Option.value (Hashtbl.find_opt defs_of_var d_var) ~default:[]);
    d.d_index
  in
  let entry_defs = ref [] in
  Hashtbl.iter
    (fun id () -> entry_defs := add_def entry_def_stmt id false None :: !entry_defs)
    tracked;
  let strong_index : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let weak_of_stmt : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let nstmts = ref 0 in
  Stmt.iter_list
    (fun s ->
      incr nstmts;
      (match strong_def_of s with
      | Some (v, value) ->
          Hashtbl.replace strong_index s.Stmt.id (add_def s.Stmt.id v false value)
      | None -> ());
      if writes_memory s then begin
        let ws =
          Hashtbl.fold
            (fun v () acc -> add_def s.Stmt.id v true None :: acc)
            unsafe []
        in
        Hashtbl.replace weak_of_stmt s.Stmt.id ws
      end)
    func.Func.body;
  let defs = Array.of_list (List.rev !defs) in
  let ndefs = Array.length defs in
  (* Dense per-node tables indexed by RPO position.  KILL is the def mask
     of the one variable a node strongly defines; GEN re-adds the node's
     own definitions after that mask is cleared. *)
  let order = Array.of_list cfg.Cfg.rpo in
  let n = Array.length order in
  let pos = Hashtbl.create n in
  Array.iteri (fun k id -> Hashtbl.replace pos id k) order;
  let masks : (int, Bitset.t) Hashtbl.t = Hashtbl.create 32 in
  let mask_of v =
    match Hashtbl.find_opt masks v with
    | Some m -> m
    | None ->
        let m = Bitset.create ndefs in
        List.iter (Bitset.add m)
          (Option.value (Hashtbl.find_opt defs_of_var v) ~default:[]);
        Hashtbl.replace masks v m;
        m
  in
  let preds = Array.make n [||] in
  let gen = Array.make n [] and kill = Array.make n None in
  Array.iteri
    (fun k id ->
      let node = Cfg.node cfg id in
      preds.(k) <-
        Array.of_list (List.filter_map (Hashtbl.find_opt pos) node.Cfg.preds);
      match node.Cfg.stmt with
      | None -> if id = Cfg.entry_id then gen.(k) <- !entry_defs
      | Some s -> (
          let weak =
            Option.value (Hashtbl.find_opt weak_of_stmt s.Stmt.id) ~default:[]
          in
          match strong_def_of s with
          | Some (v, _) ->
              gen.(k) <- Hashtbl.find strong_index s.Stmt.id :: weak;
              kill.(k) <- Some (mask_of v)
          | None -> gen.(k) <- weak))
    order;
  (* Fixpoint: IN[n] = ∪ OUT[p], OUT = gen ∪ (IN \ kill).  Both grow
     monotonically from empty, so OUT is accumulated by union. *)
  let ins = Array.init n (fun _ -> Bitset.create ndefs) in
  let outs = Array.init n (fun _ -> Bitset.create ndefs) in
  let scratch = Bitset.create ndefs in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to n - 1 do
      let in_ = ins.(k) in
      Array.iter (fun p -> ignore (Bitset.union_into in_ outs.(p))) preds.(k);
      Bitset.blit ~src:in_ ~dst:scratch;
      (match kill.(k) with Some m -> Bitset.diff_into scratch m | None -> ());
      List.iter (Bitset.add scratch) gen.(k);
      if Bitset.union_into outs.(k) scratch then changed := true
    done
  done;
  {
    func;
    prog;
    defs;
    defs_of_var;
    tracked;
    unsafe;
    strong_index;
    weak_of_stmt;
    nstmts = !nstmts;
    pos;
    ins;
  }

(* The CFG is purely structural, so a rewrite that keeps every statement's
   id, constructor and place (only expressions change) leaves every IN set
   and def site as they were; only the values of strong defs move.  That
   holds exactly while the variable sets and the def-producing statements
   are the build's: simplification may delete the only [&a] or a read, and
   then the unsafe or tracked set, hence the def numbering, changes. *)
let refresh t =
  let same a b =
    Hashtbl.length a = Hashtbl.length b
    && Hashtbl.fold (fun k () ok -> ok && Hashtbl.mem b k) a true
  in
  let tracked, unsafe = collect_vars ?prog:t.prog t.func in
  if not (same tracked t.tracked && same unsafe t.unsafe) then None
  else begin
    let defs = Array.copy t.defs in
    let ok = ref true and nstmts = ref 0 and nstrong = ref 0 in
    Stmt.iter_list
      (fun s ->
        incr nstmts;
        (match strong_def_of s, Hashtbl.find_opt t.strong_index s.Stmt.id with
        | Some (v, value), Some di when defs.(di).d_var = v ->
            incr nstrong;
            defs.(di) <- { (defs.(di)) with d_value = value }
        | None, None -> ()
        | _ -> ok := false);
        if writes_memory s <> Hashtbl.mem t.weak_of_stmt s.Stmt.id then
          ok := false)
      t.func.Func.body;
    if
      !ok && !nstmts = t.nstmts && !nstrong = Hashtbl.length t.strong_index
    then Some { t with defs }
    else None
  end

(* Definitions of [var] reaching the *entry* of the statement node
   [stmt_id] (i.e. visible to uses in that statement). *)
let reaching t ~stmt_id ~var : reach =
  match Hashtbl.find_opt t.pos stmt_id with
  | None -> Unknown  (* unreachable statement *)
  | Some k ->
      let in_ = t.ins.(k) in
      let volatile =
        match find_var_meta ?prog:t.prog t.func var with
        | Some v -> v.volatile
        | None -> true  (* unknown variable: assume the worst *)
      in
      if volatile then Unknown
      else begin
        let result = ref [] in
        let weak = ref false in
        List.iter
          (fun di ->
            if Bitset.mem in_ di then begin
              let d = t.defs.(di) in
              if d.d_weak then weak := true else result := d :: !result
            end)
          (Option.value (Hashtbl.find_opt t.defs_of_var var) ~default:[]);
        if !weak then Unknown
        else Defs (List.sort (fun a b -> compare a.d_index b.d_index) !result)
      end

(* The single reaching definition, when there is exactly one and it is a
   real statement. *)
let unique_def t ~stmt_id ~var =
  match reaching t ~stmt_id ~var with
  | Defs [ d ] when d.d_stmt <> entry_def_stmt -> Some d
  | Defs _ | Unknown -> None

(* Variables (strongly) defined anywhere within a statement list, plus
   whether the list writes memory — the ingredients of loop-invariance. *)
let vars_defined_in (body : Stmt.t list) =
  let set = Hashtbl.create 16 in
  let mem_written = ref false in
  List.iter
    (fun s ->
      Stmt.iter
        (fun s ->
          (match strong_def_of s with
          | Some (v, _) -> Hashtbl.replace set v ()
          | None -> ());
          if writes_memory s then mem_written := true)
        s)
    body;
  (set, !mem_written)

(* Is expression [e] invariant while [body] executes? *)
let invariant_in t (body : Stmt.t list) (e : Expr.t) =
  let defined, mem_written = vars_defined_in body in
  let ok = ref true in
  List.iter
    (fun v ->
      if Hashtbl.mem defined v then ok := false;
      if Hashtbl.mem t.unsafe v && mem_written then ok := false;
      match find_var_meta ?prog:t.prog t.func v with
      | Some vm -> if vm.volatile then ok := false
      | None -> ok := false)
    (Expr.read_vars e);
  if Expr.contains_load e && mem_written then ok := false;
  !ok
