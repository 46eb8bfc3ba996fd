(* Whole-program points-to and mod/ref analysis.

   The paper's §1 names unconstrained pointer aliasing as the central
   obstacle to vectorizing C; the escape hatches it offers (the per-loop
   pragma, the Fortran-parameter-semantics option) make the *user*
   assert disjointness.  This module proves it instead: a
   flow-insensitive, field-offset-aware, Andersen-style inclusion-based
   analysis over the whole program (after catalog import, so paged-in
   procedures participate), producing

     (a) a points-to graph: which abstract objects each pointer-valued
         slot may address, with a constant-offset lattice on top;
     (b) per-procedure mod/ref summaries (callee effects folded in to a
         call-graph fixpoint), used by the race checker to bound calls
         that used to be worst-case;
     (c) a disjointness oracle over address expressions, installed into
         Dependence.Alias ahead of its May_alias fallback.

   Abstract objects are named program variables (one object per array /
   struct / addressed scalar), one shared object [Lit] for every
   integer-literal address (memory-mapped device registers), and
   [Unknown] for storage the program never names (whatever unknown
   callees or unknown callers hand us).

   Soundness rests on two documented assumptions:
     - strict provenance: the program does not forge a pointer to a
       named object out of thin air (integer arithmetic that carries a
       pointer value is tracked, including through casts; conjuring
       `(float* )0x1234` aliases only [Lit], never a named object);
     - compiler temporaries created by passes that run *after* the
       analysis (strip-mine counters, scalar-replacement value
       temporaries) carry addresses only if pointer-typed.  Every pass
       in the pipeline satisfies this; pointer-typed temporaries are
       treated as Unknown.

   Flow-insensitivity makes the result valid at every program point, so
   the oracle stays sound for loop-variant pointers: a bumped pointer's
   set covers every value it ever holds (its offset widens to [Any]),
   and two sweeps confined to disjoint object sets can never meet. *)

open Vpc_il

type obj =
  | Obj of int  (* the storage of variable v *)
  | Lit         (* all integer-literal addresses (device registers) *)
  | Unknown     (* storage the program never names *)

module Objset = Set.Make (struct
  type t = obj

  let compare = compare
end)

type off = Known of int | Any

type summary = {
  mods : Objset.t;  (* objects the call may write (callees folded in) *)
  refs : Objset.t;  (* objects the call may read *)
  io : bool;        (* externally visible effects: printf, unknown callees *)
}

(* Pointer-holding slots of the constraint graph. *)
type slot =
  | Svar of int   (* a scalar variable *)
  | Smem of obj   (* the summarized contents of an object *)
  | Sret of string  (* a function's returned value *)

(* Where a pointer value may come from (right-hand sides). *)
type src =
  | Sbase of int        (* &v *)
  | Slit of int         (* integer literal used as an address *)
  | Scopy of slot
  | Sload of src        (* contents of whatever [src] addresses *)
  | Sshift of src * off (* pointer arithmetic *)
  | Sunion of src list
  | Sunknown

type constr =
  | Into of slot * src  (* pts(slot) ⊇ eval(src) *)
  | Store of src * src  (* ∀ o ∈ eval(addr): contents(o) ⊇ eval(value) *)

(* Effects recorded during the walk, resolved after the solve. *)
type call_effect =
  | Known_call of string
  | Builtin_io of Expr.t list   (* printf: reads its arguments, does io *)
  | Unknown_call of Expr.t list

type fun_facts = {
  mutable constraints : constr list;
  mutable calls : call_effect list;
  (* address exprs written / read by the function's own statements *)
  mutable waddrs : Expr.t list;
  mutable raddrs : Expr.t list;
  mutable gmods : Objset.t;  (* global scalars assigned directly *)
  mutable grefs : Objset.t;  (* global scalars read directly *)
}

type t = {
  prog : Prog.t;
  vartab : (int, Var.t) Hashtbl.t;  (* vars known at analysis time *)
  pts : (slot, (obj, off) Hashtbl.t) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
}

let join_off a b =
  match a, b with Known x, Known y when x = y -> Known x | _ -> Any

(* ------------------------------------------------------------------ *)
(* Constraint generation                                               *)

(* [as_addr] marks positions where an integer literal denotes an address
   (dereference addresses, values bound to pointer-typed slots); in plain
   arithmetic a literal is just a number and contributes nothing. *)
let rec src_of ~as_addr (e : Expr.t) : src option =
  let shift_any = Option.map (fun s -> Sshift (s, Any)) in
  let union xs =
    match List.filter_map Fun.id xs with
    | [] -> None
    | [ s ] -> Some s
    | ss -> Some (Sunion ss)
  in
  (* a + k: the literal is an offset of the other operand — unless that
     operand is not pointer-typed, in which case the literal itself may
     be the base (0x4000 + i addressing a device block) *)
  let shifted_const x k =
    let base = Option.map (fun s -> Sshift (s, Known k)) (src_of ~as_addr x) in
    if as_addr && not (Ty.is_pointer x.Expr.ty) then
      union [ base; Some (Slit k) ]
    else base
  in
  match e.Expr.desc with
  | Expr.Addr_of v -> Some (Sbase v)
  | Expr.Const_int k -> if as_addr then Some (Slit k) else None
  | Expr.Const_float _ -> None
  | Expr.Var v -> Some (Scopy (Svar v))
  | Expr.Load p -> (
      match src_of ~as_addr:true p with
      | Some a -> Some (Sload a)
      | None -> Some (Sload Sunknown))
  | Expr.Binop (Expr.Add, a, b) -> (
      match Expr.const_int_val b, Expr.const_int_val a with
      | Some k, _ -> shifted_const a k
      | _, Some k -> shifted_const b k
      | None, None ->
          union [ shift_any (src_of ~as_addr a); shift_any (src_of ~as_addr b) ])
  | Expr.Binop (Expr.Sub, a, b) -> (
      match Expr.const_int_val b with
      | Some k -> Option.map (fun s -> Sshift (s, Known (-k))) (src_of ~as_addr a)
      | None ->
          union
            [
              shift_any (src_of ~as_addr a);
              shift_any (src_of ~as_addr:false b);
            ])
  | Expr.Binop (_, a, b) ->
      union
        [
          shift_any (src_of ~as_addr:false a);
          shift_any (src_of ~as_addr:false b);
        ]
  | Expr.Unop (_, a) -> shift_any (src_of ~as_addr:false a)
  | Expr.Cast (_, a) -> src_of ~as_addr a

(* Address position: something must be addressed; an expression with no
   pointer source dereferences unknowable storage. *)
let addr_src e = match src_of ~as_addr:true e with Some s -> s | None -> Sunknown

let facts_of_func (prog : Prog.t) (func : Func.t) : fun_facts =
  let fx =
    {
      constraints = [];
      calls = [];
      waddrs = [];
      raddrs = [];
      gmods = Objset.empty;
      grefs = Objset.empty;
    }
  in
  let add c = fx.constraints <- c :: fx.constraints in
  let var_ty v =
    match Prog.find_var prog (Some func) v with
    | Some var -> var.Var.ty
    | None -> Ty.Int
  in
  let is_global v =
    match Prog.find_var prog (Some func) v with
    | Some var -> Var.is_global var && not (Var.is_memory_object var)
    | None -> false
  in
  (* reads performed by evaluating [e]: loads and global-scalar reads *)
  let record_reads e =
    Expr.iter
      (fun x ->
        match x.Expr.desc with
        | Expr.Load p -> fx.raddrs <- p :: fx.raddrs
        | Expr.Var v when is_global v -> fx.grefs <- Objset.add (Obj v) fx.grefs
        | _ -> ())
      e
  in
  let bind_value slot ~ptr e =
    match src_of ~as_addr:ptr e with Some s -> add (Into (slot, s)) | None -> ()
  in
  let store_value addr e =
    let elt = if Ty.is_pointer addr.Expr.ty then Ty.pointee addr.Expr.ty else Ty.Int in
    match src_of ~as_addr:(Ty.is_pointer elt) e with
    | Some s -> add (Store (addr_src addr, s))
    | None -> ()
  in
  let do_call dst target args =
    (match dst with
    | Some (Stmt.Lvar v) ->
        if is_global v then fx.gmods <- Objset.add (Obj v) fx.gmods
    | Some (Stmt.Lmem a) ->
        record_reads a;
        fx.waddrs <- a :: fx.waddrs
    | None -> ());
    List.iter record_reads args;
    let ret_into s =
      match dst with
      | Some (Stmt.Lvar v) -> add (Into (Svar v, s))
      | Some (Stmt.Lmem a) -> add (Store (addr_src a, s))
      | None -> ()
    in
    let unknown () =
      (* arguments escape to code we cannot see; the result may be any
         escaped pointer or fresh unknown storage *)
      List.iter
        (fun arg ->
          match src_of ~as_addr:false arg with
          | Some s -> add (Into (Smem Unknown, s))
          | None -> ())
        args;
      ret_into (Sload Sunknown);
      fx.calls <- Unknown_call args :: fx.calls
    in
    match target with
    | Stmt.Indirect _ -> unknown ()
    | Stmt.Direct name -> (
        match Prog.find_func prog name with
        | Some callee when List.length callee.Func.params = List.length args ->
            List.iter2
              (fun pid arg ->
                let pty =
                  match Func.find_var callee pid with
                  | Some v -> v.Var.ty
                  | None -> Ty.Int
                in
                bind_value (Svar pid) ~ptr:(Ty.is_pointer pty) arg)
              callee.Func.params args;
            ret_into (Scopy (Sret name));
            fx.calls <- Known_call name :: fx.calls
        | Some _ -> unknown ()
        | None ->
            if name = "printf" then (
              (* interpreter/simulator builtin: reads its arguments
                 (through pointers for %s), writes nothing, does io *)
              fx.calls <- Builtin_io args :: fx.calls)
            else unknown ())
  in
  let rec walk stmts = List.iter walk_stmt stmts
  and walk_stmt (s : Stmt.t) =
    match s.Stmt.desc with
    | Stmt.Assign (Stmt.Lvar v, e) ->
        record_reads e;
        if is_global v then fx.gmods <- Objset.add (Obj v) fx.gmods;
        bind_value (Svar v) ~ptr:(Ty.is_pointer (var_ty v)) e
    | Stmt.Assign (Stmt.Lmem a, e) ->
        record_reads a;
        record_reads e;
        fx.waddrs <- a :: fx.waddrs;
        store_value a e
    | Stmt.Call (dst, target, args) -> do_call dst target args
    | Stmt.If (c, t, e) ->
        record_reads c;
        walk t;
        walk e
    | Stmt.While (_, c, b) ->
        record_reads c;
        walk b
    | Stmt.Do_loop d ->
        record_reads d.Stmt.lo;
        record_reads d.Stmt.hi;
        record_reads d.Stmt.step;
        (* the index walks from lo in steps; treat as lo shifted by Any *)
        (match src_of ~as_addr:false d.Stmt.lo with
        | Some s -> add (Into (Svar d.Stmt.index, Sshift (s, Any)))
        | None -> ());
        walk d.Stmt.body
    | Stmt.Return (Some e) ->
        record_reads e;
        bind_value (Sret func.Func.name) ~ptr:(Ty.is_pointer func.Func.ret_ty) e
    | Stmt.Return None | Stmt.Goto _ | Stmt.Label _ | Stmt.Nop -> ()
    | Stmt.Vector v ->
        record_reads v.Stmt.vdst.Stmt.base;
        fx.waddrs <- v.Stmt.vdst.Stmt.base :: fx.waddrs;
        let rec vexpr = function
          | Stmt.Vsec sec ->
              record_reads sec.Stmt.base;
              fx.raddrs <- sec.Stmt.base :: fx.raddrs
          | Stmt.Vscalar e | Stmt.Viota (e, _) -> record_reads e
          | Stmt.Vcast (_, v) | Stmt.Vun (_, v) -> vexpr v
          | Stmt.Vbin (_, a, b) ->
              vexpr a;
              vexpr b
          | Stmt.Vtmp _ -> ()
        in
        vexpr v.Stmt.vsrc;
        if Ty.is_pointer v.Stmt.velt then
          (* vectors of pointers never arise from our vectorizer; stay
             sound if they ever do *)
          add (Store (addr_src v.Stmt.vdst.Stmt.base, Sunknown))
    | Stmt.Vdef vd ->
        let rec vexpr = function
          | Stmt.Vsec sec ->
              record_reads sec.Stmt.base;
              fx.raddrs <- sec.Stmt.base :: fx.raddrs
          | Stmt.Vscalar e | Stmt.Viota (e, _) -> record_reads e
          | Stmt.Vcast (_, v) | Stmt.Vun (_, v) -> vexpr v
          | Stmt.Vbin (_, a, b) ->
              vexpr a;
              vexpr b
          | Stmt.Vtmp _ -> ()
        in
        vexpr vd.Stmt.vval
  in
  walk func.Func.body;
  fx

let global_constraints (prog : Prog.t) : constr list =
  let cs = ref [] in
  let add c = cs := c :: !cs in
  List.iter
    (fun (g : Prog.global) ->
      let v = g.Prog.gvar in
      (match v.Var.storage with
      | Var.Extern ->
          (* defined elsewhere: unknown code knows this object — its
             address escapes and its contents are arbitrary *)
          add (Into (Smem Unknown, Sbase v.Var.id));
          if Var.is_memory_object v then
            add (Store (Sbase v.Var.id, Sload Sunknown))
          else if Ty.is_pointer v.Var.ty then
            add (Into (Svar v.Var.id, Sload Sunknown))
      | _ -> ());
      match g.Prog.ginit with
      | Prog.Init_none | Prog.Init_string _ -> ()
      | Prog.Init_scalar e ->
          if Ty.is_pointer v.Var.ty then (
            match src_of ~as_addr:true e with
            | Some s -> add (Into (Svar v.Var.id, s))
            | None -> ())
      | Prog.Init_array es ->
          let elt =
            match v.Var.ty with Ty.Array (t, _) -> t | t -> t
          in
          if Ty.is_pointer elt then
            List.iter
              (fun e ->
                match src_of ~as_addr:true e with
                | Some s -> add (Store (Sbase v.Var.id, s))
                | None -> ())
              es)
    (Prog.globals_list prog);
  !cs

(* Pointer parameters of procedures with no visible caller are bound by
   an unknown caller; with any indirect call in the program, every
   procedure may be so bound. *)
let entry_constraints (prog : Prog.t) ~(has_indirect : bool) : constr list =
  let called = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun s ->
          match s.Stmt.desc with
          | Stmt.Call (_, Stmt.Direct name, _) -> Hashtbl.replace called name ()
          | _ -> ())
        (Func.all_stmts f))
    prog.Prog.funcs;
  List.concat_map
    (fun (f : Func.t) ->
      if has_indirect || not (Hashtbl.mem called f.Func.name) then
        List.filter_map
          (fun pid ->
            match Func.find_var f pid with
            | Some v when Ty.is_pointer v.Var.ty ->
                Some (Into (Svar pid, Sunknown))
            | _ -> None)
          f.Func.params
      else [])
    prog.Prog.funcs

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)

let scalar_slot vartab (o : obj) : slot =
  (* a scalar variable and its storage are the same cell; arrays and
     structs get a summarized contents cell *)
  match o with
  | Obj v -> (
      match Hashtbl.find_opt vartab v with
      | Some var when not (Var.is_memory_object var) -> Svar v
      | _ -> Smem o)
  | o -> Smem o

(* Naive reference solver: re-evaluate every constraint (plus the escape
   closure) until a full round changes nothing.  Kept as the oracle the
   worklist solver is differentially tested against. *)
let solve_naive vartab (constraints : constr list) =
  let pts : (slot, (obj, off) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let changed = ref true in
  let cell slot =
    match Hashtbl.find_opt pts slot with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.add pts slot h;
        h
  in
  let add slot (o, f) =
    let h = cell slot in
    match Hashtbl.find_opt h o with
    | None ->
        Hashtbl.replace h o f;
        changed := true
    | Some f0 ->
        let j = join_off f0 f in
        if j <> f0 then (
          Hashtbl.replace h o j;
          changed := true)
  in
  let contents slot =
    match Hashtbl.find_opt pts slot with
    | None -> []
    | Some h -> Hashtbl.fold (fun o f acc -> (o, f) :: acc) h []
  in
  let rec eval = function
    | Sbase v -> [ (Obj v, Known 0) ]
    | Slit k -> [ (Lit, Known k) ]
    | Sunknown -> [ (Unknown, Any) ]
    | Scopy s -> contents s
    | Sshift (s, Known k) ->
        List.map
          (fun (o, f) ->
            (o, match f with Known x -> Known (x + k) | Any -> Any))
          (eval s)
    | Sshift (s, Any) -> List.map (fun (o, _) -> (o, Any)) (eval s)
    | Sunion xs -> List.concat_map eval xs
    | Sload a ->
        List.concat_map
          (fun (o, _) ->
            let back = if o = Unknown then [ (Unknown, Any) ] else [] in
            back @ contents (scalar_slot vartab o))
          (eval a)
  in
  while !changed do
    changed := false;
    List.iter
      (function
        | Into (slot, s) -> List.iter (add slot) (eval s)
        | Store (a, v) ->
            let vals = eval v in
            List.iter
              (fun (o, _) ->
                let tgt =
                  if o = Unknown then Smem Unknown else scalar_slot vartab o
                in
                List.iter (add tgt) vals)
              (eval a))
      constraints;
    (* escape closure: unknown code can overwrite any escaped object
       with any escaped pointer (or fresh unknown storage), and can read
       pointers back out of escaped objects *)
    let esc = contents (Smem Unknown) in
    List.iter
      (fun (o, _) ->
        if o <> Unknown then begin
          let slot = scalar_slot vartab o in
          add slot (Unknown, Any);
          List.iter (add slot) esc;
          List.iter (add (Smem Unknown)) (contents slot)
        end)
      esc
  done;
  pts

(* Worklist solver: same least fixpoint as {!solve_naive}, reached by
   re-evaluating only the constraints whose inputs changed.

   Every [contents] read during the evaluation of a constraint
   subscribes that constraint to the slot it read (the read set is
   dynamic — [Sload] chases the current points-to graph — so
   subscriptions accumulate across re-evaluations).  When a slot gains
   an object or widens an offset, its subscribers are re-queued.

   The escape closure is expressed as ordinary constraints materialized
   on demand: the first time object [o] appears in the escaped set
   (the contents of [Smem Unknown]) we append

     slot(o) ⊇ {Unknown}        — unknown code may store fresh storage
     slot(o) ⊇ contents(⊥)      — … or any other escaped pointer
     ⊥ ⊇ contents(slot(o))      — … and may read pointers back out

   which is exactly one unrolling of the naive loop's closure step, made
   permanent and incremental. *)
let solve_worklist vartab (constraints : constr list) =
  let pts : (slot, (obj, off) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let cons : (int, constr) Hashtbl.t = Hashtbl.create 256 in
  let ncons = ref 0 in
  let queue = Queue.create () in
  let queued : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let subs : (slot, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let sub_set : (slot * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let enqueue i =
    if not (Hashtbl.mem queued i) then begin
      Hashtbl.replace queued i ();
      Queue.add i queue
    end
  in
  let push_constr c =
    let i = !ncons in
    incr ncons;
    Hashtbl.replace cons i c;
    enqueue i
  in
  (* the constraint currently being evaluated, for read subscriptions *)
  let current = ref (-1) in
  let subscribe slot =
    let i = !current in
    if i >= 0 && not (Hashtbl.mem sub_set (slot, i)) then begin
      Hashtbl.replace sub_set (slot, i) ();
      let l =
        match Hashtbl.find_opt subs slot with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace subs slot l;
            l
      in
      l := i :: !l
    end
  in
  let notify slot =
    match Hashtbl.find_opt subs slot with
    | None -> ()
    | Some l -> List.iter enqueue !l
  in
  let cell slot =
    match Hashtbl.find_opt pts slot with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.add pts slot h;
        h
  in
  let escaped_done : (obj, unit) Hashtbl.t = Hashtbl.create 16 in
  let escape_obj o =
    if o <> Unknown && not (Hashtbl.mem escaped_done o) then begin
      Hashtbl.replace escaped_done o ();
      let slot = scalar_slot vartab o in
      push_constr (Into (slot, Sunknown));
      push_constr (Into (slot, Scopy (Smem Unknown)));
      push_constr (Into (Smem Unknown, Scopy slot))
    end
  in
  let add slot (o, f) =
    let h = cell slot in
    let changed =
      match Hashtbl.find_opt h o with
      | None ->
          Hashtbl.replace h o f;
          true
      | Some f0 ->
          let j = join_off f0 f in
          if j <> f0 then (
            Hashtbl.replace h o j;
            true)
          else false
    in
    if changed then begin
      notify slot;
      if slot = Smem Unknown then escape_obj o
    end
  in
  let contents slot =
    subscribe slot;
    match Hashtbl.find_opt pts slot with
    | None -> []
    | Some h -> Hashtbl.fold (fun o f acc -> (o, f) :: acc) h []
  in
  let rec eval = function
    | Sbase v -> [ (Obj v, Known 0) ]
    | Slit k -> [ (Lit, Known k) ]
    | Sunknown -> [ (Unknown, Any) ]
    | Scopy s -> contents s
    | Sshift (s, Known k) ->
        List.map
          (fun (o, f) ->
            (o, match f with Known x -> Known (x + k) | Any -> Any))
          (eval s)
    | Sshift (s, Any) -> List.map (fun (o, _) -> (o, Any)) (eval s)
    | Sunion xs -> List.concat_map eval xs
    | Sload a ->
        List.concat_map
          (fun (o, _) ->
            let back = if o = Unknown then [ (Unknown, Any) ] else [] in
            back @ contents (scalar_slot vartab o))
          (eval a)
  in
  List.iter push_constr constraints;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    Hashtbl.remove queued i;
    current := i;
    (match Hashtbl.find cons i with
    | Into (slot, s) -> List.iter (add slot) (eval s)
    | Store (a, v) ->
        let vals = eval v in
        List.iter
          (fun (o, _) ->
            let tgt =
              if o = Unknown then Smem Unknown else scalar_slot vartab o
            in
            List.iter (add tgt) vals)
          (eval a));
    current := -1
  done;
  pts

type solver = [ `Worklist | `Naive ]

let solve ?(solver = `Worklist) vartab constraints =
  match solver with
  | `Worklist -> solve_worklist vartab constraints
  | `Naive -> solve_naive vartab constraints

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(* Contents of a slot at query time.  Variables the analysis never saw
   are temporaries of later passes: scalars carry no addresses unless
   pointer-typed (see the header's provenance assumptions). *)
let query_contents t slot =
  match slot with
  | Svar v when not (Hashtbl.mem t.vartab v) -> (
      match Prog.find_var t.prog None v with
      | Some var
        when (not (Ty.is_pointer var.Var.ty)) && not (Var.is_memory_object var)
        ->
          []
      | _ -> [ (Unknown, Any) ])
  | slot -> (
      match Hashtbl.find_opt t.pts slot with
      | None -> []
      | Some h -> Hashtbl.fold (fun o f acc -> (o, f) :: acc) h [])

let rec query_eval t = function
  | Sbase v -> [ (Obj v, Known 0) ]
  | Slit k -> [ (Lit, Known k) ]
  | Sunknown -> [ (Unknown, Any) ]
  | Scopy s -> query_contents t s
  | Sshift (s, Known k) ->
      List.map
        (fun (o, f) -> (o, match f with Known x -> Known (x + k) | Any -> Any))
        (query_eval t s)
  | Sshift (s, Any) -> List.map (fun (o, _) -> (o, Any)) (query_eval t s)
  | Sunion xs -> List.concat_map (query_eval t) xs
  | Sload a ->
      List.concat_map
        (fun (o, _) ->
          let back = if o = Unknown then [ (Unknown, Any) ] else [] in
          back @ query_contents t (scalar_slot t.vartab o))
        (query_eval t a)

let collapse pairs =
  List.fold_left
    (fun acc (o, f) ->
      match List.assoc_opt o acc with
      | None -> (o, f) :: acc
      | Some f0 ->
          (o, join_off f0 f) :: List.remove_assoc o acc)
    [] pairs
  |> List.sort compare

(* Every (object, offset) an address expression may denote. *)
let objects_of t (e : Expr.t) : (obj * off) list =
  collapse (query_eval t (addr_src e))

let points_to t (v : int) : (obj * off) list =
  collapse (query_contents t (Svar v))

let objset pairs = Objset.of_list (List.map fst pairs)

let verdict t (e1 : Expr.t) (e2 : Expr.t) :
    [ `No_alias | `Must_alias of int ] option =
  let m1 = objects_of t e1 and m2 = objects_of t e2 in
  let s1 = objset m1 and s2 = objset m2 in
  let unknown s = Objset.mem Unknown s in
  (* an address with no provenance at all cannot legally be dereferenced
     against a live object *)
  if m1 = [] || m2 = [] then Some `No_alias
  else if
    (not (unknown s1)) && (not (unknown s2)) && Objset.disjoint s1 s2
  then Some `No_alias
  else
    match m1, m2 with
    | [ (o1, Known k1) ], [ (o2, Known k2) ] when o1 = o2 && o1 <> Unknown ->
        Some (`Must_alias (k2 - k1))
    | _ -> None

let disjoint t e1 e2 = verdict t e1 e2 = Some `No_alias

(* ------------------------------------------------------------------ *)
(* Mod/ref summaries                                                   *)

let reach t (s : Objset.t) : Objset.t =
  let rec go frontier acc =
    if Objset.is_empty frontier then acc
    else
      let next =
        Objset.fold
          (fun o acc ->
            List.fold_left
              (fun acc (o', _) -> Objset.add o' acc)
              acc
              (query_contents t (scalar_slot t.vartab o)))
          frontier Objset.empty
      in
      let fresh = Objset.diff next acc in
      go fresh (Objset.union acc fresh)
  in
  go s s

let escaped_set t = objset (query_contents t (Smem Unknown))

(* Objects private to one activation of [f]: its own non-static,
   non-escaping locals.  Writes to them can never race across calls, so
   they are pruned from the exported summary. *)
let private_of (f : Func.t) ~(escaped : Objset.t) (s : Objset.t) : Objset.t =
  Objset.filter
    (fun o ->
      match o with
      | Obj v -> (
          match Func.find_var f v with
          | Some var -> (
              (not (Objset.mem o escaped))
              &&
              match var.Var.storage with
              | Var.Auto | Var.Param -> true
              | _ -> false)
          | None -> false)
      | _ -> false)
    s

let compute_summaries t (facts : (string * Func.t * fun_facts) list) =
  let escaped = escaped_set t in
  let own = Hashtbl.create 16 in
  List.iter
    (fun (name, _f, fx) ->
      let addr_objs es =
        List.fold_left
          (fun acc e -> Objset.union acc (objset (objects_of t e)))
          Objset.empty es
      in
      let mods = Objset.union fx.gmods (addr_objs fx.waddrs) in
      let refs = Objset.union fx.grefs (addr_objs fx.raddrs) in
      let arg_reach args =
        List.fold_left
          (fun acc arg ->
            match src_of ~as_addr:false arg with
            | None -> acc
            | Some s -> Objset.union acc (reach t (objset (query_eval t s))))
          Objset.empty args
      in
      let mods, refs, io =
        List.fold_left
          (fun (m, r, io) call ->
            match call with
            | Known_call _ -> (m, r, io)
            | Builtin_io args -> (m, Objset.union r (arg_reach args), true)
            | Unknown_call args ->
                let touched = Objset.add Unknown (arg_reach args) in
                (Objset.union m touched, Objset.union r touched, true))
          (mods, refs, false) fx.calls
      in
      Hashtbl.replace own name (mods, refs, io))
    facts;
  (* fold callee effects to a call-graph fixpoint, pruning each
     procedure's activation-private objects as its summary is exported *)
  let current = Hashtbl.create 16 in
  List.iter
    (fun (name, _, _) ->
      Hashtbl.replace current name
        { mods = Objset.empty; refs = Objset.empty; io = false })
    facts;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (name, f, fx) ->
        let m0, r0, io0 = Hashtbl.find own name in
        let mods, refs, io =
          List.fold_left
            (fun (m, r, io) call ->
              match call with
              | Known_call g -> (
                  match Hashtbl.find_opt current g with
                  | Some sg ->
                      ( Objset.union m sg.mods,
                        Objset.union r sg.refs,
                        io || sg.io )
                  | None -> (m, r, io))
              | _ -> (m, r, io))
            (m0, r0, io0) fx.calls
        in
        let priv = private_of f ~escaped (Objset.union mods refs) in
        let next =
          { mods = Objset.diff mods priv; refs = Objset.diff refs priv; io }
        in
        let prev = Hashtbl.find current name in
        if
          (not (Objset.equal prev.mods next.mods))
          || (not (Objset.equal prev.refs next.refs))
          || prev.io <> next.io
        then (
          Hashtbl.replace current name next;
          changed := true))
      facts
  done;
  Hashtbl.iter (Hashtbl.replace t.summaries) current

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let analyze ?(solver = `Worklist) (prog : Prog.t) : t =
  let vartab = Hashtbl.create 64 in
  List.iter
    (fun (g : Prog.global) ->
      Hashtbl.replace vartab g.Prog.gvar.Var.id g.Prog.gvar)
    (Prog.globals_list prog);
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.iter (fun id v -> Hashtbl.replace vartab id v) f.Func.vars)
    prog.Prog.funcs;
  let has_indirect =
    List.exists
      (fun (f : Func.t) ->
        List.exists
          (fun s ->
            match s.Stmt.desc with
            | Stmt.Call (_, Stmt.Indirect _, _) -> true
            | _ -> false)
          (Func.all_stmts f))
      prog.Prog.funcs
  in
  let facts =
    List.map (fun f -> (f.Func.name, f, facts_of_func prog f)) prog.Prog.funcs
  in
  let constraints =
    global_constraints prog
    @ entry_constraints prog ~has_indirect
    @ List.concat_map (fun (_, _, fx) -> fx.constraints) facts
  in
  let pts = solve ~solver vartab constraints in
  let t = { prog; vartab; pts; summaries = Hashtbl.create 16 } in
  compute_summaries t facts;
  t

let summary t name = Hashtbl.find_opt t.summaries name

(* A call whose summary shows memory effects (or that we cannot bound)
   starves the dependence test of facts; inlining it first is the §7
   motivation for inline expansion. *)
let blocks_vectorization t name =
  match summary t name with
  | None -> true
  | Some s -> s.io || not (Objset.is_empty s.mods)

let obj_name t = function
  | Lit -> "<literal>"
  | Unknown -> "<unknown>"
  | Obj v -> (
      match Hashtbl.find_opt t.vartab v with
      | Some var -> var.Var.name
      | None -> Printf.sprintf "<var %d>" v)

let pp_summary t ppf name =
  match summary t name with
  | None -> Format.fprintf ppf "<no summary>"
  | Some s ->
      let names set =
        Objset.elements set |> List.map (obj_name t) |> String.concat ", "
      in
      Format.fprintf ppf "mods={%s} refs={%s}%s" (names s.mods) (names s.refs)
        (if s.io then " io" else "")
