(* Well-formedness checks over the IL.  Everything here is read-only and
   conservative in the other direction from an optimizer: a violation is
   only reported when the IL is definitely outside the invariants the
   passes and both back ends (interpreter, Titan codegen) rely on. *)

open Vpc_il

type ctx = {
  prog : Prog.t;
  func : Func.t;
  mutable acc : Report.violation list;
}

let report ctx ~rule ~(stmt : Stmt.t) fmt =
  Format.kasprintf
    (fun message ->
      ctx.acc <-
        Report.v ~rule ~func:ctx.func.Func.name ~stmt:stmt.Stmt.id
          ~loc:stmt.Stmt.loc message
        :: ctx.acc)
    fmt

let find_var ctx id = Prog.find_var ctx.prog (Some ctx.func) id

(* The innermost element type [Expr.addr_of] decays an array to. *)
let rec innermost = function Ty.Array (elt, _) -> innermost elt | t -> t

(* Loose value compatibility for assignments/arguments/returns: the
   interpreter converts scalars on assignment and the lowering mixes Int
   with pointer arithmetic, so only reject combinations no conversion can
   fix. *)
let value_compatible (a : Ty.t) (b : Ty.t) =
  let bad = function
    | Ty.Void | Ty.Struct _ | Ty.Func _ -> true
    | _ -> false
  in
  let a = Ty.decay a and b = Ty.decay b in
  if bad a || bad b then false
  else
    match a, b with
    | (Ty.Float | Ty.Double), Ty.Ptr _ | Ty.Ptr _, (Ty.Float | Ty.Double) ->
        false
    | _ -> true

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec check_expr ctx stmt (e : Expr.t) =
  (match e.Expr.desc with
  | Expr.Const_int _ | Expr.Const_float _ -> ()
  | Expr.Var id -> (
      match find_var ctx id with
      | None -> report ctx ~rule:"unbound-var" ~stmt "read of unbound variable id %d" id
      | Some v ->
          if
            not
              (Ty.equal e.Expr.ty v.Var.ty
              || Ty.equal e.Expr.ty (Ty.decay v.Var.ty))
          then
            report ctx ~rule:"var-type" ~stmt
              "read of %s typed %s but declared %s" v.Var.name
              (Ty.to_string e.Expr.ty)
              (Ty.to_string v.Var.ty))
  | Expr.Addr_of id -> (
      match find_var ctx id with
      | None ->
          report ctx ~rule:"unbound-var" ~stmt
            "address of unbound variable id %d" id
      | Some v ->
          let expect = Ty.Ptr (innermost v.Var.ty) in
          if not (Ty.equal e.Expr.ty expect) then
            report ctx ~rule:"var-type" ~stmt
              "&%s typed %s but should be %s" v.Var.name
              (Ty.to_string e.Expr.ty) (Ty.to_string expect))
  | Expr.Load p ->
      (match p.Expr.ty with
      | Ty.Ptr elt ->
          if not (Ty.equal e.Expr.ty elt) then
            report ctx ~rule:"load-non-pointer" ~stmt
              "load through %s typed %s" (Ty.to_string p.Expr.ty)
              (Ty.to_string e.Expr.ty)
      | t ->
          report ctx ~rule:"load-non-pointer" ~stmt
            "load through non-pointer operand of type %s" (Ty.to_string t))
  | Expr.Binop _ | Expr.Unop _ | Expr.Cast _ -> ());
  (* recurse *)
  match e.Expr.desc with
  | Expr.Const_int _ | Expr.Const_float _ | Expr.Var _ | Expr.Addr_of _ -> ()
  | Expr.Load a | Expr.Unop (_, a) | Expr.Cast (_, a) -> check_expr ctx stmt a
  | Expr.Binop (_, a, b) ->
      check_expr ctx stmt a;
      check_expr ctx stmt b

let reads_volatile ctx e =
  List.exists
    (fun id ->
      match find_var ctx id with Some v -> v.Var.volatile | None -> false)
    (Expr.read_vars e)

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let check_assign ctx stmt (lv : Stmt.lvalue) (rhs : Expr.t) =
  match lv with
  | Stmt.Lvar id -> (
      match find_var ctx id with
      | None ->
          report ctx ~rule:"unbound-var" ~stmt
            "assignment to unbound variable id %d" id
      | Some v ->
          if Var.is_memory_object v then
            report ctx ~rule:"assign-type" ~stmt
              "scalar assignment to memory object %s : %s" v.Var.name
              (Ty.to_string v.Var.ty)
          else if not (value_compatible v.Var.ty rhs.Expr.ty) then
            report ctx ~rule:"assign-type" ~stmt
              "%s : %s assigned incompatible value of type %s" v.Var.name
              (Ty.to_string v.Var.ty)
              (Ty.to_string rhs.Expr.ty))
  | Stmt.Lmem addr -> (
      match addr.Expr.ty with
      | Ty.Ptr elt when Ty.is_scalar elt ->
          if not (value_compatible elt rhs.Expr.ty) then
            report ctx ~rule:"assign-type" ~stmt
              "store of %s through pointer to %s" (Ty.to_string rhs.Expr.ty)
              (Ty.to_string elt)
      | t ->
          report ctx ~rule:"assign-type" ~stmt
            "store through address of type %s (want pointer to scalar)"
            (Ty.to_string t))

let check_call ctx stmt dst target (args : Expr.t list) =
  (match dst with
  | Some (Stmt.Lvar id) when find_var ctx id = None ->
      report ctx ~rule:"unbound-var" ~stmt
        "call result bound to unbound variable id %d" id
  | _ -> ());
  match target with
  | Stmt.Indirect _ -> ()  (* nothing static to say about the callee *)
  | Stmt.Direct name -> (
      match Prog.find_func ctx.prog name with
      | None -> ()  (* extern or builtin (printf, sqrt, ...): unchecked *)
      | Some callee ->
          let nparams = List.length callee.Func.params in
          if List.length args <> nparams then
            report ctx ~rule:"call-arity" ~stmt
              "call to %s passes %d argument(s), signature has %d" name
              (List.length args) nparams
          else
            List.iteri
              (fun i (pid, (arg : Expr.t)) ->
                match Func.find_var callee pid with
                | None -> ()
                | Some p ->
                    if not (value_compatible p.Var.ty arg.Expr.ty) then
                      report ctx ~rule:"call-type" ~stmt
                        "call to %s: argument %d has type %s, parameter %s \
                         wants %s"
                        name (i + 1)
                        (Ty.to_string arg.Expr.ty)
                        p.Var.name
                        (Ty.to_string p.Var.ty))
              (List.combine callee.Func.params args);
          match dst with
          | Some lv ->
              if Ty.equal callee.Func.ret_ty Ty.Void then
                report ctx ~rule:"call-dst" ~stmt
                  "result of void function %s is used" name
              else (
                match lv with
                | Stmt.Lvar id -> (
                    match find_var ctx id with
                    | Some v
                      when not (value_compatible v.Var.ty callee.Func.ret_ty)
                      ->
                        report ctx ~rule:"call-dst" ~stmt
                          "%s returns %s, bound to %s : %s" name
                          (Ty.to_string callee.Func.ret_ty)
                          v.Var.name
                          (Ty.to_string v.Var.ty)
                    | _ -> ())
                | Stmt.Lmem _ -> ())
          | None -> ())

(* [hi] and [step] of a DO loop are re-evaluated at every iteration test,
   so the "bounds are loop-entry values" promise of stmt.mli means they
   must actually be invariant: no reads of the index, of variables the
   body (deeply) defines, of volatile storage, and no loads when the body
   writes memory. *)
let check_do_bounds ctx stmt (d : Stmt.do_loop) =
  let defined_in_body, mem_written =
    Vpc_analysis.Reaching.vars_defined_in d.Stmt.body
  in
  let check_bound which (e : Expr.t) =
    List.iter
      (fun id ->
        if id = d.Stmt.index then
          report ctx ~rule:"do-bound-variant" ~stmt
            "loop %s reads the loop index" which
        else if Hashtbl.mem defined_in_body id then
          report ctx ~rule:"do-bound-variant" ~stmt
            "loop %s reads %s, which the body assigns" which
            (match find_var ctx id with
            | Some v -> v.Var.name
            | None -> Printf.sprintf "var %d" id))
      (Expr.read_vars e);
    if reads_volatile ctx e then
      report ctx ~rule:"do-bound-variant" ~stmt
        "loop %s reads volatile storage" which;
    if mem_written && Expr.contains_load e then
      report ctx ~rule:"do-bound-variant" ~stmt
        "loop %s loads from memory the body writes" which
  in
  check_bound "hi bound" d.Stmt.hi;
  check_bound "step" d.Stmt.step;
  (match Expr.const_int_val d.Stmt.step with
  | Some 0 -> report ctx ~rule:"do-step-zero" ~stmt "loop step is 0"
  | _ -> ());
  match find_var ctx d.Stmt.index with
  | None ->
      report ctx ~rule:"unbound-var" ~stmt "loop index id %d is unbound"
        d.Stmt.index
  | Some v ->
      if not (Ty.is_integer v.Var.ty) then
        report ctx ~rule:"do-index" ~stmt "loop index %s has type %s"
          v.Var.name (Ty.to_string v.Var.ty)
      else if v.Var.volatile then
        report ctx ~rule:"do-index" ~stmt "loop index %s is volatile"
          v.Var.name

(* Element type a vexpr produces, following the codegen conventions;
   [None] when a subtree is malformed in a way already reported. *)
let rec vexpr_ty (v : Stmt.vexpr) : Ty.t option =
  match v with
  | Stmt.Vsec sec -> (
      match sec.Stmt.base.Expr.ty with Ty.Ptr t -> Some t | _ -> None)
  | Stmt.Vscalar e -> Some e.Expr.ty
  | Stmt.Viota _ -> Some Ty.Int
  | Stmt.Vcast (ty, _) -> Some ty
  | Stmt.Vbin (_, a, b) -> (
      match vexpr_ty a with Some _ as t -> t | None -> vexpr_ty b)
  | Stmt.Vun (_, a) -> vexpr_ty a
  | Stmt.Vtmp (_, ty) -> Some ty

let check_section ctx stmt which (sec : Stmt.section) expect_elt =
  (match sec.Stmt.base.Expr.ty with
  | Ty.Ptr elt -> (
      match expect_elt with
      | Some want when not (Ty.equal elt want) ->
          report ctx ~rule:"vector-type" ~stmt
            "%s section base points to %s, element type is %s" which
            (Ty.to_string elt) (Ty.to_string want)
      | _ -> ())
  | t ->
      report ctx ~rule:"vector-type" ~stmt
        "%s section base has non-pointer type %s" which (Ty.to_string t));
  if not (Ty.is_integer sec.Stmt.count.Expr.ty) then
    report ctx ~rule:"vector-type" ~stmt "%s section count has type %s" which
      (Ty.to_string sec.Stmt.count.Expr.ty);
  if not (Ty.is_integer sec.Stmt.stride.Expr.ty) then
    report ctx ~rule:"vector-type" ~stmt "%s section stride has type %s" which
      (Ty.to_string sec.Stmt.stride.Expr.ty)

let rec check_src_sections ctx stmt = function
  | Stmt.Vsec sec -> check_section ctx stmt "source" sec None
  | Stmt.Vscalar _ | Stmt.Viota _ | Stmt.Vtmp _ -> ()
  | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> check_src_sections ctx stmt a
  | Stmt.Vbin (_, a, b) ->
      check_src_sections ctx stmt a;
      check_src_sections ctx stmt b

(* vector statements hoist and batch their operand reads: volatile
   accesses must never end up inside one *)
let check_no_volatile_vector ctx stmt =
  List.iter
    (fun e ->
      if reads_volatile ctx e then
        report ctx ~rule:"volatile-vector" ~stmt
          "vector statement reads volatile storage")
    (Stmt.shallow_exprs stmt)

let check_vector ctx stmt (v : Stmt.vstmt) =
  if not (Ty.is_scalar v.Stmt.velt) then
    report ctx ~rule:"vector-type" ~stmt "vector element type is %s"
      (Ty.to_string v.Stmt.velt);
  check_section ctx stmt "destination" v.Stmt.vdst (Some v.Stmt.velt);
  check_src_sections ctx stmt v.Stmt.vsrc;
  (match vexpr_ty v.Stmt.vsrc with
  | Some src_ty when not (value_compatible v.Stmt.velt src_ty) ->
      report ctx ~rule:"vector-type" ~stmt
        "vector source produces %s, destination elements are %s"
        (Ty.to_string src_ty)
        (Ty.to_string v.Stmt.velt)
  | _ -> ());
  check_no_volatile_vector ctx stmt

let check_vdef ctx stmt (vd : Stmt.vdef) =
  if not (Ty.is_scalar vd.Stmt.vty) then
    report ctx ~rule:"vector-type" ~stmt "vector temporary element type is %s"
      (Ty.to_string vd.Stmt.vty);
  if not (Ty.is_integer vd.Stmt.vcount.Expr.ty) then
    report ctx ~rule:"vector-type" ~stmt
      "vector temporary count has type %s"
      (Ty.to_string vd.Stmt.vcount.Expr.ty);
  check_src_sections ctx stmt vd.Stmt.vval;
  (match vexpr_ty vd.Stmt.vval with
  | Some src_ty when not (value_compatible vd.Stmt.vty src_ty) ->
      report ctx ~rule:"vector-type" ~stmt
        "vector temporary source produces %s, elements are %s"
        (Ty.to_string src_ty)
        (Ty.to_string vd.Stmt.vty)
  | _ -> ());
  check_no_volatile_vector ctx stmt

(* No volatile access may be hoisted into a parallel loop body: spreading
   iterations over processors reorders the accesses. *)
let check_no_volatile_parallel ctx (outer : Stmt.t) body =
  Stmt.iter_list
    (fun s ->
      List.iter
        (fun e ->
          if reads_volatile ctx e then
            report ctx ~rule:"volatile-parallel" ~stmt:s
              "parallel loop (stmt %d) body reads volatile storage"
              outer.Stmt.id)
        (Stmt.shallow_exprs s);
      match Stmt.defined_var s with
      | Some id -> (
          match find_var ctx id with
          | Some v when v.Var.volatile ->
              report ctx ~rule:"volatile-parallel" ~stmt:s
                "parallel loop (stmt %d) body writes volatile %s"
                outer.Stmt.id v.Var.name
          | _ -> ())
      | None -> ())
    body

let check_stmt ctx (s : Stmt.t) =
  List.iter (check_expr ctx s) (Stmt.shallow_exprs s);
  match s.Stmt.desc with
  | Stmt.Assign (lv, rhs) -> check_assign ctx s lv rhs
  | Stmt.Call (dst, target, args) -> check_call ctx s dst target args
  | Stmt.Return (Some e) ->
      if Ty.equal ctx.func.Func.ret_ty Ty.Void then
        report ctx ~rule:"return-type" ~stmt:s
          "void function returns a value"
      else if not (value_compatible ctx.func.Func.ret_ty e.Expr.ty) then
        report ctx ~rule:"return-type" ~stmt:s
          "return of %s from function returning %s"
          (Ty.to_string e.Expr.ty)
          (Ty.to_string ctx.func.Func.ret_ty)
  | Stmt.Return None -> ()
  | Stmt.Do_loop d ->
      check_do_bounds ctx s d;
      if d.Stmt.parallel then check_no_volatile_parallel ctx s d.Stmt.body;
      if d.Stmt.sync <> [] then begin
        let n = List.length d.Stmt.body in
        List.iter
          (fun (y : Stmt.dsync) ->
            if
              y.Stmt.post_after < 0 || y.Stmt.post_after >= n
              || y.Stmt.wait_before < 0
              || y.Stmt.wait_before >= n
            then
              report ctx ~rule:"doacross-sync" ~stmt:s
                "sync c%d positions (post %d, wait %d) out of range for \
                 %d-statement body"
                y.Stmt.chan y.Stmt.post_after y.Stmt.wait_before n;
            if y.Stmt.distance < 1 then
              report ctx ~rule:"doacross-sync" ~stmt:s
                "sync c%d has non-positive distance %d" y.Stmt.chan
                y.Stmt.distance)
          d.Stmt.sync;
        if d.Stmt.parallel then
          report ctx ~rule:"doacross-sync" ~stmt:s
            "loop is both parallel and doacross-synchronized";
        check_no_volatile_parallel ctx s d.Stmt.body
      end
  | Stmt.While (li, _, body) ->
      let n = List.length body in
      if li.Stmt.serial_prefix < 0 || li.Stmt.serial_prefix > n then
        report ctx ~rule:"serial-prefix" ~stmt:s
          "serial prefix %d out of range for %d-statement body"
          li.Stmt.serial_prefix n;
      if li.Stmt.doacross then
        check_no_volatile_parallel ctx s
          (List.filteri (fun i _ -> i >= li.Stmt.serial_prefix) body)
  | Stmt.Vector v -> check_vector ctx s v
  | Stmt.Vdef vd -> check_vdef ctx s vd
  | Stmt.If _ | Stmt.Goto _ | Stmt.Label _ | Stmt.Nop -> ()

(* ------------------------------------------------------------------ *)
(* Function-level structure                                           *)
(* ------------------------------------------------------------------ *)

let check_ids ctx =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (s : Stmt.t) ->
      if Hashtbl.mem seen s.Stmt.id then
        report ctx ~rule:"dup-stmt-id" ~stmt:s
          "statement id %d appears more than once" s.Stmt.id
      else Hashtbl.add seen s.Stmt.id ())
    (Func.all_stmts ctx.func)

let check_labels ctx =
  let labels = Hashtbl.create 8 in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Label name ->
          if Hashtbl.mem labels name then
            report ctx ~rule:"dup-label" ~stmt:s
              "label %s defined more than once" name
          else Hashtbl.add labels name ()
      | _ -> ())
    ctx.func.Func.body;
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Goto target ->
          if not (Hashtbl.mem labels target) then
            report ctx ~rule:"goto-target" ~stmt:s
              "goto %s has no matching label" target
      | _ -> ())
    ctx.func.Func.body

(* Every [Vtmp] read must follow a [Vdef] of the same id and element type.
   Structural approximation of dominance: walk in textual order; both arms
   of an If start from the entry set and the join keeps the intersection;
   a loop body starts from the loop-entry set (in-body definitions are
   visible later in the body but not assumed after the loop, which may run
   zero times). *)
let check_vtmps ctx =
  let module IS = Set.Make (Int) in
  let tys : (int, Ty.t) Hashtbl.t = Hashtbl.create 4 in
  let rec vexpr defined stmt = function
    | Stmt.Vsec _ | Stmt.Vscalar _ | Stmt.Viota _ -> ()
    | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> vexpr defined stmt a
    | Stmt.Vbin (_, a, b) ->
        vexpr defined stmt a;
        vexpr defined stmt b
    | Stmt.Vtmp (t, ty) -> (
        if not (IS.mem t defined) then
          report ctx ~rule:"vtmp-def" ~stmt
            "vector temporary vt%d read before any definition" t;
        match Hashtbl.find_opt tys t with
        | Some want when not (Ty.equal want ty) ->
            report ctx ~rule:"vtmp-type" ~stmt
              "vector temporary vt%d read as %s, defined as %s" t
              (Ty.to_string ty) (Ty.to_string want)
        | _ -> ())
  in
  let rec stmts defined ss = List.fold_left stmt defined ss
  and stmt defined (s : Stmt.t) =
    match s.Stmt.desc with
    | Stmt.Vector v ->
        vexpr defined s v.Stmt.vsrc;
        defined
    | Stmt.Vdef vd ->
        vexpr defined s vd.Stmt.vval;
        (match Hashtbl.find_opt tys vd.Stmt.vt with
        | Some want when not (Ty.equal want vd.Stmt.vty) ->
            report ctx ~rule:"vtmp-type" ~stmt:s
              "vector temporary vt%d redefined as %s, was %s" vd.Stmt.vt
              (Ty.to_string vd.Stmt.vty) (Ty.to_string want)
        | _ -> Hashtbl.replace tys vd.Stmt.vt vd.Stmt.vty);
        IS.add vd.Stmt.vt defined
    | Stmt.If (_, t, e) -> IS.inter (stmts defined t) (stmts defined e)
    | Stmt.While (_, _, body) ->
        ignore (stmts defined body);
        defined
    | Stmt.Do_loop d ->
        ignore (stmts defined d.Stmt.body);
        defined
    | Stmt.Assign _ | Stmt.Call _ | Stmt.Goto _ | Stmt.Label _
    | Stmt.Return _ | Stmt.Nop ->
        defined
  in
  ignore (stmts IS.empty ctx.func.Func.body)

let check_func prog func =
  let ctx = { prog; func; acc = [] } in
  check_ids ctx;
  check_labels ctx;
  check_vtmps ctx;
  Stmt.iter_list (check_stmt ctx) func.Func.body;
  List.rev ctx.acc

(* ------------------------------------------------------------------ *)
(* Advisories                                                         *)
(* ------------------------------------------------------------------ *)

(* Likely-bug patterns that are nevertheless legal IL.  Kept out of
   {!check_func} because the verifier treats any violation as a broken
   invariant: while→DO conversion legitimately emits [do dummy = 0, -1]
   for a loop it proves never runs, and constant propagation deletes it
   a pass later.  The lint driver reports these on the front-end IL,
   where a degenerate DO can only have come from the source program. *)
let advise_func prog func =
  let ctx = { prog; func; acc = [] } in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Do_loop d -> (
          match
            ( Expr.const_int_val d.Stmt.lo,
              Expr.const_int_val d.Stmt.hi,
              Expr.const_int_val d.Stmt.step )
          with
          | Some lo, Some hi, Some step
            when (step >= 0 && lo > hi) || (step < 0 && lo < hi) ->
              report ctx ~rule:"do-degenerate" ~stmt:s
                "loop never runs: lo %d, hi %d, step %d" lo hi step
          | _ -> ())
      | _ -> ())
    func.Func.body;
  List.rev ctx.acc

let advise_prog prog =
  List.concat_map (advise_func prog) prog.Prog.funcs
