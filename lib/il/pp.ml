(* Pretty-printing of the IL in a C-like notation.  Counted loops print in
   the paper's `do fortran` / `do parallel` style and vector statements in
   its colon notation, so golden tests can be compared against the paper's
   listings directly. *)

type env = { prog : Prog.t; func : Func.t option }

let var_name env id =
  match Prog.find_var env.prog env.func id with
  | Some v -> v.Var.name
  | None -> Printf.sprintf "?v%d" id

(* Precedence levels, loosely C's. *)
let binop_prec : Expr.binop -> int = function
  | Mul | Div | Rem -> 10
  | Add | Sub -> 9
  | Shl | Shr -> 8
  | Lt | Le | Gt | Ge -> 7
  | Eq | Ne -> 6
  | Band -> 5
  | Bxor -> 4
  | Bor -> 3

let rec pp_expr env ?(prec = 0) ppf (e : Expr.t) =
  match e.desc with
  | Const_int n -> Fmt.int ppf n
  | Const_float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Fmt.pf ppf "%.1f" f
      else Fmt.pf ppf "%g" f
  | Var id -> Fmt.string ppf (var_name env id)
  | Addr_of id -> Fmt.pf ppf "&%s" (var_name env id)
  | Load p -> Fmt.pf ppf "*%a" (pp_expr env ~prec:11) p
  | Binop (op, a, b) ->
      let p = binop_prec op in
      let body ppf () =
        Fmt.pf ppf "%a %s %a" (pp_expr env ~prec:p) a (Expr.binop_to_string op)
          (pp_expr env ~prec:(p + 1))
          b
      in
      if p < prec then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Unop (op, a) ->
      Fmt.pf ppf "%s%a" (Expr.unop_to_string op) (pp_expr env ~prec:11) a
  | Cast (t, a) -> Fmt.pf ppf "(%a)%a" Ty.pp t (pp_expr env ~prec:11) a

(* Same as [pp_expr] with the default precedence, in the exact shape %a
   expects. *)
let pp_expr0 env ppf e = pp_expr env ppf e

let pp_lvalue env ppf = function
  | Stmt.Lvar id -> Fmt.string ppf (var_name env id)
  | Stmt.Lmem e -> Fmt.pf ppf "*%a" (pp_expr env ~prec:11) e

let pp_section env ppf (sec : Stmt.section) =
  Fmt.pf ppf "(%a)[0 : %a : %a]" (pp_expr0 env) sec.base (pp_expr0 env) sec.count
    (pp_expr0 env) sec.stride

let rec pp_vexpr env ?(prec = 0) ppf = function
  | Stmt.Vsec sec -> pp_section env ppf sec
  | Stmt.Vscalar e -> pp_expr env ~prec ppf e
  | Stmt.Viota (off, scale) ->
      Fmt.pf ppf "iota(%a, %a)" (pp_expr0 env) off (pp_expr0 env) scale
  | Stmt.Vcast (ty, a) ->
      Fmt.pf ppf "(%a)%a" Ty.pp ty (pp_vexpr env ~prec:11) a
  | Stmt.Vbin (op, a, b) ->
      let p = binop_prec op in
      let body ppf () =
        Fmt.pf ppf "%a %s %a" (pp_vexpr env ~prec:p) a
          (Expr.binop_to_string op)
          (pp_vexpr env ~prec:(p + 1))
          b
      in
      if p < prec then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Stmt.Vun (op, a) ->
      Fmt.pf ppf "%s%a" (Expr.unop_to_string op) (pp_vexpr env ~prec:11) a
  | Stmt.Vtmp (t, _) -> Fmt.pf ppf "vt%d" t

let pp_vexpr0 env ppf v = pp_vexpr env ppf v

let rec pp_stmt env ~indent ppf (s : Stmt.t) =
  let ind = String.make indent ' ' in
  match s.desc with
  | Assign (lv, e) ->
      Fmt.pf ppf "%s%a = %a;@." ind (pp_lvalue env) lv (pp_expr0 env) e
  | Call (dst, tgt, args) ->
      let pp_target ppf = function
        | Stmt.Direct name -> Fmt.string ppf name
        | Stmt.Indirect e -> Fmt.pf ppf "(*%a)" (pp_expr0 env) e
      in
      (match dst with
      | Some lv -> Fmt.pf ppf "%s%a = " ind (pp_lvalue env) lv
      | None -> Fmt.string ppf ind);
      Fmt.pf ppf "%a(%a);@." pp_target tgt
        Fmt.(list ~sep:(any ", ") (pp_expr0 env))
        args
  | If (c, then_, []) ->
      Fmt.pf ppf "%sif (%a) {@.%a%s}@." ind (pp_expr0 env) c
        (pp_stmts env ~indent:(indent + 2))
        then_ ind
  | If (c, then_, else_) ->
      Fmt.pf ppf "%sif (%a) {@.%a%s} else {@.%a%s}@." ind (pp_expr0 env) c
        (pp_stmts env ~indent:(indent + 2))
        then_ ind
        (pp_stmts env ~indent:(indent + 2))
        else_ ind
  | While (li, c, body) ->
      let pragma =
        (if li.pragma_independent then " /* independent */" else "")
        ^ (if li.doacross then
             Printf.sprintf " /* doacross, serial prefix %d */" li.serial_prefix
           else "")
      in
      Fmt.pf ppf "%swhile (%a)%s {@.%a%s}@." ind (pp_expr0 env) c pragma
        (pp_stmts env ~indent:(indent + 2))
        body ind
  | Do_loop d ->
      let kind = if d.parallel then "do parallel" else "do fortran" in
      Fmt.pf ppf "%s%s %s = %a, %a, %a {@.%a%s}@." ind kind
        (var_name env d.index) (pp_expr0 env) d.lo (pp_expr0 env) d.hi
        (pp_expr0 env) d.step
        (pp_stmts env ~indent:(indent + 2))
        d.body ind
  | Goto l -> Fmt.pf ppf "%sgoto %s;@." ind l
  | Label l -> Fmt.pf ppf "%s:;@." l
  | Return None -> Fmt.pf ppf "%sreturn;@." ind
  | Return (Some e) -> Fmt.pf ppf "%sreturn %a;@." ind (pp_expr0 env) e
  | Vector v ->
      Fmt.pf ppf "%s%a = %a;@." ind (pp_section env) v.vdst (pp_vexpr0 env)
        v.vsrc
  | Vdef vd ->
      Fmt.pf ppf "%svt%d[0 : %a] = %a;@." ind vd.vt (pp_expr0 env) vd.vcount
        (pp_vexpr0 env) vd.vval
  | Nop -> Fmt.pf ppf "%s/* nop */@." ind

and pp_stmts env ~indent ppf stmts =
  List.iter (pp_stmt env ~indent ppf) stmts

let pp_func prog ppf (f : Func.t) =
  let env = { prog; func = Some f } in
  let pp_param ppf id =
    match Func.find_var f id with
    | Some v -> Fmt.pf ppf "%a %s" Ty.pp v.ty v.name
    | None -> Fmt.pf ppf "?%d" id
  in
  Fmt.pf ppf "%a %s(%a)@.{@." Ty.pp f.ret_ty f.name
    Fmt.(list ~sep:(any ", ") pp_param)
    f.params;
  (* Declare non-parameter named locals, then temps, for readability. *)
  let locals =
    List.filter
      (fun (v : Var.t) -> not (List.mem v.id f.params))
      (Func.locals f)
  in
  List.iter
    (fun (v : Var.t) ->
      if not v.is_temp then Fmt.pf ppf "  %a %s;@." Ty.pp v.ty v.name)
    locals;
  pp_stmts env ~indent:2 ppf f.body;
  Fmt.pf ppf "}@."

let func_to_string prog f = Fmt.str "%a" (pp_func prog) f

let header_to_string (p : Prog.t) =
  Fmt.str "%a"
    Fmt.(list ~sep:nop (fun ppf (g : Prog.global) ->
             Fmt.pf ppf "%a %s;@." Ty.pp g.gvar.ty g.gvar.name))
    (Prog.globals_list p)

let func_section prog f = "\n" ^ func_to_string prog f

let prog_to_string p =
  String.concat "" (header_to_string p :: List.map (func_section p) p.funcs)
