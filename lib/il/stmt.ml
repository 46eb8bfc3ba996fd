(* IL statements.  All side effects are explicit here: the IL "has an
   assignment statement but no assignment operator" (paper §4).  Loops
   appear in three strengths: [While] (what the front end emits for both
   `while` and `for`), [Do_loop] (Fortran-style counted loop produced by
   while→DO conversion, §5.2), and [Vector] (array-section assignment
   produced by the vectorizer, printed in the paper's colon notation). *)

open Vpc_support

type lvalue =
  | Lvar of int      (* scalar variable *)
  | Lmem of Expr.t   (* *addr = ...; addr : Ptr elt *)

type call_target =
  | Direct of string
  | Indirect of Expr.t

type t = { id : int; desc : desc; loc : Loc.t }

and desc =
  | Assign of lvalue * Expr.t
  | Call of lvalue option * call_target * Expr.t list
  | If of Expr.t * t list * t list
  | While of loop_info * Expr.t * t list
  | Do_loop of do_loop
  | Goto of string
  | Label of string
  | Return of Expr.t option
  | Vector of vstmt
  | Vdef of vdef
  | Nop

(* Counted loop: index runs lo, lo+step, ... while (step>0 ? index<=hi :
   index>=hi).  [parallel] marks iterations proven independent and spread
   over processors ("do parallel").  [sync] non-empty marks a *doacross*
   loop: iterations are pipelined across processors and each carried
   dependence is ordered by a post/wait pair recorded here. *)
and do_loop = {
  index : int;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t;
  body : t list;
  parallel : bool;
  independent : bool;  (* user pragma: iterations independent *)
  sync : dsync list;   (* doacross post/wait placement; [] = not doacross *)
}

(* One synchronized carried dependence of a doacross loop.  Iteration i
   posts counter [chan] after executing body position [post_after]; before
   executing body position [wait_before], iteration i waits for iteration
   i - [distance] to have posted [chan] (iterations below the lower bound
   count as already posted).  A *cumulative* sync ([cum] set) waits for
   EVERY iteration <= i - [distance] to have posted: that orders the sink
   after any source at distance >= [distance], which is what a carried
   dependence of symbolic distance with proven lower bound [distance]
   needs (an exact sync only orders multiples of its distance). *)
and dsync = {
  chan : int;         (* counter id, unique within the loop *)
  distance : int;     (* carried dependence distance, >= 1 *)
  post_after : int;   (* body position after which the post fires *)
  wait_before : int;  (* body position guarded by the wait *)
  cum : bool;         (* wait covers all iterations <= i - distance *)
}

and loop_info = {
  pragma_independent : bool;  (* #pragma vpc independent on the loop *)
  doacross : bool;            (* §10: body spread over processors with a
                                 serialized prefix (pointer advance) *)
  serial_prefix : int;        (* leading body stmts that stay serial *)
}

(* Vector assignment dst[0:count:stride] = src, element type [elt].
   Bases and strides are byte-valued, matching the IL's explicit pointer
   arithmetic. *)
and vstmt = { vdst : section; vsrc : vexpr; velt : Ty.t }

and section = {
  base : Expr.t;    (* byte address of element 0 *)
  count : Expr.t;   (* number of elements, loop-invariant *)
  stride : Expr.t;  (* byte stride between elements *)
}

and vexpr =
  | Vsec of section
  | Vscalar of Expr.t  (* loop-invariant scalar broadcast *)
  | Viota of Expr.t * Expr.t  (* element i = offset + scale * i (ints) *)
  | Vcast of Ty.t * vexpr     (* elementwise conversion *)
  | Vbin of Expr.binop * vexpr * vexpr
  | Vun of Expr.unop * vexpr
  | Vtmp of int * Ty.t  (* vector temporary: most recent [Vdef] of this id *)

(* Vector temporary definition vt<n> = src over [vcount] elements of type
   [vty].  The value lives in a vector register, never in memory — produced
   only by the vector-register reuse pass ([Transform.Vreuse]).  A [Vdef]
   whose [vval] reads its own [Vtmp] is the accumulator idiom: the whole
   right-hand side is evaluated before the temporary is rebound. *)
and vdef = { vt : int; vval : vexpr; vcount : Expr.t; vty : Ty.t }

let no_info = { pragma_independent = false; doacross = false; serial_prefix = 0 }

let mk ~id ?(loc = Loc.dummy) desc = { id; desc; loc }

(* Traversals ------------------------------------------------------------ *)

(* Iterate over a statement and all nested statements, preorder. *)
let rec iter f s =
  f s;
  match s.desc with
  | Assign _ | Call _ | Goto _ | Label _ | Return _ | Vector _ | Vdef _ | Nop ->
      ()
  | If (_, then_, else_) ->
      List.iter (iter f) then_;
      List.iter (iter f) else_
  | While (_, _, body) -> List.iter (iter f) body
  | Do_loop d -> List.iter (iter f) d.body

let iter_list f stmts = List.iter (iter f) stmts

(* Rebuild a statement list, mapping each statement to zero or more
   replacement statements; children are processed first. *)
let rec map_list (f : t -> t list) stmts =
  List.concat_map
    (fun s ->
      let s =
        match s.desc with
        | Assign _ | Call _ | Goto _ | Label _ | Return _ | Vector _ | Vdef _
        | Nop ->
            s
        | If (c, t_, e_) -> { s with desc = If (c, map_list f t_, map_list f e_) }
        | While (li, c, body) -> { s with desc = While (li, c, map_list f body) }
        | Do_loop d -> { s with desc = Do_loop { d with body = map_list f d.body } }
      in
      f s)
    stmts

(* Map every expression appearing in a statement (not recursing into nested
   statements — combine with [map_list] for deep rewrites). *)
let map_exprs_shallow (f : Expr.t -> Expr.t) s =
  let lvalue = function Lvar id -> Lvar id | Lmem e -> Lmem (f e) in
  let rec vexpr = function
    | Vsec sec -> Vsec (section sec)
    | Vscalar e -> Vscalar (f e)
    | Viota (off, scale) -> Viota (f off, f scale)
    | Vcast (ty, a) -> Vcast (ty, vexpr a)
    | Vbin (op, a, b) -> Vbin (op, vexpr a, vexpr b)
    | Vun (op, a) -> Vun (op, vexpr a)
    | Vtmp (t, ty) -> Vtmp (t, ty)
  and section sec =
    { base = f sec.base; count = f sec.count; stride = f sec.stride }
  in
  let desc =
    match s.desc with
    | Assign (lv, e) -> Assign (lvalue lv, f e)
    | Call (dst, tgt, args) ->
        let tgt = match tgt with Direct _ -> tgt | Indirect e -> Indirect (f e) in
        Call (Option.map lvalue dst, tgt, List.map f args)
    | If (c, t_, e_) -> If (f c, t_, e_)
    | While (li, c, body) -> While (li, f c, body)
    | Do_loop d -> Do_loop { d with lo = f d.lo; hi = f d.hi; step = f d.step }
    | Goto _ | Label _ | Nop -> s.desc
    | Return e -> Return (Option.map f e)
    | Vector v -> Vector { v with vdst = section v.vdst; vsrc = vexpr v.vsrc }
    | Vdef vd -> Vdef { vd with vval = vexpr vd.vval; vcount = f vd.vcount }
  in
  { s with desc }

(* Expressions read by a statement itself (shallow). *)
let shallow_exprs s =
  let rec vexpr acc = function
    | Vsec sec -> sec.base :: sec.count :: sec.stride :: acc
    | Vscalar e -> e :: acc
    | Viota (off, scale) -> off :: scale :: acc
    | Vcast (_, a) -> vexpr acc a
    | Vbin (_, a, b) -> vexpr (vexpr acc a) b
    | Vun (_, a) -> vexpr acc a
    | Vtmp _ -> acc
  in
  match s.desc with
  | Assign (Lvar _, e) -> [ e ]
  | Assign (Lmem a, e) -> [ a; e ]
  | Call (dst, tgt, args) ->
      let acc = match tgt with Direct _ -> args | Indirect e -> e :: args in
      let acc = match dst with Some (Lmem a) -> a :: acc | Some (Lvar _) | None -> acc in
      acc
  | If (c, _, _) | While (_, c, _) -> [ c ]
  | Do_loop d -> [ d.lo; d.hi; d.step ]
  | Goto _ | Label _ | Nop -> []
  | Return (Some e) -> [ e ]
  | Return None -> []
  | Vector v -> vexpr (v.vdst.base :: v.vdst.count :: v.vdst.stride :: []) v.vsrc
  | Vdef vd -> vexpr [ vd.vcount ] vd.vval

(* The variable defined by this statement, if it defines a scalar var. *)
let defined_var s =
  match s.desc with
  | Assign (Lvar id, _) -> Some id
  | Call (Some (Lvar id), _, _) -> Some id
  | Do_loop d -> Some d.index
  | Assign (Lmem _, _) | Call _ | If _ | While _ | Goto _ | Label _ | Return _
  | Vector _ | Vdef _ | Nop ->
      None

(* Variables read by the statement itself (shallow: loop/if bodies are not
   entered, but their conditions/bounds are). *)
let shallow_uses s =
  List.concat_map Expr.read_vars (shallow_exprs s)

(* Serialization --------------------------------------------------------- *)

let lvalue_of_sexp s =
  match Sexp.as_list s with
  | [ Sexp.Atom "lv"; id ] -> Lvar (Sexp.as_int id)
  | [ Sexp.Atom "lm"; e ] -> Lmem (Expr.of_sexp e)
  | _ -> raise (Sexp.Parse_error "bad lvalue sexp")

let section_of_sexp s =
  match Sexp.as_list s with
  | [ b; c; st ] ->
      { base = Expr.of_sexp b; count = Expr.of_sexp c; stride = Expr.of_sexp st }
  | _ -> raise (Sexp.Parse_error "bad section sexp")

let rec vexpr_of_sexp s =
  match Sexp.as_list s with
  | [ Sexp.Atom "vsec"; sec ] -> Vsec (section_of_sexp sec)
  | [ Sexp.Atom "vscalar"; e ] -> Vscalar (Expr.of_sexp e)
  | [ Sexp.Atom "viota"; off; scale ] ->
      Viota (Expr.of_sexp off, Expr.of_sexp scale)
  | [ Sexp.Atom "vcast"; ty; a ] -> Vcast (Ty.of_sexp ty, vexpr_of_sexp a)
  | [ Sexp.Atom "vbin"; Sexp.Atom op; a; b ] ->
      Vbin (Expr.binop_of_string op, vexpr_of_sexp a, vexpr_of_sexp b)
  | [ Sexp.Atom "vun"; Sexp.Atom op; a ] ->
      Vun (Expr.unop_of_string op, vexpr_of_sexp a)
  | [ Sexp.Atom "vtmp"; t; ty ] -> Vtmp (Sexp.as_int t, Ty.of_sexp ty)
  | _ -> raise (Sexp.Parse_error "bad vexpr sexp")

let dsync_to_sexp (y : dsync) =
  (* the [cum] slot is trailing and omitted when false, so exact-sync
     dumps keep their pre-cumulative spelling *)
  Sexp.list
    ([ Sexp.int y.chan; Sexp.int y.distance; Sexp.int y.post_after;
       Sexp.int y.wait_before ]
    @ if y.cum then [ Sexp.atom "cum" ] else [])

let dsync_of_sexp s =
  match Sexp.as_list s with
  | c :: d :: p :: w :: cum_tl ->
      let cum =
        match cum_tl with
        | [] -> false
        | [ Sexp.Atom "cum" ] -> true
        | _ -> raise (Sexp.Parse_error "bad dsync sexp")
      in
      { chan = Sexp.as_int c; distance = Sexp.as_int d;
        post_after = Sexp.as_int p; wait_before = Sexp.as_int w; cum }
  | _ -> raise (Sexp.Parse_error "bad dsync sexp")

(* Under [name], statement ids are left out: per-function gensyms make
   them a function of the structure rendered here. *)
let to_sexp ?name s =
  let open Sexp in
  let expr = Expr.to_sexp ?name in
  let lvalue = function
    | Lvar id -> list [ atom "lv"; Var.id_to_sexp ?name id ]
    | Lmem e -> list [ atom "lm"; expr e ]
  in
  let section sec = list [ expr sec.base; expr sec.count; expr sec.stride ] in
  let rec vexpr = function
    | Vsec sec -> list [ atom "vsec"; section sec ]
    | Vscalar e -> list [ atom "vscalar"; expr e ]
    | Viota (off, scale) -> list [ atom "viota"; expr off; expr scale ]
    | Vcast (ty, a) -> list [ atom "vcast"; Ty.to_sexp ty; vexpr a ]
    | Vbin (op, a, b) ->
        list [ atom "vbin"; atom (Expr.binop_to_string op); vexpr a; vexpr b ]
    | Vun (op, a) -> list [ atom "vun"; atom (Expr.unop_to_string op); vexpr a ]
    | Vtmp (t, ty) -> list [ atom "vtmp"; int t; Ty.to_sexp ty ]
  in
  let rec to_sexp s =
    let tail =
      match s.desc with
      | Assign (lv, e) -> [ atom "assign"; lvalue lv; expr e ]
      | Call (dst, tgt, args) ->
          let dst_s = match dst with None -> atom "none" | Some lv -> lvalue lv in
          let tgt_s =
            match tgt with
            | Direct name -> list [ atom "direct"; atom name ]
            | Indirect e -> list [ atom "indirect"; expr e ]
          in
          [ atom "call"; dst_s; tgt_s; list (List.map expr args) ]
      | If (c, t_, e_) ->
          [ atom "if"; expr c; list (List.map to_sexp t_);
            list (List.map to_sexp e_) ]
      | While (li, c, body) ->
          [ atom "while"; bool li.pragma_independent; bool li.doacross;
            int li.serial_prefix; expr c; list (List.map to_sexp body) ]
      | Do_loop d ->
          let base =
            [ atom "do"; Var.id_to_sexp ?name d.index; expr d.lo; expr d.hi;
              expr d.step; bool d.parallel; bool d.independent;
              list (List.map to_sexp d.body) ]
          in
          (* the sync slot is trailing and omitted when empty, so
             pre-doacross dumps keep parsing and byte-compare equal *)
          if d.sync = [] then base
          else base @ [ list (List.map dsync_to_sexp d.sync) ]
      | Goto l -> [ atom "goto"; atom l ]
      | Label l -> [ atom "label"; atom l ]
      | Return None -> [ atom "return" ]
      | Return (Some e) -> [ atom "return"; expr e ]
      | Vector v ->
          [ atom "vector"; section v.vdst; vexpr v.vsrc; Ty.to_sexp v.velt ]
      | Vdef vd ->
          [ atom "vdef"; int vd.vt; vexpr vd.vval; expr vd.vcount;
            Ty.to_sexp vd.vty ]
      | Nop -> [ atom "nop" ]
    in
    list (if Option.is_none name then int s.id :: tail else tail)
  in
  to_sexp s

let rec of_sexp s =
  let open Sexp in
  match as_list s with
  | id :: rest ->
      let id = as_int id in
      let desc =
        match rest with
        | [ Atom "assign"; lv; e ] -> Assign (lvalue_of_sexp lv, Expr.of_sexp e)
        | [ Atom "call"; dst; tgt; List args ] ->
            let dst =
              match dst with Atom "none" -> None | lv -> Some (lvalue_of_sexp lv)
            in
            let tgt =
              match as_list tgt with
              | [ Atom "direct"; name ] -> Direct (as_atom name)
              | [ Atom "indirect"; e ] -> Indirect (Expr.of_sexp e)
              | _ -> raise (Parse_error "bad call target")
            in
            Call (dst, tgt, List.map Expr.of_sexp args)
        | [ Atom "if"; c; List t_; List e_ ] ->
            If (Expr.of_sexp c, List.map of_sexp t_, List.map of_sexp e_)
        | [ Atom "while"; pri; doa; sp; c; List body ] ->
            While
              ( { pragma_independent = as_bool pri;
                  doacross = as_bool doa;
                  serial_prefix = as_int sp },
                Expr.of_sexp c,
                List.map of_sexp body )
        | Atom "do" :: idx :: lo :: hi :: step :: par :: indep :: List body
          :: sync_tl ->
            let sync =
              match sync_tl with
              | [] -> []
              | [ List ys ] -> List.map dsync_of_sexp ys
              | _ -> raise (Parse_error "bad stmt sexp")
            in
            Do_loop
              {
                index = as_int idx;
                lo = Expr.of_sexp lo;
                hi = Expr.of_sexp hi;
                step = Expr.of_sexp step;
                parallel = as_bool par;
                independent = as_bool indep;
                body = List.map of_sexp body;
                sync;
              }
        | [ Atom "goto"; l ] -> Goto (as_atom l)
        | [ Atom "label"; l ] -> Label (as_atom l)
        | [ Atom "return" ] -> Return None
        | [ Atom "return"; e ] -> Return (Some (Expr.of_sexp e))
        | [ Atom "vector"; dst; src; elt ] ->
            Vector
              {
                vdst = section_of_sexp dst;
                vsrc = vexpr_of_sexp src;
                velt = Ty.of_sexp elt;
              }
        | [ Atom "vdef"; t; v; c; ty ] ->
            Vdef
              {
                vt = as_int t;
                vval = vexpr_of_sexp v;
                vcount = Expr.of_sexp c;
                vty = Ty.of_sexp ty;
              }
        | [ Atom "nop" ] -> Nop
        | _ -> raise (Parse_error "bad stmt sexp")
      in
      { id; desc; loc = Loc.dummy }
  | [] -> raise (Parse_error "bad stmt sexp")
