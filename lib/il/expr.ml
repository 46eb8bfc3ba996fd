(* IL expressions are *pure*: the front end forces every operation that
   changes a memory location to be an explicit statement (paper §4), so an
   expression may read variables and memory but never write.  Pointer
   arithmetic is explicit in bytes — the front end scales by sizeof, which
   is exactly the `a = temp_1 + 4` form the paper shows. *)

open Vpc_support

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr | Band | Bor | Bxor
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Lognot | Bitnot

type t = { desc : desc; ty : Ty.t }

and desc =
  | Const_int of int
  | Const_float of float
  | Var of int          (* read of a scalar variable *)
  | Load of t           (* *p where p : Ptr ty *)
  | Addr_of of int      (* &v *)
  | Binop of binop * t * t
  | Unop of unop * t
  | Cast of Ty.t * t

(* Constructors *)

let mk desc ty = { desc; ty }
let int_const n = mk (Const_int n) Ty.Int
let float_const ?(ty = Ty.Double) f = mk (Const_float f) ty
let var (v : Var.t) = mk (Var v.id) v.ty
let var_id id ty = mk (Var id) ty
(* &v.  For an array variable the result is the address of its first byte
   typed as a pointer to the innermost element — the decayed form the
   lowering's byte arithmetic wants for base addresses (multi-dimensional
   arrays decay all the way down, so loads through the base are always
   scalar-typed). *)
let addr_of (v : Var.t) =
  let rec pointee = function
    | Ty.Array (elt, _) -> pointee elt
    | t -> t
  in
  mk (Addr_of v.id) (Ty.Ptr (pointee v.ty))

let load ptr =
  match ptr.ty with
  | Ty.Ptr elt -> mk (Load ptr) elt
  | _ -> Diag.internal "Expr.load: operand is not a pointer"

let binop op a b ty = mk (Binop (op, a, b)) ty
let unop op a ty = mk (Unop (op, a)) ty
let cast ty a = if Ty.equal ty a.ty then a else mk (Cast (ty, a)) ty

let sub a b = binop Sub a b a.ty

let is_zero e =
  match e.desc with
  | Const_int 0 -> true
  | Const_float f -> f = 0.0
  | _ -> false

let is_const e =
  match e.desc with Const_int _ | Const_float _ -> true | _ -> false

let const_int_val e = match e.desc with Const_int n -> Some n | _ -> None

(* Structural equality (types are ignored for Var/Addr_of nodes, ids decide). *)
let rec equal a b =
  match a.desc, b.desc with
  | Const_int x, Const_int y -> x = y
  | Const_float x, Const_float y -> x = y && Ty.equal a.ty b.ty
  | Var x, Var y -> x = y
  | Addr_of x, Addr_of y -> x = y
  | Load x, Load y -> equal x y
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Unop (o1, a1), Unop (o2, a2) -> o1 = o2 && equal a1 a2
  | Cast (t1, a1), Cast (t2, a2) -> Ty.equal t1 t2 && equal a1 a2
  | ( ( Const_int _ | Const_float _ | Var _ | Addr_of _ | Load _ | Binop _
      | Unop _ | Cast _ ),
      _ ) ->
      false

(* Variables read by an expression (does not include Addr_of: taking an
   address is not a read). *)
let rec vars_read acc e =
  match e.desc with
  | Const_int _ | Const_float _ | Addr_of _ -> acc
  | Var id -> id :: acc
  | Load p -> vars_read acc p
  | Binop (_, a, b) -> vars_read (vars_read acc a) b
  | Unop (_, a) | Cast (_, a) -> vars_read acc a

let read_vars e = vars_read [] e

(* Variables whose address is taken somewhere in the expression. *)
let rec vars_addressed acc e =
  match e.desc with
  | Const_int _ | Const_float _ | Var _ -> acc
  | Addr_of id -> id :: acc
  | Load p -> vars_addressed acc p
  | Binop (_, a, b) -> vars_addressed (vars_addressed acc a) b
  | Unop (_, a) | Cast (_, a) -> vars_addressed acc a

let rec contains_load e =
  match e.desc with
  | Load _ -> true
  | Const_int _ | Const_float _ | Var _ | Addr_of _ -> false
  | Binop (_, a, b) -> contains_load a || contains_load b
  | Unop (_, a) | Cast (_, a) -> contains_load a

(* Map over sub-expressions, bottom-up. *)
let rec map f e =
  let e' =
    match e.desc with
    | Const_int _ | Const_float _ | Var _ | Addr_of _ -> e
    | Load p -> { e with desc = Load (map f p) }
    | Binop (op, a, b) -> { e with desc = Binop (op, map f a, map f b) }
    | Unop (op, a) -> { e with desc = Unop (op, map f a) }
    | Cast (t, a) -> { e with desc = Cast (t, map f a) }
  in
  f e'

let rec iter f e =
  f e;
  match e.desc with
  | Const_int _ | Const_float _ | Var _ | Addr_of _ -> ()
  | Load p -> iter f p
  | Binop (_, a, b) ->
      iter f a;
      iter f b
  | Unop (_, a) | Cast (_, a) -> iter f a

(* Substitute reads of variable [id] by expression [by]. *)
let subst_var id by e =
  map (fun e -> match e.desc with Var v when v = id -> cast e.ty by | _ -> e) e

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | Shl -> "<<" | Shr -> ">>" | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let unop_to_string = function Neg -> "-" | Lognot -> "!" | Bitnot -> "~"

let binop_of_string = function
  | "+" -> Add | "-" -> Sub | "*" -> Mul | "/" -> Div | "%" -> Rem
  | "<<" -> Shl | ">>" -> Shr | "&" -> Band | "|" -> Bor | "^" -> Bxor
  | "==" -> Eq | "!=" -> Ne | "<" -> Lt | "<=" -> Le | ">" -> Gt | ">=" -> Ge
  | s -> raise (Sexp.Parse_error ("unknown binop " ^ s))

let unop_of_string = function
  | "-" -> Neg
  | "!" -> Lognot
  | "~" -> Bitnot
  | s -> raise (Sexp.Parse_error ("unknown unop " ^ s))

let to_sexp ?name e =
  let open Sexp in
  let id = Var.id_to_sexp ?name in
  let rec to_sexp e =
    match e.desc with
    | Const_int n -> list [ atom "ci"; int n; Ty.to_sexp e.ty ]
    | Const_float f -> list [ atom "cf"; float f; Ty.to_sexp e.ty ]
    | Var v -> list [ atom "v"; id v; Ty.to_sexp e.ty ]
    | Addr_of v -> list [ atom "addr"; id v; Ty.to_sexp e.ty ]
    | Load p -> list [ atom "load"; to_sexp p; Ty.to_sexp e.ty ]
    | Binop (op, a, b) ->
        list [ atom "b"; atom (binop_to_string op); to_sexp a; to_sexp b; Ty.to_sexp e.ty ]
    | Unop (op, a) ->
        list [ atom "u"; atom (unop_to_string op); to_sexp a; Ty.to_sexp e.ty ]
    | Cast (t, a) -> list [ atom "cast"; Ty.to_sexp t; to_sexp a ]
  in
  to_sexp e

let rec of_sexp s =
  let open Sexp in
  match as_list s with
  | [ Atom "ci"; n; ty ] -> mk (Const_int (as_int n)) (Ty.of_sexp ty)
  | [ Atom "cf"; f; ty ] -> mk (Const_float (as_float f)) (Ty.of_sexp ty)
  | [ Atom "v"; id; ty ] -> mk (Var (as_int id)) (Ty.of_sexp ty)
  | [ Atom "addr"; id; ty ] -> mk (Addr_of (as_int id)) (Ty.of_sexp ty)
  | [ Atom "load"; p; ty ] -> mk (Load (of_sexp p)) (Ty.of_sexp ty)
  | [ Atom "b"; Atom op; a; b; ty ] ->
      mk (Binop (binop_of_string op, of_sexp a, of_sexp b)) (Ty.of_sexp ty)
  | [ Atom "u"; Atom op; a; ty ] ->
      mk (Unop (unop_of_string op, of_sexp a)) (Ty.of_sexp ty)
  | [ Atom "cast"; t; a ] ->
      let t = Ty.of_sexp t in
      mk (Cast (t, of_sexp a)) t
  | _ -> raise (Parse_error "bad expr sexp")
