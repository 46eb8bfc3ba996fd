(* Base-address alias analysis.

   C imposes no constraints on argument aliasing (§1 problem 5), so two
   distinct pointer variables may address the same storage; only named
   objects (&a vs &b) are certainly distinct.  The paper's escape hatches
   are reproduced: a loop pragma and a compiler option "that states that
   pointer parameters have Fortran semantics".

   A base decomposes into  root + constant + symbolic terms  where the
   symbolic terms are loop-invariant expressions (typically outer-loop
   subscript parts like 32*i).  Two bases with the same root and equal
   symbolic parts differ by a known byte distance; distinct named objects
   never alias whatever their offsets.

   Beyond the syntactic decomposition, an oracle installed by the driver
   (whole-program points-to analysis, lib/pointsto) may refine the
   May_alias fallbacks: when the oracle proves two addresses always land
   in disjoint objects the verdict becomes No_alias without any user
   assertion. *)

open Vpc_support
open Vpc_il

type root =
  | Object of int   (* &v: distinct variables are distinct storage *)
  | Pointer of int  (* the (invariant) value of pointer variable p *)

type canon = {
  root : root option;
  offset : int;           (* constant byte offset *)
  syms : Expr.t list;     (* symbolic addends, sorted canonically *)
}

type result =
  | No_alias
  | Must_alias of int  (* byte distance: base2 - base1 *)
  | May_alias

(* Interprocedural refinement: consulted wherever the syntactic analysis
   would answer May_alias.  Installed by the pipeline driver for the
   duration of one optimization run (Vpc.optimize), cleared afterwards so
   stale program facts never leak into a later compilation. *)
let oracle : (Expr.t -> Expr.t -> result option) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fun _ _ -> None)
(* Domain-local: the compile server runs independent pipelines on
   separate domains, and each must see only its own program's graph. *)

let set_oracle f = Domain.DLS.set oracle f
let clear_oracle () = Domain.DLS.set oracle (fun _ _ -> None)

let refine b1 b2 =
  match (Domain.DLS.get oracle) b1 b2 with Some r -> r | None -> May_alias

exception Not_canonical

(* [variant v] says variable [v] is redefined inside the region being
   analyzed.  A [Pointer p] root stands for "the value of p", which is
   only a usable base when that value is a single one — a pointer bumped
   in the loop body has no canonical form. *)
let rec decompose ~variant (e : Expr.t) : canon =
  match e.Expr.desc with
  | Expr.Addr_of v -> { root = Some (Object v); offset = 0; syms = [] }
  | Expr.Var p when Ty.is_pointer e.Expr.ty ->
      if variant p then raise Not_canonical
      else { root = Some (Pointer p); offset = 0; syms = [] }
  | Expr.Const_int c -> { root = None; offset = c; syms = [] }
  | Expr.Binop (Expr.Add, a, b) ->
      let ca = decompose ~variant a and cb = decompose ~variant b in
      let root =
        match ca.root, cb.root with
        | Some r, None | None, Some r -> Some r
        | None, None -> None
        | Some _, Some _ -> raise Not_canonical
      in
      { root; offset = ca.offset + cb.offset; syms = ca.syms @ cb.syms }
  | Expr.Binop (Expr.Sub, a, { desc = Expr.Const_int c; _ }) ->
      let ca = decompose ~variant a in
      { ca with offset = ca.offset - c }
  | Expr.Cast (ty, a) when Ty.is_pointer ty || Ty.is_integer ty ->
      decompose ~variant a
  | _ -> { root = None; offset = 0; syms = [ e ] }

let canonicalize ?(variant = fun _ -> false) (e : Expr.t) : canon option =
  (* fold constants first so structurally different spellings of the same
     address (&a + 8 + 8*i vs &a + 8*(1+i)) decompose identically; the
     spellings diverge when subscripts reach here through different chains
     of forward substitution (fused loop bodies especially) *)
  let e = Vpc_analysis.Simplify.expr e in
  match decompose ~variant e with
  | c ->
      let key x = Sexp.to_string (Expr.to_sexp x) in
      Some { c with syms = List.sort (fun a b -> compare (key a) (key b)) c.syms }
  | exception Not_canonical -> None

let syms_equal a b =
  List.length a = List.length b && List.for_all2 Expr.equal a b

(* [assume_noalias] is the Fortran-parameter-semantics option. *)
let bases ?(assume_noalias = false) ?variant (b1 : Expr.t) (b2 : Expr.t) :
    result =
  match canonicalize ?variant b1, canonicalize ?variant b2 with
  | Some c1, Some c2 -> (
      match c1.root, c2.root with
      | Some (Object v1), Some (Object v2) when v1 <> v2 ->
          (* distinct named objects never overlap, whatever the offsets *)
          No_alias
      | Some (Object v1), Some (Object v2) ->
          assert (v1 = v2);
          if syms_equal c1.syms c2.syms then Must_alias (c2.offset - c1.offset)
          else May_alias
      | Some (Pointer p1), Some (Pointer p2) ->
          if p1 = p2 && syms_equal c1.syms c2.syms then
            Must_alias (c2.offset - c1.offset)
          else if p1 = p2 then May_alias
          else if assume_noalias then No_alias
          else refine b1 b2
      | Some (Object _), Some (Pointer _) | Some (Pointer _), Some (Object _)
        ->
          (* a pointer parameter may point into any named object unless
             the option — or the points-to oracle — says otherwise *)
          if assume_noalias then No_alias else refine b1 b2
      | None, _ | _, None ->
          if c1.root = c2.root && syms_equal c1.syms c2.syms then
            Must_alias (c2.offset - c1.offset)
          else refine b1 b2)
  | _ -> refine b1 b2
