(** Base-address alias analysis.  C imposes no constraints on argument
    aliasing (§1), so distinct pointer variables may address the same
    storage; only named objects are certainly distinct.  The paper's
    escape hatches are reproduced: the per-loop pragma and the compiler
    option giving pointer parameters Fortran semantics.  A third,
    sound source of disjointness is the whole-program points-to oracle
    installed by the driver (see {!set_oracle}). *)

open Vpc_il

type root =
  | Object of int   (** [&v]: distinct variables are distinct storage *)
  | Pointer of int  (** the (invariant) value of pointer variable [p] *)

(** [root + offset + syms]: constant byte offset plus symbolic invariant
    addends (e.g. an outer loop's [32*i]). *)
type canon = { root : root option; offset : int; syms : Expr.t list }

type result =
  | No_alias
  | Must_alias of int  (** byte distance: base2 - base1 *)
  | May_alias

(** [canonicalize ?variant e] decomposes a base address.  [variant v]
    marks variables redefined inside the analyzed region: a pointer root
    whose variable is variant has no single value and the decomposition
    fails (returns [None]) rather than pretending invariance. *)
val canonicalize : ?variant:(int -> bool) -> Expr.t -> canon option

(** Alias verdict for two base addresses.  Same root and equal symbolic
    parts give an exact distance; distinct named objects never alias;
    [assume_noalias] separates unrelated pointers; otherwise the
    points-to oracle, when installed, may still prove the pair disjoint
    before the [May_alias] fallback. *)
val bases :
  ?assume_noalias:bool -> ?variant:(int -> bool) -> Expr.t -> Expr.t -> result

(** Install the interprocedural refinement consulted at [May_alias]
    fallbacks.  The function must be sound for any two address
    expressions of the current program: [Some No_alias] only if the
    addresses can never overlap, [Some (Must_alias d)] only if they are
    always exactly [d] bytes apart. *)
val set_oracle : (Expr.t -> Expr.t -> result option) -> unit

(** Remove the installed oracle (restores pure syntactic behavior). *)
val clear_oracle : unit -> unit
