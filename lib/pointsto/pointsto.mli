(** Whole-program points-to and mod/ref analysis (Andersen-style,
    flow-insensitive, field-offset-aware).  Proves the pointer
    disjointness the paper's escape hatches (§1: the per-loop pragma and
    the Fortran-parameter-semantics option) make the user assert, and
    bounds the memory effects of calls for the race checker and the
    inliner's site ranking (§7). *)

open Vpc_il

(** Abstract storage: one object per named program variable, one shared
    object for all integer-literal addresses (device registers), and
    [Unknown] for storage the program never names. *)
type obj = Obj of int | Lit | Unknown

module Objset : Set.S with type elt = obj

(** Constant-offset lattice over an object's base address. *)
type off = Known of int | Any

(** Per-procedure effects, callees folded in to a call-graph fixpoint.
    Objects private to one activation (non-escaping locals) are pruned.
    [io] marks externally visible effects — printf's output ordering,
    calls to code outside the program. *)
type summary = { mods : Objset.t; refs : Objset.t; io : bool }

type t

(** Constraint solver choice.  [`Worklist] (the default) re-evaluates
    only constraints whose inputs changed; [`Naive] re-runs every
    constraint each round.  Both compute the same least fixpoint — the
    naive solver survives as the differential-testing oracle. *)
type solver = [ `Worklist | `Naive ]

(** Analyze the whole program: constraint generation over every
    procedure (including catalog-imported ones already in [Prog.t]),
    inclusion solving to a fixpoint, then mod/ref summaries. *)
val analyze : ?solver:solver -> Prog.t -> t

(** Every (object, offset) an address expression may denote.  Total:
    unknown provenance shows up as [Unknown], never an exception. *)
val objects_of : t -> Expr.t -> (obj * off) list

(** What pointer variable [v] may point at. *)
val points_to : t -> int -> (obj * off) list

(** [disjoint t a1 a2]: the two addresses can never overlap storage. *)
val disjoint : t -> Expr.t -> Expr.t -> bool

(** Refinement for {!Vpc_dependence.Alias.bases}: [`No_alias] when the
    address expressions always land in disjoint objects, [`Must_alias d]
    when both always denote the same object at constant offsets [d]
    bytes apart, [None] when the graph cannot decide. *)
val verdict : t -> Expr.t -> Expr.t -> [ `No_alias | `Must_alias of int ] option

val summary : t -> string -> summary option

(** Heuristic for inliner site ranking: the callee's effects (or our
    inability to bound them) starve the dependence test of facts, so
    inlining the call may unlock vectorization of an enclosing loop. *)
val blocks_vectorization : t -> string -> bool

val obj_name : t -> obj -> string
val pp_summary : t -> Format.formatter -> string -> unit
