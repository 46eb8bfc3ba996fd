(** Reaching definitions and use-def chains — the workhorse of the
    paper's scalar phase: while→DO conversion, induction-variable
    substitution, and constant propagation are all "driven off the
    use-def graph" (§8).

    Scalar variables only.  A variable is {e unsafe} when stores through
    pointers or calls may modify it (address taken, global lifetime, or
    volatile); every memory-writing statement weakly defines each unsafe
    variable, and a use reached by a weak definition reports
    {!reach.Unknown}. *)

open Vpc_il

type def = {
  d_index : int;
  d_stmt : int;   (** defining stmt id, or {!entry_def_stmt} *)
  d_var : int;
  d_weak : bool;
  d_value : Expr.t option;  (** RHS when the def is [v = rhs] *)
}

(** Pseudo-definition at function entry (parameter / unknown initial
    value). *)
val entry_def_stmt : int

type reach =
  | Defs of def list  (** exactly these strong/entry definitions reach *)
  | Unknown           (** a weak def or volatile access intervenes *)

type t

(** Variables the analysis considers unsafe. *)
val is_unsafe : t -> int -> bool

(** The scalar variable a statement strongly defines, with its RHS. *)
val strong_def_of : Stmt.t -> (int * Expr.t option) option

val writes_memory : Stmt.t -> bool

(** Build the analysis.  Pass [prog] so global/volatile metadata resolves
    for variables not in the function's own table. *)
val build : ?prog:Prog.t -> Func.t -> t

(** The analysis of the function's current body, reusing [t]'s IN sets,
    or [None] when that would not be exact.  Valid only after rewrites
    that keep every statement's id, constructor and place and change
    expressions alone (substitution, {!Simplify}): the CFG then has the
    build's shape, and only the values of strong defs can differ.  Returns
    [None] unless the tracked and unsafe variable sets, the statements
    that strongly define each variable, and the memory-writing statements
    are all the build's.  Entry definitions may be numbered differently
    from a fresh {!build}; every answer is otherwise the same. *)
val refresh : t -> t option

(** Definitions of [var] visible to uses in statement [stmt_id]. *)
val reaching : t -> stmt_id:int -> var:int -> reach

(** The single reaching definition, when there is exactly one and it is a
    real statement. *)
val unique_def : t -> stmt_id:int -> var:int -> def option

(** Variables strongly defined in a statement list, and whether it writes
    memory — the ingredients of loop invariance. *)
val vars_defined_in : Stmt.t list -> (int, unit) Hashtbl.t * bool

(** Is [e] invariant while [body] executes? *)
val invariant_in : t -> Stmt.t list -> Expr.t -> bool
