(** Constant folding and algebraic simplification of pure IL expressions,
    shared by constant propagation, induction-variable substitution, and
    the subscript normalizer.  Float arithmetic folds with the same
    32-bit rounding the interpreter and simulator use. *)

open Vpc_il

val wrap32 : int -> int

(** Fold an integer binop; [None] when undefined (division by zero). *)
val fold_int_binop : Expr.binop -> int -> int -> int option

(** One bottom-up simplification pass: constant folding, x+0 / x*1 /
    x*0-style identities, (x+c1)+c2 reassociation.  Result types are
    preserved. *)
val expr : Expr.t -> Expr.t

(** Is this a "constant" in the propagation sense?  Address constants
    ([&a], [&a + 12]) count — §9 depends on propagating them. *)
val is_propagation_constant : Expr.t -> bool

(** Truth value of a constant condition, if decidable. *)
val const_truth : Expr.t -> bool option

(** Simplify every expression of a statement (shallow). *)
val stmt_exprs_simplify : Stmt.t -> Stmt.t
