(** Interprocedural symbolic value-range and scalar-evolution analysis.

    The analysis assigns every integer-valued IL expression a {e value}:
    an interval with (possibly absent) concrete endpoints, paired with an
    optional {e affine form} — a linear combination of symbols (current
    values of scalar variables, base addresses of objects) plus a
    constant.  Affine forms make differences of symbolic expressions
    cancel ([&a + 4*i + 4*n] minus [&a + 4*i] is the point [4*n]), which
    is exactly what the dependence tester needs when loop bounds and
    subscript offsets are not literal constants.

    Per function, a forward dataflow pass interprets assignments,
    branches (conditions refine the interval of the tested variable on
    each arm), and loops (widening at the header, then re-narrowing
    through the loop guard).  DO-loop indices additionally get a
    {e scalar evolution} [base + k*step].  Interprocedurally, parameter
    intervals are seeded from the join of all call-site argument values,
    mirroring the points-to analysis' entry policy: a procedure whose
    callers are all visible gets the join; one reachable from an unknown
    caller (never called directly, or any indirect call in the program)
    gets top. *)

(** Intervals over [int] with optional (= infinite) endpoints. *)
module Interval : sig
  type t = { lo : int option; hi : int option }
  (** [None] endpoints are unbounded.  The empty interval is
      represented canonically by {!bot}. *)

  val bot : t
  val point : int -> t
  val of_bounds : int option -> int option -> t
  val is_bot : t -> bool
  val is_top : t -> bool
  val to_point : t -> int option
  val equal : t -> t -> bool
  val contains : t -> int -> bool
  val subset : t -> t -> bool

  val join : t -> t -> t
  val meet : t -> t -> t

  (** [widen old next]: keep only the bounds of [old] that [next] does
      not move past; guarantees termination of ascending chains. *)
  val widen : t -> t -> t

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t

  (** Truth of [a op b] when every pair of points decides the same way;
      [None] when the intervals overlap ambiguously. *)
  val truth : Vpc_il.Expr.binop -> t -> t -> bool option

  val to_string : t -> string
end

(** Canonical affine forms [c0 + Σ ci*si] over variable-value and
    object-address symbols. *)
module Affine : sig
  type sym = Svar of int | Saddr of int

  type t = { terms : (sym * int) list; const : int }
  (** [terms] is sorted by symbol and has no zero coefficients. *)

  val const : int -> t
  val sym : sym -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : int -> t -> t
  val to_const : t -> int option
  val equal : t -> t -> bool
  val mentions : t -> int -> bool
  (** [mentions a v]: does [a] read the value of variable [v]
      (address symbols do not count — an address is stable)? *)

  val divisible_by : t -> int -> bool
  (** Every coefficient and the constant are multiples of the divisor,
      hence so is the value, whatever the symbols are. *)

  val to_string : t -> string
end

type value = { itv : Interval.t; aff : Affine.t option }

(** Scalar evolution of a DO-loop index: [base + k*step] at iteration
    [k].  [advance] gives the affine value after [k] steps; [compose]
    nests an inner evolution whose base advances with the outer one. *)
module Evo : sig
  type t = { base : Affine.t; step : int }

  val advance : t -> int -> Affine.t
  val compose : outer:t -> int -> inner:t -> t
end

(** {1 Whole-program analysis} *)

type t

val analyze : Vpc_il.Prog.t -> t

val param_interval : t -> string -> int -> Interval.t
(** Seeded interval for parameter [id] of the named function. *)

(** {1 Per-function dataflow} *)

type env
type fenv

val analyze_func : t -> Vpc_il.Prog.t -> Vpc_il.Func.t -> fenv
(** Run the forward dataflow over the function's {e current} body.
    Optimization passes renumber statements, so facts are computed on
    demand rather than cached across passes. *)

val env_before : fenv -> int -> env option
(** Environment on entry to the statement with the given id, from the
    final (post-fixpoint) pass. *)

val eval : env -> Vpc_il.Expr.t -> value
val interval_of_expr : env -> Vpc_il.Expr.t -> Interval.t

(** Re-evaluate an affine form as an interval: each variable symbol
    contributes the interval of its current binding, address symbols are
    unbounded.  Bounds the non-address part of an address value (a
    subscript offset) after cancelling the base symbol. *)
val interval_of_affine : env -> Affine.t -> Interval.t

val truth : env -> Vpc_il.Expr.t -> bool option
(** Provable truth value of an integer condition, via interval
    comparison of the operands (affine differences first, so [n < n+1]
    folds even with [n] unknown). *)
