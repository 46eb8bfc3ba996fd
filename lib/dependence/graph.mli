(** The statement dependence graph of a DO loop (paper §6): data
    dependences through memory and through scalars, classified as
    loop-carried or loop-independent.  This graph drives vectorization,
    parallelization, scalar replacement, strength reduction, and
    instruction scheduling — "the dependence graph used in vectorization
    has a dual nature". *)

open Vpc_il

type dep_kind = Flow | Anti | Output

type edge = {
  src : int;  (** top-level position in the loop body *)
  dst : int;
  kind : dep_kind;
  carried : bool;
  distance : int option;  (** iterations, when exact *)
  dist_lo : int option;
      (** when [distance = None]: proven lower bound (>= 1) on the
          carried distance — strictly forward, symbolic distance *)
  through_memory : bool;  (** false: a scalar (register) dependence *)
}

type t = {
  nstmts : int;
  edges : edge list;
  refs : Subscript.reference list;
  analyzable : bool;  (** all statements are assignments, no calls *)
}

val kind_of :
  Subscript.access_kind -> Subscript.access_kind -> dep_kind option

val build :
  ?assume_noalias:bool ->
  trip:int option ->
  Stmt.t list ->
  index:int ->
  invariant:(Expr.t -> bool) ->
  t

(** Strongly connected components (Tarjan), in topological order of the
    condensation — the Allen–Kennedy codegen order. *)
val sccs : t -> int list list

(** Does the component carry a dependence around itself? *)
val has_carried_cycle : t -> int list -> bool

val carried_edges : t -> edge list
