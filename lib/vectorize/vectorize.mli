(** The vectorizer and parallelizer: Allen–Kennedy codegen over the
    statement dependence graph.  SCCs of a DO-loop body are distributed
    in topological order; dependence-free assignments become vector
    statements, strip-mined to the machine vector length and spread over
    processors as [do parallel] (the §9 form); statement groups carrying
    a dependence cycle stay sequential; loops with a known tiny trip
    count get bare short-vector code with no strip loop (§5.2's graphics
    remark).

    With a [profile], each loop's measured mean trip count is checked
    against the {!Vpc_titan.Cost} estimates: a loop below the vector
    break-even stays a serial DO loop, a loop whose strips cannot
    amortize the barrier is vectorized without [do parallel], and the
    strip length shrinks to balance short loops across processors.
    Loops absent from the profile follow the static policy unchanged, so
    an empty profile compiles byte-identically to no profile. *)

open Vpc_il

(** Facts the symbolic range analysis proves about expressions at a loop
    header, as closures (this library stays independent of the analysis'
    representation). *)
type range_facts = {
  rf_interval : Stmt.t -> Expr.t -> int option * int option;
      (** sound bounds on an integer expression's value on entry to the
          given loop statement; [(None, None)] = unknown *)
  rf_divisible : Stmt.t -> Expr.t -> int -> bool;
      (** is the expression provably a multiple of the divisor? *)
}

type stats = {
  mutable loops_examined : int;
  mutable loops_vectorized : int;
  mutable loops_parallelized : int;
  mutable stmts_vectorized : int;
  mutable loops_rejected_shape : int;       (** calls / control flow *)
  mutable loops_rejected_dependence : int;  (** carried cycles everywhere *)
  mutable short_vector_loops : int;         (** no strip loop needed *)
  mutable strip_loops_shared : int; (** strip loops holding >1 vector stmt *)
  mutable pgo_scalar_loops : int;   (** profile said: stay scalar *)
  mutable pgo_serial_strips : int;  (** profile said: drop do-parallel *)
  mutable pgo_strip_adjusted : int; (** profile picked a shorter strip *)
  mutable strip_guards_dropped : int;
      (** range analysis proved every strip full: no length clamp *)
}

val new_stats : unit -> stats

(** Vectorize ([`Vectorize] on) and parallelize ([`Parallelize] on)
    every innermost normalized DO loop of the function in place; [true]
    if any loop changed.  With [`Fuse] on, singleton vector groups linked
    only by loop-independent dependences share one strip loop; with
    [`Vreuse] on, profiled accumulator loops are priced with the
    residency-aware traffic model.  [range] supplies symbolic ranges:
    dependence tests work on symbolic distances and trip counts, and
    strips whose trip count is a proven multiple of the strip length drop
    their per-strip length guards.  A tuned [Mode] or [Strip] override at
    the loop's header pins its treatment ahead of the profile. *)
val run :
  ?stats:stats -> ?range:range_facts -> Vpc_tune.Decide.t -> Prog.t ->
  Func.t -> bool
