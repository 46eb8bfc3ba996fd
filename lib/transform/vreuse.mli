(** Vector-register reuse over the vectorized IL.

    Three transformations keep vector values in registers instead of
    bouncing them through the single memory port:

    - {b strip residency}: a serial DO loop whose body is one serial
      strip loop of vector statements is interchanged (strip loop
      outermost) and each accumulator section — written and re-read,
      invariant in the serial loop — becomes a register-resident
      {!Vpc_il.Stmt.Vdef}, loaded once before the loop and stored once
      after it;
    - {b invariant Vload hoisting}: a section read inside such a loop,
      invariant and provably disjoint from everything the loop writes,
      is loaded once ahead of it;
    - {b Vstore→Vload forwarding}: in straight-line runs of vector
      statements (notably fused strip-loop bodies) a stored section read
      again downstream forwards through a register, and a section read
      by several statements is loaded once and shared.

    Legality comes from {!Vpc_dependence.Alias}: register sharing
    demands the identical section ([Must_alias 0], equal constant
    strides, syntactically equal counts); hoisting demands [No_alias]
    against every write; volatile storage never participates.
    Profitability of the interchange is priced by the memory-port
    traffic model ({!Vpc_titan.Cost.strip_port_cycles},
    {!Vpc_titan.Cost.reuse_vector_loop_cycles}), with a measured
    profile refining the repetition count when it covers the loop. *)

open Vpc_il

type stats = {
  mutable strips_interchanged : int;  (** strip loop hoisted over a DO *)
  mutable accumulators_localized : int;
      (** load+store pairs made register-resident *)
  mutable invariant_loads_hoisted : int;
  mutable stores_forwarded : int;  (** Vstore→Vload through a register *)
  mutable loads_shared : int;  (** one Vload feeding several statements *)
  mutable pgo_priced : int;  (** measured trips refined the pricing *)
}

val new_stats : unit -> stats

(** Rewrite [func] in place; [true] if anything changed.  A tuned
    [Vreuse] override of [false] at a DO loop's header leaves that loop's
    vector statements untouched. *)
val run : ?stats:stats -> Vpc_tune.Decide.t -> Prog.t -> Func.t -> bool
