(** Inline expansion of procedure calls (paper §7).  Call sites are
    replaced by the callee body with fresh variables ([in_]-prefixed
    parameter copies, the §9 shape) and labels; returns become a store to
    a result temporary and a goto to a fresh exit label.  Functions are
    expanded callees-first ("order is very important"); recursion is cut
    by refusing cycles and bounding depth. *)

open Vpc_il


type stats = {
  mutable calls_inlined : int;
  mutable calls_skipped_recursive : int;
  mutable calls_skipped_size : int;
  mutable calls_skipped_unknown : int;  (** library / no body available *)
  mutable calls_skipped_cold : int;     (** measured count = 0 *)
  mutable calls_skipped_budget : int;   (** growth budget exhausted *)
  mutable calls_ranked_blocking : int;
      (** in-loop sites whose mod/ref summary blocks vectorization *)
}

val new_stats : unit -> stats

(** Expand calls across the whole program, callees before callers.

    [only]: when set, inline only these callees.  [max_callee_stmts]
    (default 200) is the size threshold for automatic inlining.

    With the context's profile, sites are ranked hottest-first by
    measured call counts and attributed cycles, sites the run proved
    cold are kept as calls, and growth stops at a per-caller budget;
    sites without data follow the static policy, so an empty profile
    expands exactly the static set.  With [pointsto] mod/ref summaries,
    an in-loop site whose callee summary blocks vectorization of the
    enclosing loop (unknown effects, writes through pointers, I/O) is the
    §7 motivation for inlining and is ranked ahead of every other site.
    A tuned [Inline] override at a call site pins its verdict: [false]
    keeps the call, [true] inlines past the size threshold and the
    profile plan (the recursion cutoff still applies). *)
val expand :
  ?only:string list ->
  ?pointsto:Vpc_pointsto.Pointsto.t ->
  ?max_callee_stmts:int ->
  ?stats:stats ->
  Vpc_tune.Decide.t ->
  Prog.t ->
  unit
