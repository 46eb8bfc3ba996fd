(** Well-formedness verifier: the structural and semantic invariants every
    pass must preserve over {!Vpc_il.Prog.t} (paper §4/§5.2).

    Checked per function:
    - statement ids are unique ([dup-stmt-id]);
    - every variable id named by an lvalue or expression resolves through
      the function's table, the globals, or (post-inlining) some other
      function's table ([unbound-var]);
    - expression nodes are consistently typed: variable reads carry the
      declared (or decayed) type, [Load] operands are pointers
      ([var-type], [load-non-pointer]);
    - assignments, calls and returns are type-compatible with their
      targets ([assign-type], [call-arity], [call-type], [call-dst],
      [return-type]);
    - [Goto] targets resolve to exactly one [Label] in the function
      ([goto-target], [dup-label]);
    - [Do_loop] indices are sane and bounds are loop-entry-invariant pure
      expressions, as [stmt.mli] promises: the re-evaluated [hi]/[step]
      may not read the index, variables the body defines, volatile
      storage, or memory the body writes ([do-index], [do-bound-variant],
      [do-step-zero]);
    - [Vector] statements are consistently typed and never touch volatile
      storage ([vector-type], [volatile-vector]); parallel loop bodies
      never touch volatile storage either ([volatile-parallel]);
    - [While] serialized-prefix bookkeeping is in range ([serial-prefix]).

    Structural expression purity (no calls or assignments inside
    [Expr.t]) is enforced by the type itself; the semantic residue —
    positions the optimizer assumes re-evaluable must not read volatile
    or body-variant state — is what the checks above verify. *)

open Vpc_il

val check_func : Prog.t -> Func.t -> Report.violation list

(** Advisory checks: likely-bug patterns that are nevertheless legal IL,
    so they must not fail the verifier — degenerate DO loops whose
    constant bounds and step mean the body never runs ([do-degenerate];
    while→DO conversion emits exactly this form for loops it proves
    never run, which is why the verifier cannot reject it).  Consumed by
    the lint driver over the front-end IL. *)
val advise_func : Prog.t -> Func.t -> Report.violation list
val advise_prog : Prog.t -> Report.violation list
