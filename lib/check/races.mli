(** Parallelism validator: independently re-runs the {!Vpc_dependence}
    machinery over the *output* IL and reports every loop-carried
    dependence a transform claimed away — translation validation for the
    vectorizer, parallelizer, and doacross phases rather than trust in
    their internal reasoning.

    Checked constructs:
    - [Do_loop {parallel = true}]: the body is re-analyzed with
      {!Vpc_dependence.Graph} when it is a flat assignment body, or with
      a footprint analysis of its memory accesses (including [Vector]
      sections, with the strip-mine [len] guard recognized as a count
      bound) otherwise.  Any loop-carried dependence, may-alias access
      pair, scalar defined in one iteration and read in another, or
      scalar definition that is live after the loop is reported
      ([parallel-carried-dep], [parallel-may-alias],
      [parallel-carried-scalar], [parallel-liveout], [parallel-shape]).
    - [While] loops marked [doacross] (§10): statements after the
      serialized prefix must not define variables the condition, the
      prefix, an earlier position, or code after the loop reads
      ([doacross-cond], [doacross-carried], [doacross-shape]).
    - Every [Vector] statement: both execution engines evaluate the whole
      right-hand side before storing, so a source section that provably
      overlaps destination elements *earlier* in element order (positive
      dependence distance) diverges from the source loop's sequential
      semantics and is reported ([vector-overlap]).  Anti-direction
      overlap (distance <= 0) is the §6 backsolve pattern and is legal.
      May-alias source sections are not reported here: a short vector
      emitted under the independence pragma carries no provenance, so
      only provable overlap is a violation.

    [assume_noalias] mirrors the compiler option; loops carrying the
    independence pragma get it per-loop, as the vectorizer did.

    [pointsto] supplies whole-program mod/ref summaries.  With them, a
    call in a parallel DO body is no longer worst-case: a callee that
    writes nothing, performs no io, and reads only storage the loop
    never writes is accepted like a scalar assignment; doacross bodies
    accept only pure scalar callees (no memory effects at all).

    [range] supplies the whole-program symbolic range analysis.  With
    it, a may-alias access pair whose symbolic byte distance (per the
    ranges, at the loop header) clears the interval GCD/Banerjee tests
    is accepted — re-proving what the vectorizer established through the
    {!Vpc_dependence.Test} oracle — and a symbolic loop bound still
    yields a trip-count bound for the Banerjee span. *)

open Vpc_il

val check_func :
  ?assume_noalias:bool ->
  ?pointsto:Vpc_pointsto.Pointsto.t ->
  ?range:Vpc_range.Range.t ->
  Prog.t ->
  Func.t ->
  Report.violation list
