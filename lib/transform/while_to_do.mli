(** While→DO loop conversion (paper §5.2).  "Since C for loops are
    converted to while loops by the front end, this transformation is
    essential to success."

    A while loop converts when its condition tests a single integer
    variable against an invariant bound (or [while (i)] counting down),
    the variable receives exactly one net constant update per iteration —
    possibly through the front end's temp chain — and no branch enters or
    leaves the body.  Converted loops are emitted {e normalized}
    ([do dummy = 0, trip-1, 1], the §9 form) with the trip count bound to
    a preheader temporary. *)

open Vpc_il

type stats = {
  mutable converted : int;
  mutable rejected_branch_in : int;
  mutable rejected_branch_out : int;
  mutable rejected_no_induction : int;
  mutable rejected_condition : int;
  mutable rejected_volatile : int;
}

val new_stats : unit -> stats

(** Convert every eligible while loop in one pre-order walk over a single
    use-def build (none when the function has no [while]); [true] if any
    converted. *)
val run : ?stats:stats -> Prog.t -> Func.t -> bool
