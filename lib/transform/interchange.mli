(** Loop interchange (paper §7): reorder the levels of an analyzable
    nest into the cheapest legal order.  Legality: every direction
    vector stays lexicographically non-negative under the permutation.
    Profitability: {!Vpc_titan.Cost.nest_order_cycles} — a vectorizable
    innermost level dominates, stride-1 innermost access breaks ties,
    and measured trip counts fill in unknown bounds. *)

open Vpc_il

type stats = {
  mutable nests_examined : int;
  mutable nests_interchanged : int;
  mutable orders_rejected_legality : int;
  mutable pgo_trip_nests : int;
}

val new_stats : unit -> stats

(** Reorder every analyzable nest in place; [true] if any changed.  A
    tuned [Interchange] override at the outer loop's header pins the
    verdict: [false] keeps the source order, [true] takes the cheapest
    legal reorder even on a cost tie. *)
val run : ?stats:stats -> Vpc_tune.Decide.t -> Prog.t -> Func.t -> bool
