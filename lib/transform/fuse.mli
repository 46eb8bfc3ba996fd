(** Loop fusion (paper §7): merge adjacent conformable DO loops (flat
    loops or whole nests) into one loop when no fusion-preventing
    dependence exists — no conflict between the two bodies with a
    lexicographically negative direction vector — and the Titan cost
    model finds the fused nest cheaper than the pair. *)

open Vpc_il

type stats = {
  mutable pairs_examined : int;
  mutable loops_fused : int;
  mutable rejected_conformability : int;
  mutable rejected_dependence : int;
  mutable rejected_cost : int;
}

val new_stats : unit -> stats

(** Fuse adjacent loops in place; [true] if any pair fused.  A tuned
    [Fuse] override at either loop's header pins the verdict: [false]
    keeps the pair separate, [true] fuses a legal pair even when the cost
    model prefers them apart. *)
val run : ?stats:stats -> Vpc_tune.Decide.t -> Prog.t -> Func.t -> bool
