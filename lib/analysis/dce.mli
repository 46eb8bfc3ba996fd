(** Dead-code elimination: assignments to scalars not live afterwards are
    deleted (along with unused labels, which otherwise obstruct while→DO
    conversion).  The §5.3 temp chains and the §9 inlined daxpy both
    shrink to their useful cores only through this pass. *)

open Vpc_il

type stats = { mutable removed : int }

val new_stats : unit -> stats

(** Run to fixpoint, for at most 25 rounds.  [`Capped] when the cap
    stopped it first (another run may remove more); after [`Fixpoint] a
    new run over the unchanged body removes nothing. *)
val run : ?stats:stats -> Func.t -> [ `Fixpoint | `Capped ]
