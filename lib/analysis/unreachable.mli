(** Unreachable-code elimination (paper §8): the "quick heuristic"
    postpass — statements between an unconditional transfer and the next
    label are dead, and a goto to the immediately following label is
    dropped — plus a full CFG-reachability sweep for the stubborn
    cases. *)

open Vpc_il

type stats = { mutable removed : int }

val new_stats : unit -> stats

(** Both passes; [true] if anything was removed. *)
val run : ?stats:stats -> Func.t -> bool
