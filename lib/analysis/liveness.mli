(** Backward live-variable analysis over the CFG.  Dead-code elimination
    and induction-variable elimination consult live-out sets; unsafe
    variables (address-taken, global, volatile) are always live. *)

open Vpc_il

type t

val def_of : Stmt.t -> int option
val build : Func.t -> t

(** Is [var] live after statement [stmt_id]?  Unsafe variables are always
    live; unreachable statements report [false]. *)
val live_out_of : t -> stmt_id:int -> var:int -> bool
