(** Deterministic fault injection for exercising the verifier and the
    differential checker end to end: each kind corrupts the first
    applicable site in the program the way a buggy pass would.

    - [Dup_stmt_id]: clone an existing statement id onto another statement.
    - [Unbound_var]: retarget an assignment at a variable id no table binds.
    - [Impure_bound]: make a DO loop's [hi] bound read its own index.
    - [Dangling_goto]: append a [Goto] with no matching label.
    - [Vector_type]: flip a [Vector] statement's element type.
    - [Vector_overlap]: shift a [Vector] destination one element up, so
      the source reads elements the sequential loop had already written.
    - [False_parallel]: mark the first sequential [Do_loop] parallel.
    - [Wrong_const]: add 1 to the first integer constant assignment
      (semantically wrong but structurally well-formed — only the
      differential checker can see it).

    [inject] returns [false] when the program has no applicable site. *)

open Vpc_il

type kind =
  | Dup_stmt_id
  | Unbound_var
  | Impure_bound
  | Dangling_goto
  | Vector_type
  | Vector_overlap
  | False_parallel
  | Wrong_const

val kinds : (string * kind) list
val of_string : string -> kind option
val inject : kind -> Prog.t -> bool
