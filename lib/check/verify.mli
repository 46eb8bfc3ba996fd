(** Verification driver: runs {!Wf} and {!Races} over a program or a
    single function and turns violations into diagnostics naming the
    offending pass.

    [run]/[run_func] raise {!Failed} with one {!Vpc_support.Diag.t} per
    violation (source location preserved, message prefixed with the pass
    name) when anything is wrong, and return unit otherwise. *)

open Vpc_il

exception Failed of Vpc_support.Diag.t list

(** How often the pipeline should verify: never, once after the last
    pass, or after every pass of every function. *)
type level = [ `Off | `Final | `Each_stage ]

val check_prog :
  ?assume_noalias:bool ->
  ?pointsto:Vpc_pointsto.Pointsto.t ->
  ?range:Vpc_range.Range.t ->
  Prog.t ->
  Report.violation list

val run_func :
  ?assume_noalias:bool ->
  ?pointsto:Vpc_pointsto.Pointsto.t ->
  ?range:Vpc_range.Range.t ->
  pass:string ->
  Prog.t ->
  Func.t ->
  unit

val run :
  ?assume_noalias:bool ->
  ?pointsto:Vpc_pointsto.Pointsto.t ->
  ?range:Vpc_range.Range.t ->
  pass:string ->
  Prog.t ->
  unit
