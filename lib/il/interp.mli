(** An executing interpreter for the IL — the reference semantics of the
    compiler.  Every optimization pass is differential-tested by running
    programs before and after it, and the Titan simulator is checked
    against it.

    Memory is byte-addressed; scalars whose address is never taken live
    in per-frame registers; pointers are integer addresses. *)

type value = V_int of int | V_float of float

exception Runtime_error of string

(** Raised when [max_steps] is exceeded. *)
exception Timeout

type result = {
  return_value : value;
  stdout_text : string;   (** everything printf/puts/putchar produced *)
  fp_ops : int;           (** floating-point operations executed *)
  steps_executed : int;
}

(** Run [entry] (default ["main"]).  [on_volatile_read] models a device:
    consulted on every read of a volatile variable; returning [Some v]
    overrides the stored value. *)
val run :
  ?max_steps:int ->
  ?on_volatile_read:(Var.t -> value option) ->
  ?entry:string ->
  ?args:value list ->
  Prog.t ->
  result
