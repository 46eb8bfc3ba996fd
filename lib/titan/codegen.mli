(** Code generation from optimized IL to Titan instructions.  Scalars
    live in virtual registers unless address-taken or volatile (volatile
    accesses are marked memory operations the simulator never reorders or
    caches, §1); vector statements map onto vector loads/ALU ops/stores;
    a parallel DO loop is bracketed with Par_enter/Par_iter/Par_exit
    markers the simulator uses to spread iterations over processors. *)

open Vpc_il

exception Codegen_error of string

(** Compile every function; [global_addr] resolves a global variable id
    to its absolute address (from {!Machine.layout_globals}).  With
    [instrument], loops and call sites that carry a source position are
    bracketed with zero-cost profiling markers ({!Isa.inst.Prof}) for the
    profile collector.  With [vreuse], a redundant-Vload cleanup pass
    runs over the generated code: a vector load recomputing a value
    already live in a register (same base, stride, length and type
    within a straight-line segment, no intervening store) is replaced by
    a {!Isa.inst.Vsaved} marker and its uses are redirected to the
    earlier register. *)
val gen_program :
  ?instrument:bool ->
  ?vreuse:bool ->
  Prog.t ->
  global_addr:(int -> int) ->
  Isa.program
