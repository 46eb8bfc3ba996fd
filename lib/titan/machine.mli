(** The Titan simulator: executes Titan instructions for real values
    while accounting cycles under a configurable scheduling model.

    Scheduling models (§6's dependence-driven scheduling):
    - [Sequential]: each instruction starts when the previous completes —
      the naive baseline;
    - [Overlap_conservative]: units overlap but issue is in-order and
      every load waits for every earlier store (no dependence
      information);
    - [Overlap_full]: dataflow-limited — operations wait only for inputs,
      the memory port, and a 4-wide issue floor; stores enter a store
      buffer at address-ready.  This models a loop list-scheduled with
      the compiler's dependence graph; pair it with compilations whose
      analysis actually ran.

    A parallel DO loop's iterations are distributed round-robin over the
    configured processors; the region costs the slowest processor plus a
    barrier. *)

open Vpc_il

exception Runtime_error of string

type sched_mode = Sequential | Overlap_conservative | Overlap_full

type config = {
  procs : int;          (** 1-4 on the Titan *)
  sched : sched_mode;
  clock_mhz : float;
  max_insts : int;      (** runaway guard *)
}

(** 1 processor, [Overlap_full], 16 MHz. *)
val default_config : config

type value = Vi of int | Vf of float

type layout = {
  addr_of : (int, int) Hashtbl.t;  (** global var id → address *)
  globals_top : int;
  lprog : Prog.t;
}

val layout_globals : Prog.t -> layout

type metrics = {
  mutable cycles : int;  (** wall-clock cycles, parallel-adjusted *)
  mutable insts : int;
  mutable fp_ops : int;
  mutable mem_ops : int;
  mutable vector_insts : int;
  mutable vector_elems : int;
  mutable parallel_regions : int;
  mutable calls : int;
  mutable post_wait_stalls : int;
      (** cycles doacross iterations spent blocked in a wait for a
          producer iteration's post (pipeline virtual time) *)
  mutable posts : int;  (** post instructions executed *)
  mutable waits : int;  (** wait instructions executed *)
  mutable vector_mem_elems_avoided : int;
      (** vector memory traffic (elements) avoided by register reuse *)
  mutable busy_iu : int;  (** integer-unit occupancy, cycles *)
  mutable busy_fpu : int;  (** FPU/vector-unit occupancy, cycles *)
  mutable busy_mem : int;  (** memory-port occupancy, cycles *)
}

type run_result = {
  return_value : value;
  stdout_text : string;
  metrics : metrics;
  mflops_rate : float;
}

(** CLI-facing name of a scheduling model ("seq", "conservative",
    "full"), also recorded in profile headers. *)
val sched_name : sched_mode -> string

(** Compile (to Titan code) and execute [entry] (default ["main"]).
    With [collect], codegen is instrumented with profiling markers and
    the run feeds the collector; markers cost zero cycles, so the
    metrics are those of the uninstrumented program.  With [vreuse],
    codegen runs its redundant-Vload cleanup (see {!Codegen.gen_program}). *)
val run :
  ?config:config ->
  ?entry:string ->
  ?args:value list ->
  ?collect:Vpc_profile.Collect.t ->
  ?vreuse:bool ->
  Prog.t ->
  run_result
