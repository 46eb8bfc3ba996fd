(* The paper's §9 walkthrough, reproduced stage by stage: a C daxpy whose
   pointer parameters prevent vectorization is inlined into its caller,
   where constant propagation reveals the arguments (&a, &b, &c, 1.0, 100),
   the argument-aliasing problem disappears, the guards fold away, and the
   loop comes out as a `do parallel` vector strip loop that runs an order
   of magnitude faster on a two-processor Titan.

     dune exec examples/daxpy_inline.exe *)

let source = Sources.daxpy_inline

let stage_of_interest = [ "front-end"; "inline"; "final" ]

let () =
  print_endline "=== §9: compiling daxpy through the full pipeline ===\n";
  let dump stage text =
    if List.mem stage stage_of_interest then begin
      Printf.printf "------------------------- after %s\n" stage;
      (* show main only, as the paper's listings do *)
      let lines = String.split_on_char '\n' text in
      let in_main = ref false in
      List.iter
        (fun line ->
          if line = "int main()" then in_main := true;
          if !in_main then print_endline line;
          if !in_main && line = "}" then in_main := false)
        lines
    end
  in
  let options = { Vpc.o3 with Vpc.dump = Some dump } in
  let prog, stats = Vpc.compile ~options source in

  Printf.printf "daxpy inlined %d time(s); %d loop(s) vectorized, %d parallelized\n"
    stats.inline.calls_inlined stats.vectorize.loops_vectorized
    stats.vectorize.loops_parallelized;

  (* the paper: "On a two processor Titan, this code executes 12 times
     faster than the scalar version of the same routine." *)
  let scalar, _ = Vpc.compile ~options:Vpc.o0 source in
  let t_scalar =
    Vpc.run_titan
      ~config:
        { Vpc.Titan.Machine.default_config with
          sched = Vpc.Titan.Machine.Sequential }
      scalar
  in
  let t_vector =
    Vpc.run_titan
      ~config:{ Vpc.Titan.Machine.default_config with procs = 2 }
      prog
  in
  Printf.printf "\nscalar Titan: %7d cycles   %s" t_scalar.metrics.cycles
    t_scalar.stdout_text;
  Printf.printf "2-proc Titan: %7d cycles   %s" t_vector.metrics.cycles
    t_vector.stdout_text;
  Printf.printf "speedup: %.1fx (paper: 12x for the daxpy region)\n"
    (float_of_int t_scalar.metrics.cycles
    /. float_of_int t_vector.metrics.cycles)
