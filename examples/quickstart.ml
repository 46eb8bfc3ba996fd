(* Quickstart: compile a small C program with the vectorizing pipeline,
   look at the IL it produces, and run it on the Titan simulator.

     dune exec examples/quickstart.exe *)

let source = Sources.quickstart

let () =
  (* compile at full optimization: inline + vectorize + parallelize *)
  let prog, stats = Vpc.compile ~options:Vpc.o3 source in

  print_endline "=== optimized IL (note the `do parallel` strip loops) ===";
  print_string
    (Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main"));

  Printf.printf "\n=== optimization summary ===\n";
  Printf.printf "while loops converted to DO loops: %d\n"
    stats.while_to_do.converted;
  Printf.printf "induction variables substituted:   %d\n"
    stats.indvar.ivs_found;
  Printf.printf "loops vectorized:                  %d\n"
    stats.vectorize.loops_vectorized;
  Printf.printf "loops parallelized:                %d\n"
    stats.vectorize.loops_parallelized;

  (* run on a two-processor Titan *)
  let config = { Vpc.Titan.Machine.default_config with procs = 2 } in
  let result = Vpc.run_titan ~config prog in
  Printf.printf "\n=== program output (2-processor Titan) ===\n%s"
    result.stdout_text;
  Printf.printf "\ncycles=%d  fp_ops=%d  rate=%.2f MFLOPS\n"
    result.metrics.cycles result.metrics.fp_ops result.mflops_rate;

  (* compare against the naive scalar compilation *)
  let naive, _ = Vpc.compile ~options:Vpc.o0 source in
  let nresult =
    Vpc.run_titan
      ~config:
        { Vpc.Titan.Machine.default_config with
          sched = Vpc.Titan.Machine.Sequential }
      naive
  in
  Printf.printf "naive scalar: cycles=%d  rate=%.2f MFLOPS  (speedup %.1fx)\n"
    nresult.metrics.cycles nresult.mflops_rate
    (float_of_int nresult.metrics.cycles /. float_of_int result.metrics.cycles)
