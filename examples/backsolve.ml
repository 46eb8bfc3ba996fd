(* The paper's §6 example: a backsolve loop that cannot be vectorized
   (loop-carried flow dependence of distance 1), but which the
   dependence-driven scalar optimizations — scalar replacement, strength
   reduction, and overlap scheduling — speed up several-fold.

   The paper reports 0.5 MFLOPS for the scalar compilation and
   1.9 MFLOPS after the dependence-driven optimizations.

     dune exec examples/backsolve.exe *)

let source = Sources.backsolve

let () =
  (* Timing runs call backsolve directly (entry point override), so the
     measurement isolates the kernel from main's init loop. *)
  let time options sched name =
    let prog, _ = Vpc.compile ~options source in
    let config = { Vpc.Titan.Machine.default_config with sched } in
    let r =
      Vpc.run_titan ~config ~entry:"backsolve"
        ~args:[ Vpc.Titan.Machine.Vi 2000 ] prog
    in
    Printf.printf "%-30s cycles=%8d  fp=%5d  %5.2f MFLOPS\n" name
      r.metrics.cycles r.metrics.fp_ops r.mflops_rate;
    r
  in
  print_endline
    "backsolve: p[i] = z[i] * (y[i] - q[i])   (p = &x[1], q = &x[0])";
  print_endline
    "paper (§6): 0.5 MFLOPS scalar -> 1.9 MFLOPS optimized (3.8x)\n";
  let naive = time Vpc.o0 Vpc.Titan.Machine.Sequential "naive scalar (sequential)" in
  ignore (time Vpc.o0 Vpc.Titan.Machine.Overlap_conservative "scalar + unit overlap");
  let opt = time Vpc.o3 Vpc.Titan.Machine.Overlap_full "dependence-driven (§6)" in
  Printf.printf "\nspeedup over naive: %.2fx\n"
    (float_of_int naive.metrics.cycles /. float_of_int opt.metrics.cycles);

  (* correctness: both compilations print the same results *)
  let out options =
    (Vpc.run_interp (fst (Vpc.compile ~options source))).stdout_text
  in
  assert (out Vpc.o0 = out Vpc.o3);
  Printf.printf "\nresults (identical at O0 and O3): %s" (out Vpc.o3);

  (* show the transformed kernel: the §6 listing with f_reg and the
     sr_ptr pointer temps *)
  let prog, _ = Vpc.compile ~options:Vpc.o3 source in
  print_endline "\n=== the transformed kernel (compare §6's listing) ===";
  print_string
    (Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main"))
