(* Interprocedural points-to on pointer-parameter kernels: saxpy's
   arguments are revealed as disjoint global arrays by the whole-program
   analysis, so the loop vectorizes at -O2 with no pragma, no `--noalias`,
   and no inlining.  With the analysis off the same loop stays scalar
   (the canonical decomposition cannot relate two unknown pointers), so
   the cycle counts show exactly what the analysis buys.

     dune exec examples/ptrkernels.exe *)

let source = Sources.ptrkernels

let () =
  (* four processors, like the paper's largest Titan: the strip loops
     spread across all four, and the scalar fallback cannot hide the
     extra instructions behind overlap any more *)
  let config = { Vpc.Titan.Machine.default_config with procs = 4 } in
  let build pointsto =
    let options =
      {
        Vpc.o2 with
        Vpc.off = (if pointsto then [] else [ `Pointsto ]);
        verify = `Each_stage;
      }
    in
    let prog, stats = Vpc.compile ~options source in
    (Vpc.run_titan ~config prog, stats)
  in
  let r_off, s_off = build false in
  let r_on, s_on = build true in
  assert (r_on.Vpc.Titan.Machine.stdout_text = r_off.Vpc.Titan.Machine.stdout_text);
  print_string r_on.Vpc.Titan.Machine.stdout_text;
  Printf.printf
    "pointsto off: %d loop(s) vectorized\npointsto on:  %d loop(s) vectorized\n"
    s_off.Vpc.vectorize.loops_vectorized s_on.Vpc.vectorize.loops_vectorized;
  assert (s_on.Vpc.vectorize.loops_vectorized > s_off.Vpc.vectorize.loops_vectorized);
  let cyc (r : Vpc.Titan.Machine.run_result) = r.metrics.cycles in
  Printf.printf
    "pointsto off: %7d cycles\npointsto on:  %7d cycles  %.2fx\n"
    (cyc r_off) (cyc r_on)
    (float_of_int (cyc r_off) /. float_of_int (cyc r_on));
  assert (cyc r_on < cyc r_off);
  (* the dot loop carries its reduction: --why-scalar should say so *)
  let whys = ref [] in
  let options =
    { Vpc.o2 with Vpc.why_scalar = Some (fun l -> whys := l :: !whys) }
  in
  ignore (Vpc.compile ~options source);
  List.iter (fun l -> Printf.printf "[why-scalar] %s\n" l)
    (List.filter
       (fun l ->
         (* main's init loop vectorizes; dot's reduction does not *)
         String.length l >= 4 && String.sub l 0 4 = "dot:")
       (List.rev !whys))
