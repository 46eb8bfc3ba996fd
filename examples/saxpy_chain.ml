(* Vector-register reuse on a fused chain of saxpy-like passes: the four
   loops share one strip loop after fusion, and the reuse pass forwards
   each Vstore to the Vloads downstream of it, so the chain's
   intermediate values never leave the vector register file.

     dune exec examples/saxpy_chain.exe *)

let source = Sources.saxpy_chain

let () =
  let config = { Vpc.Titan.Machine.default_config with procs = 1 } in
  let build vreuse =
    let prog, stats =
      let off = if vreuse then [] else [ `Vreuse ] in
      Vpc.compile ~options:{ Vpc.o3 with Vpc.off; verify = `Each_stage } source
    in
    (Vpc.run_titan ~config ~vreuse prog, stats)
  in
  let r_off, _ = build false in
  let r_on, stats = build true in
  assert (r_on.Vpc.Titan.Machine.stdout_text = r_off.Vpc.Titan.Machine.stdout_text);
  print_string r_on.Vpc.Titan.Machine.stdout_text;
  let v = stats.Vpc.vreuse in
  Printf.printf
    "strip loops shared: %d; Vstores forwarded: %d, Vloads shared: %d\n"
    stats.Vpc.vectorize.strip_loops_shared
    v.Vpc.Transform.Vreuse.stores_forwarded v.loads_shared;
  let cyc (r : Vpc.Titan.Machine.run_result) = r.metrics.cycles in
  Printf.printf
    "reuse off: %d cycles (%d vector elems from memory)\n\
     reuse on:  %d cycles (%d elems served from registers)  %.2fx\n"
    (cyc r_off) r_off.metrics.vector_elems (cyc r_on)
    r_on.metrics.vector_mem_elems_avoided
    (float_of_int (cyc r_off) /. float_of_int (cyc r_on))
