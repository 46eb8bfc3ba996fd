(* Vector-register reuse on a fused chain of saxpy-like passes: the four
   loops share one strip loop after fusion, and the reuse pass forwards
   each Vstore to the Vloads downstream of it, so the chain's
   intermediate values never leave the vector register file.

     dune exec examples/saxpy_chain.exe *)

let source =
  {|
double x[2048];
double y[2048];
double z[2048];
double w[2048];

int main()
{
  int i;
  for (i = 0; i < 2048; i = i + 1)
    x[i] = (double)(3 * i) * 0.125;
  for (i = 0; i < 2048; i = i + 1)
    y[i] = 2.0 * x[i] + 1.0;
  for (i = 0; i < 2048; i = i + 1)
    z[i] = 3.0 * x[i] + y[i];
  for (i = 0; i < 2048; i = i + 1)
    w[i] = z[i] - x[i];
  printf("y[777]=%g z[1024]=%g w[2047]=%g\n", y[777], z[1024], w[2047]);
  return 0;
}
|}

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
