(* Loop fusion on a stencil + residual pair: the two conformable nests
   merge and their stores share one vector strip loop.

     dune exec examples/stencil5.exe *)

let source =
  {|
double in[34][64];
double out[34][64];
double diff[34][64];

int main()
{
  int i, j;
  for (i = 0; i < 34; i = i + 1)
    for (j = 0; j < 64; j = j + 1)
      in[i][j] = (double)(i * i + 3 * j) * 0.5;
  for (i = 1; i < 33; i = i + 1)
    for (j = 1; j < 63; j = j + 1)
      out[i][j] = 0.2 * (in[i][j] + in[i-1][j] + in[i+1][j] + in[i][j-1] + in[i][j+1]);
  for (i = 1; i < 33; i = i + 1)
    for (j = 1; j < 63; j = j + 1)
      diff[i][j] = out[i][j] - in[i][j];
  printf("out[16][32]=%g diff[11][21]=%g\n", out[16][32], diff[11][21]);
  return 0;
}
|}

let () =
  let config = { Vpc.Titan.Machine.default_config with procs = 4 } in
  let compile fuse =
    let off = if fuse then [] else [ `Fuse ] in
    Vpc.compile ~options:{ Vpc.o3 with Vpc.off } source
  in
  let prog_on, stats = compile true in
  let prog_off, _ = compile false in
  Printf.printf "loops fused: %d, strip loops shared: %d\n"
    stats.Vpc.fuse.loops_fused stats.Vpc.vectorize.strip_loops_shared;
  let cycles p = (Vpc.run_titan ~config p).Vpc.Titan.Machine.metrics.cycles in
  let off = cycles prog_off and on = cycles prog_on in
  Printf.printf "separate nests: %d cycles\nfused:          %d cycles (%.2fx)\n"
    off on
    (float_of_int off /. float_of_int on)
