(* Loop fusion on a stencil + residual pair: the two conformable nests
   merge and their stores share one vector strip loop.

     dune exec examples/stencil5.exe *)

let source = Sources.stencil5

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
