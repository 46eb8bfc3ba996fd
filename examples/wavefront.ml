(* Doacross pipelining of a wavefront update: u[k+64] reads u[k] and
   u[k+1], giving two carried distances (63 and 64).  Redundant-sync
   elimination keeps only the chains the exact-sum coverage rule needs,
   and the nonlinear body overlaps across processors.

     dune exec examples/wavefront.exe *)

let source = Sources.wavefront

let () =
  let config = { Vpc.Titan.Machine.default_config with procs = 4 } in
  let compile doacross_sync =
    let off = if doacross_sync then [] else [ `Doacross_sync ] in
    Vpc.compile ~options:{ Vpc.o2 with Vpc.off } source
  in
  let prog_on, stats = compile true in
  let prog_off, _ = compile false in
  Printf.printf
    "doacross loops pipelined: %d, syncs placed: %d, eliminated: %d\n"
    stats.Vpc.doacross.do_pipelined stats.Vpc.doacross.syncs_placed
    stats.Vpc.doacross.syncs_eliminated;
  let run p = (Vpc.run_titan ~config p).Vpc.Titan.Machine.metrics in
  let off = run prog_off and on = run prog_on in
  Printf.printf
    "serial:    %d cycles\npipelined: %d cycles (%.2fx, posts=%d waits=%d)\n"
    off.Vpc.Titan.Machine.cycles on.Vpc.Titan.Machine.cycles
    (float_of_int off.Vpc.Titan.Machine.cycles
    /. float_of_int on.Vpc.Titan.Machine.cycles)
    on.Vpc.Titan.Machine.posts on.Vpc.Titan.Machine.waits
