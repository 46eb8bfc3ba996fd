(* Graphics workloads (the Titan's reason for existing, §2): 4x4 matrix
   transforms over a vertex list — the Doré-style code §5.2 and §10 talk
   about.  Two things to see here:

   - the inner 4-element loops have a known tiny trip count, so the
     vectorizer emits bare short-vector operations with NO strip loop
     ("knowing that the vector length in such loops is small enough that
     a strip loop is not required is very important", §5.2);
   - the per-vertex loop over a struct-of-arrays layout vectorizes and
     spreads across processors.

     dune exec examples/graphics.exe *)

let source = Sources.graphics

let () =
  let prog, stats = Vpc.compile ~options:Vpc.o3 source in
  print_endline "=== transform_one: short vectors, no strip loop ===";
  print_string
    (Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "transform_one"));
  Printf.printf "\nshort-vector loops (no strip loop emitted): %d\n"
    stats.vectorize.short_vector_loops;
  Printf.printf "loops vectorized: %d, parallelized: %d\n\n"
    stats.vectorize.loops_vectorized stats.vectorize.loops_parallelized;
  List.iter
    (fun procs ->
      let config = { Vpc.Titan.Machine.default_config with procs } in
      let r = Vpc.run_titan ~config prog in
      Printf.printf "procs=%d: cycles=%d  %.2f MFLOPS   %s" procs
        r.metrics.cycles r.mflops_rate r.stdout_text)
    [ 1; 2; 4 ];
  (* scalar baseline *)
  let scalar, _ = Vpc.compile ~options:Vpc.o0 source in
  let r =
    Vpc.run_titan
      ~config:
        { Vpc.Titan.Machine.default_config with
          sched = Vpc.Titan.Machine.Sequential }
      scalar
  in
  Printf.printf "scalar : cycles=%d  %.2f MFLOPS   %s" r.metrics.cycles
    r.mflops_rate r.stdout_text
