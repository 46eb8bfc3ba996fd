(* Loop interchange on matrix multiply: compile with --report wired up to
   see the §7 nest-restructuring decision, then measure both orders.

     dune exec examples/matmul.exe *)

let source = Sources.matmul

let () =
  (* a profile measured on the 4-processor machine tells the cost model
     that parallel vector strips are available, which is what makes the
     reordered nest win; the static model on one processor keeps the
     scalar order *)
  let config = { Vpc.Titan.Machine.default_config with procs = 4 } in
  let profile, _ = Vpc.profile_gen ~config source in
  let compile interchange =
    let options =
      {
        Vpc.o3 with
        Vpc.off = (if interchange then [] else [ `Interchange ]);
        profile = Some profile;
        report =
          (if interchange then
             Some (fun line -> Printf.printf "  [report] %s\n" line)
           else None);
      }
    in
    Vpc.compile ~options source
  in
  print_endline "=== interchange decision (profile measured at procs=4) ===";
  let prog_on, stats = compile true in
  Printf.printf "  nests interchanged: %d\n\n"
    stats.Vpc.interchange.nests_interchanged;
  let prog_off, _ = compile false in
  let cycles p = (Vpc.run_titan ~config p).Vpc.Titan.Machine.metrics.cycles in
  let off = cycles prog_off and on = cycles prog_on in
  Printf.printf "=== 4-processor run ===\n";
  Printf.printf "  source order:      %d cycles\n" off;
  Printf.printf "  interchanged:      %d cycles (%.2fx)\n" on
    (float_of_int off /. float_of_int on)
