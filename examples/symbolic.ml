(* Symbolic range analysis on kernels with parameter-dependent bounds
   and offsets: [shift] and [smooth] write [a[i]] while reading
   [a[i+k]], so the canonical tests see a possible self-dependence —
   unless the seeded interval for [k] (the join over every visible call
   site, all of which pass [k >= n]) pushes the byte distance past the
   Banerjee span.  [scale2]'s trip count [32*m] is an affine form every
   coefficient of which is a multiple of the vector length, so its strip
   loops drop the runtime remainder guard.  Toggling [Vpc.range] shows
   what the analysis buys.

     dune exec examples/symbolic.exe *)

let source = Sources.symbolic

let () =
  let config = { Vpc.Titan.Machine.default_config with procs = 4 } in
  let build range =
    let options =
      {
        Vpc.o2 with
        Vpc.off = (if range then [] else [ `Range ]);
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
    "range off: %d loop(s) vectorized\nrange on:  %d loop(s) vectorized\n"
    s_off.Vpc.vectorize.loops_vectorized s_on.Vpc.vectorize.loops_vectorized;
  assert (s_on.Vpc.vectorize.loops_vectorized > s_off.Vpc.vectorize.loops_vectorized);
  let cyc (r : Vpc.Titan.Machine.run_result) = r.metrics.cycles in
  Printf.printf
    "range off: %7d cycles\nrange on:  %7d cycles  %.2fx\n"
    (cyc r_off) (cyc r_on)
    (float_of_int (cyc r_off) /. float_of_int (cyc r_on));
  assert (cyc r_on < cyc r_off);
  (* without the seeded intervals the tester must assume the regions
     overlap: --why-scalar names the store/load pair it cannot separate *)
  let whys = ref [] in
  let options =
    { Vpc.o2 with Vpc.off = [ `Range ];
      Vpc.why_scalar = Some (fun l -> whys := l :: !whys) }
  in
  ignore (Vpc.compile ~options source);
  List.iter (fun l -> Printf.printf "[why-scalar] %s\n" l)
    (List.filter
       (fun l ->
         let pre p =
           String.length l >= String.length p && String.sub l 0 (String.length p) = p
         in
         pre "shift:" || pre "smooth:")
       (List.rev !whys))
