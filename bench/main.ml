(* The experiment harness: regenerates every quantitative claim and worked
   example in the paper's evaluation (the paper has no numbered tables or
   figures; EXPERIMENTS.md indexes the claims as E1-E10).

     dune exec bench/main.exe             -- all experiment tables
     dune exec bench/main.exe E2 E8       -- selected experiments
     dune exec bench/main.exe bechamel    -- compile-time measurements

   Absolute cycle counts come from the Titan simulator's timing model; the
   *shapes* (who wins, by what factor) are the reproduction targets. *)

let section id title paper_claim =
  Printf.printf "\n==== %s: %s\n" id title;
  Printf.printf "     paper: %s\n\n" paper_claim

let compile options src = fst (Vpc.compile ~options src)

let machine ?(procs = 1) ?(sched = Vpc.Titan.Machine.Overlap_full) () =
  { Vpc.Titan.Machine.default_config with procs; sched }

let run ?procs ?sched ?entry ?args prog =
  Vpc.run_titan ~config:(machine ?procs ?sched ()) ?entry ?args prog

let row fmt = Printf.printf fmt

(* --json OUT support: every [record]ed run lands in a machine-readable
   table keyed by experiment id. *)
let json_results : (string * string) list ref = ref []

let record id ?(procs = 1) ?(sched = Vpc.Titan.Machine.Overlap_full)
    (r : Vpc.Titan.Machine.run_result) =
  json_results :=
    ( id,
      Printf.sprintf
        "{\"cycles\": %d, \"mflops\": %.3f, \"procs\": %d, \"sched\": \"%s\", \
         \"mem_ops\": %d, \"vector_mem_elems_avoided\": %d, \"busy_iu\": %d, \
         \"busy_fpu\": %d, \"busy_mem\": %d, \"posts\": %d, \"waits\": %d, \
         \"post_wait_stalls\": %d}"
        r.metrics.cycles r.mflops_rate procs
        (Vpc.Titan.Machine.sched_name sched)
        r.metrics.mem_ops r.metrics.vector_mem_elems_avoided r.metrics.busy_iu
        r.metrics.busy_fpu r.metrics.busy_mem r.metrics.posts r.metrics.waits
        r.metrics.post_wait_stalls )
    :: !json_results

let write_json path =
  let oc = open_out path in
  output_string oc "{\n  \"pr\": 9,\n  \"results\": {\n";
  let entries = List.rev !json_results in
  let last = List.length entries - 1 in
  List.iteri
    (fun i (id, item) ->
      Printf.fprintf oc "    \"%s\": %s%s\n" id item (if i = last then "" else ","))
    entries;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "\njson results written to %s\n" path

(* ----------------------------------------------------------------- *)
(* E1: §6 backsolve — dependence-driven scalar optimization          *)
(* ----------------------------------------------------------------- *)

let e1 () =
  section "E1" "backsolve loop (§6)"
    "0.5 MFLOPS scalar -> 1.9 MFLOPS with dependence-driven optimization \
     (3.8x, within 5% of best possible)";
  let src = Workloads.backsolve 2000 in
  let bench name options sched =
    let prog = compile options src in
    let r =
      run ~sched ~entry:"backsolve" ~args:[ Vpc.Titan.Machine.Vi 2000 ] prog
    in
    record ("E1/" ^ name) ~sched r;
    row "  %-34s %9d cycles  %5.2f MFLOPS\n" name r.metrics.cycles
      r.mflops_rate;
    r
  in
  let naive =
    bench "scalar only (sequential issue)" Vpc.o0 Vpc.Titan.Machine.Sequential
  in
  ignore
    (bench "scalar + unit overlap, no dep info" Vpc.o0
       Vpc.Titan.Machine.Overlap_conservative);
  ignore
    (bench "classic scalar opt (O1)" Vpc.o1
       Vpc.Titan.Machine.Overlap_conservative);
  let opt =
    bench "dependence-driven (O3 + full)" Vpc.o3 Vpc.Titan.Machine.Overlap_full
  in
  row "  -> measured speedup %.2fx (paper 3.8x)\n"
    (float_of_int naive.metrics.cycles /. float_of_int opt.metrics.cycles)

(* ----------------------------------------------------------------- *)
(* E2: §9 daxpy — inline + vectorize + parallelize                   *)
(* ----------------------------------------------------------------- *)

let e2 () =
  section "E2" "inlined daxpy (§9)"
    "the vectorized, two-processor compilation runs 12x faster than the \
     scalar version of the same routine";
  let src = Workloads.daxpy 1024 in
  let scalar = compile Vpc.o0 src in
  let opt = compile Vpc.o3 src in
  let r_scalar = run ~sched:Vpc.Titan.Machine.Sequential scalar in
  record "E2/scalar O0 sequential" ~sched:Vpc.Titan.Machine.Sequential r_scalar;
  row "  %-34s %9d cycles  %5.2f MFLOPS\n" "scalar (O0, sequential)"
    r_scalar.metrics.cycles r_scalar.mflops_rate;
  List.iter
    (fun procs ->
      let r = run ~procs opt in
      record (Printf.sprintf "E2/inlined+vector procs=%d" procs) ~procs r;
      row "  %-34s %9d cycles  %5.2f MFLOPS  speedup %5.1fx\n"
        (Printf.sprintf "inlined+vector, %d processor(s)" procs)
        r.metrics.cycles r.mflops_rate
        (float_of_int r_scalar.metrics.cycles /. float_of_int r.metrics.cycles))
    [ 1; 2; 4 ]

(* ----------------------------------------------------------------- *)
(* E3: §9 pipeline stages                                            *)
(* ----------------------------------------------------------------- *)

let e3 () =
  section "E3" "daxpy intermediate forms (§9)"
    "inlined IL -> IV substitution + while->DO -> constant propagation + \
     dead code -> do-parallel vector loop";
  let stages = ref [] in
  let dump stage text = stages := (stage, text) :: !stages in
  let options = { Vpc.o3 with Vpc.dump = Some dump } in
  ignore (Vpc.compile ~options (Workloads.daxpy 100));
  List.iter
    (fun (stage, text) ->
      if stage = "inline" || stage = "final" then begin
        Printf.printf "  --- after %s ---\n" stage;
        let lines = String.split_on_char '\n' text in
        let in_main = ref false in
        List.iter
          (fun l ->
            if l = "int main()" then in_main := true;
            if !in_main then Printf.printf "  %s\n" l;
            if !in_main && l = "}" then in_main := false)
          lines
      end)
    (List.rev !stages)

(* ----------------------------------------------------------------- *)
(* E4: §5.2 while→DO conversion matrix                               *)
(* ----------------------------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let e4 () =
  section "E4" "while->DO conversion (§5.2)"
    "conversion succeeds exactly when bounds/strides are invariant and no \
     branch enters or leaves the loop";
  let ok = ref true in
  List.iter
    (fun (name, src, expect) ->
      let prog = compile { Vpc.o1 with Vpc.off = [ `Strength_reduction ] } src in
      let il = Vpc.Il.Pp.prog_to_string prog in
      let converted = contains ~needle:"do fortran" il in
      if converted <> expect then ok := false;
      row "  %-28s expected %-9s got %-9s %s\n" name
        (if expect then "convert" else "reject")
        (if converted then "convert" else "reject")
        (if converted = expect then "ok" else "MISMATCH"))
    Workloads.conversion_cases;
  row "  -> %s\n" (if !ok then "all cases as predicted" else "MISMATCHES above")

(* ----------------------------------------------------------------- *)
(* E5: §5.3 induction-variable substitution backtracking             *)
(* ----------------------------------------------------------------- *)

let e5 () =
  section "E5" "IV substitution backtracking (§5.3)"
    "worst case n passes over a loop; in practice the average case is the \
     same single pass as the straightforward algorithm";
  row "  %-12s %-8s %-8s %-14s\n" "chain depth" "IVs" "passes" "blocked events";
  List.iter
    (fun depth ->
      let prog = Vpc.parse (Workloads.chain_program depth) in
      List.iter
        (fun f -> ignore (Vpc.Transform.While_to_do.run prog f))
        prog.Vpc.Il.Prog.funcs;
      let stats = Vpc.Transform.Indvar.new_stats () in
      List.iter
        (fun f -> ignore (Vpc.Transform.Indvar.run ~stats prog f))
        prog.Vpc.Il.Prog.funcs;
      row "  %-12d %-8d %-8d %-14d\n" depth stats.ivs_found
        stats.max_passes_one_loop stats.blocked_events)
    [ 0; 1; 2; 4; 8; 16 ];
  row "\n  interleaved chains (recognition of p_j blocks on p_j-1):\n";
  row "  %-12s %-8s %-8s %-14s\n" "chain depth" "IVs" "passes" "blocked events";
  List.iter
    (fun depth ->
      let prog = Vpc.parse (Workloads.blocking_chain_program depth) in
      List.iter
        (fun f -> ignore (Vpc.Transform.While_to_do.run prog f))
        prog.Vpc.Il.Prog.funcs;
      let stats = Vpc.Transform.Indvar.new_stats () in
      List.iter
        (fun f -> ignore (Vpc.Transform.Indvar.run ~stats prog f))
        prog.Vpc.Il.Prog.funcs;
      row "  %-12d %-8d %-8d %-14d\n" depth stats.ivs_found
        stats.max_passes_one_loop stats.blocked_events)
    [ 1; 2; 4; 8; 16 ]

(* ----------------------------------------------------------------- *)
(* E6: §8 unreachable code after inlining                            *)
(* ----------------------------------------------------------------- *)

let e6 () =
  section "E6" "constant propagation + unreachable code (§8)"
    "daxpy(alpha = 0): constant propagation must reveal the inlined body \
     as unreachable and remove it";
  let count_stmts prog name =
    List.length (Vpc.Il.Func.all_stmts (Vpc.Il.Prog.func_exn prog name))
  in
  let no_opt =
    compile { Vpc.o3 with Vpc.off = [ `Scalar_opt ] } Workloads.dead_daxpy
  in
  let opt_prog, stats = Vpc.compile ~options:Vpc.o3 Workloads.dead_daxpy in
  row "  main after inlining, before cleanup: %3d statements\n"
    (count_stmts no_opt "main");
  row "  main after constant propagation:     %3d statements\n"
    (count_stmts opt_prog "main");
  row "  branches folded: %d, statements removed as unreachable: %d\n"
    stats.const_prop.branches_folded
    (stats.const_prop.stmts_removed + stats.unreachable.removed)

(* ----------------------------------------------------------------- *)
(* E7: §1/§7 inlining enables vectorization                          *)
(* ----------------------------------------------------------------- *)

let e7 () =
  section "E7" "inlining x vectorization (§1, §7)"
    "function calls generally inhibit vectorization of any loop containing \
     them; inlining removes the barrier and the call overhead";
  let bench name options =
    let prog, stats = Vpc.compile ~options Workloads.call_in_loop_suite in
    let r = run prog in
    row "  %-22s loops vectorized %d/4   %8d cycles   calls at runtime %d\n"
      name stats.vectorize.loops_vectorized r.metrics.cycles r.metrics.calls;
    r
  in
  let without = bench "without inlining" Vpc.o2 in
  let with_ = bench "with inlining" Vpc.o3 in
  row "  -> inlining speedup %.1fx\n"
    (float_of_int without.metrics.cycles /. float_of_int with_.metrics.cycles)

(* ----------------------------------------------------------------- *)
(* E8: §2/§9 parallel scaling                                        *)
(* ----------------------------------------------------------------- *)

let e8 () =
  section "E8" "multiprocessor scaling (§2, §9)"
    "spreading loop iterations among multiple processors can provide \
     significant speedups; the Titan has up to four processors";
  row "  %-8s %22s %22s %22s\n" "n" "procs=1" "procs=2" "procs=4";
  List.iter
    (fun n ->
      let src = Workloads.vector_add n in
      let prog = compile Vpc.o2 src in
      let base = ref 0 in
      row "  %-8d" n;
      List.iter
        (fun procs ->
          let r = run ~procs prog in
          if procs = 1 then base := r.metrics.cycles;
          row " %14d (%4.2fx)" r.metrics.cycles
            (float_of_int !base /. float_of_int r.metrics.cycles))
        [ 1; 2; 4 ];
      row "\n")
    [ 128; 512; 2048; 8192 ]

(* ----------------------------------------------------------------- *)
(* E9: §6 dependence-driven instruction scheduling                   *)
(* ----------------------------------------------------------------- *)

let e9 () =
  section "E9" "overlap scheduling (§6)"
    "dependence information passed to code generation allows overlap of \
     integer/floating/memory work — speedups without any vector hardware";
  row "  %-20s %-12s %-14s %-10s\n" "kernel" "sequential" "conservative" "full";
  List.iter
    (fun (name, src, entry, args) ->
      (* dependence-driven scalar optimization without vectorization: the
         compiler's analysis is what licenses the full-overlap schedule *)
      let prog =
        compile { Vpc.o2 with Vpc.off = [ `Vectorize; `Parallelize ] } src
      in
      let cycles sched = (run ~sched ?entry ?args prog).metrics.cycles in
      let s = cycles Vpc.Titan.Machine.Sequential in
      let c = cycles Vpc.Titan.Machine.Overlap_conservative in
      let f = cycles Vpc.Titan.Machine.Overlap_full in
      row "  %-20s %-12d %-14d %-10d (%.2fx)\n" name s c f
        (float_of_int s /. float_of_int f))
    [
      ( "backsolve n=2000",
        Workloads.backsolve 2000,
        Some "backsolve",
        Some [ Vpc.Titan.Machine.Vi 2000 ] );
      ("daxpy n=1024", Workloads.daxpy 1024, None, None);
    ]

(* ----------------------------------------------------------------- *)
(* E10: §10 extensions                                               *)
(* ----------------------------------------------------------------- *)

let e10 () =
  section "E10" "extensions (§10)"
    "arrays embedded within structures must vectorize (the Dore \
     deficiency); pointer-chasing loops are the future-work case";
  let prog, stats = Vpc.compile ~options:Vpc.o3 Workloads.struct_arrays in
  let r = run prog in
  row "  struct-embedded arrays: %d loop(s) vectorized, %d cycles\n"
    stats.vectorize.loops_vectorized r.metrics.cycles;
  let scalar = compile Vpc.o0 Workloads.struct_arrays in
  let rs = run ~sched:Vpc.Titan.Machine.Sequential scalar in
  row "  scalar baseline:        %d cycles (speedup %.1fx)\n" rs.metrics.cycles
    (float_of_int rs.metrics.cycles /. float_of_int r.metrics.cycles);
  let lprog, lstats =
    Vpc.compile ~options:Vpc.o3 (Workloads.list_walk ~pragma:true)
  in
  row "  list walk (doacross, §10's future work): %d loop(s) transformed\n"
    lstats.doacross.loops_transformed;
  let lbase =
    compile Vpc.o3 (Workloads.list_walk ~pragma:false)
  in
  let base_cycles = (run lbase).metrics.cycles in
  row "    %-22s %8d cycles\n" "sequential" base_cycles;
  List.iter
    (fun procs ->
      let lr = run ~procs lprog in
      row "    %-22s %8d cycles (%.2fx)\n"
        (Printf.sprintf "doacross, %d procs" procs)
        lr.metrics.cycles
        (float_of_int base_cycles /. float_of_int lr.metrics.cycles))
    [ 1; 2; 4 ]

(* ----------------------------------------------------------------- *)
(* Ablations: the design choices DESIGN.md calls out                 *)
(* ----------------------------------------------------------------- *)

(* A1: the vector strip length (the paper uses 32). *)
let a1 () =
  section "A1" "strip length ablation"
    "the Titan's vector registers can be viewed as four vectors of length \
     2048 or 8196 scalars; the compiler strips at 32";
  let src = Workloads.vector_add 4096 in
  row "  %-8s %-26s %-10s\n" "vlen" "cycles (1 proc)" "(2 procs)";
  List.iter
    (fun vlen ->
      let prog = compile { Vpc.o2 with Vpc.vlen } src in
      let c1 = (run ~procs:1 prog).metrics.cycles in
      let c2 = (run ~procs:2 prog).metrics.cycles in
      row "  %-8d %-26d %-10d\n" vlen c1 c2)
    [ 8; 16; 32; 64; 128; 512 ]

(* A2: the aliasing escape hatches on pointer-parameter loops. *)
let a2 () =
  section "A2" "aliasing ablation"
    "C imposes no constraints on argument aliasing; vectorization of \
     pointer loops needs inlining, the pragma, or the Fortran-semantics \
     option";
  let src =
    "void f(float *x, float *y, int n) {\n\
    \  int i;\n\
    \  for (i = 0; i < n; i++) x[i] = y[i] * 2.0f + 1.0f;\n\
     }\n\
     float a[2048], b[2048];\n\
     int main() { f(a, b, 2048); return 0; }"
  in
  List.iter
    (fun (name, options) ->
      let prog, stats = Vpc.compile ~options src in
      let r = run ~procs:2 prog in
      row "  %-34s vectorized=%d  %8d cycles\n" name
        stats.vectorize.loops_vectorized r.metrics.cycles)
    [
      ("conservative (may-alias)",
       { Vpc.o2 with Vpc.off = [ `Pointsto ] });
      ("--noalias option",
       { Vpc.o2 with Vpc.off = [ `Pointsto ]; assume_noalias = true });
      ("points-to proves disjointness",
       Vpc.o2);
      ("inlining exposes the arrays", Vpc.o3);
    ]

(* A3: the automatic-inlining size threshold. *)
let a3 () =
  section "A3" "inline size threshold ablation"
    "automatic inlining needs a size cutoff; the §2 goal is cheap calls \
     to small library routines";
  let src = Workloads.call_in_loop_suite in
  List.iter
    (fun max_stmts ->
      let stats = Vpc.new_stats () in
      let prog = Vpc.parse src in
      Vpc.Inline.Inline.expand ~max_callee_stmts:max_stmts ~stats:stats.inline
        (Vpc.decide Vpc.o2) prog;
      ignore (Vpc.optimize ~options:Vpc.o2 ~stats prog);
      let r = run prog in
      row "  max callee stmts %-6d inlined=%d  vectorized=%d/4  %8d cycles\n"
        max_stmts stats.inline.calls_inlined stats.vectorize.loops_vectorized
        r.metrics.cycles)
    [ 0; 2; 10; 200 ]

(* A4: the parallel-loop barrier cost determines the crossover size. *)
let a4 () =
  section "A4" "parallel crossover"
    "spreading iterations pays only past the synchronization cost: small \
     loops should not slow down with more processors by much";
  row "  %-8s %-22s %-22s\n" "n" "1 proc" "4 procs";
  List.iter
    (fun n ->
      let prog = compile Vpc.o2 (Workloads.vector_add n) in
      let c1 = (run ~procs:1 prog).metrics.cycles in
      let c4 = (run ~procs:4 prog).metrics.cycles in
      row "  %-8d %-22d %-22d %s\n" n c1 c4
        (if c4 <= c1 then "(parallel wins)" else "(barrier dominates)"))
    [ 8; 32; 64; 128; 1024 ]

(* ----------------------------------------------------------------- *)
(* PGO: profile-guided optimization (lib/profile)                    *)
(* ----------------------------------------------------------------- *)

let pgo_exp () =
  section "PGO" "profile-guided optimization (lib/profile)"
    "a measured profile corrects the static cost guesses: loops the run \
     proved short stay scalar, calls the run proved cold stay calls, and \
     PGO never loses to the static compilation";
  row "  %-22s %-30s %-40s\n" "" "static" "profile-guided";
  let case name ~procs ~options src =
    let cfg = machine ~procs () in
    let sprog, ss = Vpc.compile ~options src in
    let sr = Vpc.run_titan ~config:cfg sprog in
    let data, _ = Vpc.profile_gen ~config:cfg src in
    let pprog, ps =
      Vpc.compile ~options:{ options with Vpc.profile = Some data } src
    in
    let pr = Vpc.run_titan ~config:cfg pprog in
    record (Printf.sprintf "PGO/%s/static" name) ~procs sr;
    record (Printf.sprintf "PGO/%s/pgo" name) ~procs pr;
    row
      "  %-22s vec=%d par=%d inl=%d %8d cyc | vec=%d par=%d inl=%d cold=%d \
       %8d cyc  %s\n"
      name ss.Vpc.vectorize.loops_vectorized ss.vectorize.loops_parallelized
      ss.inline.calls_inlined sr.metrics.cycles
      ps.Vpc.vectorize.loops_vectorized ps.vectorize.loops_parallelized
      ps.inline.calls_inlined ps.inline.calls_skipped_cold pr.metrics.cycles
      (if pr.metrics.cycles < sr.metrics.cycles then "(pgo wins)"
       else if pr.metrics.cycles = sr.metrics.cycles then "(tie)"
       else "(PGO LOSES)")
  in
  case "short-trip n=4" ~procs:2
    ~options:{ Vpc.o2 with Vpc.assume_noalias = true }
    (Workloads.param_trip_kernel ~trips:4 ~calls:50);
  case "mid-trip n=128" ~procs:2
    ~options:{ Vpc.o2 with Vpc.assume_noalias = true }
    (Workloads.param_trip_kernel ~trips:128 ~calls:50);
  case "backsolve+cold call" ~procs:1 ~options:Vpc.o3
    (Workloads.backsolve_cold 2000)

(* ----------------------------------------------------------------- *)
(* NEST: loop-nest restructuring (interchange + fusion, §7)          *)
(* ----------------------------------------------------------------- *)

let nest_exp () =
  section "NEST" "loop-nest restructuring (§7)"
    "direction-vector dependence licenses interchange and fusion; the \
     cost model applies them only where the Titan wins (matmul reordered, \
     stencil passes fused into one strip loop, transpose's nest order \
     kept because either order has one long-stride reference)";
  row "  %-14s %-6s %-28s %-28s\n" "kernel" "procs" "passes off" "passes on";
  let case name src ~procs =
    (* both sides get the same two-pass PGO treatment at this machine
       configuration, and every stage is verified (--verify-il) *)
    let cfg = machine ~procs () in
    let data, _ = Vpc.profile_gen ~config:cfg src in
    let opts on =
      {
        Vpc.o3 with
        Vpc.off = (if on then [] else [ `Interchange; `Fuse ]);
        profile = Some data;
        verify = `Each_stage;
      }
    in
    let build on =
      let prog, stats = Vpc.compile ~options:(opts on) src in
      ( Vpc.run_titan ~config:cfg ~vreuse:(Vpc.enabled (opts on) `Vreuse) prog,
        stats )
    in
    let r_off, _ = build false in
    let r_on, s_on = build true in
    if r_on.stdout_text <> r_off.stdout_text then
      failwith (Printf.sprintf "NEST/%s: output mismatch passes on vs off" name);
    record (Printf.sprintf "NEST/%s/procs=%d/off" name procs) ~procs r_off;
    record (Printf.sprintf "NEST/%s/procs=%d/on" name procs) ~procs r_on;
    row "  %-14s %-6d %12d cycles %12d cycles  ic=%d fu=%d sh=%d  %s\n" name
      procs r_off.metrics.cycles r_on.metrics.cycles
      s_on.Vpc.interchange.nests_interchanged s_on.fuse.loops_fused
      s_on.vectorize.strip_loops_shared
      (if r_on.metrics.cycles < r_off.metrics.cycles then "(restructured wins)"
       else if r_on.metrics.cycles = r_off.metrics.cycles then "(tie)"
       else "(LOSES)")
  in
  let kernels =
    [
      ("matmul-ijk", Workloads.matmul ~order:`Ijk ~n:48 ~k:96 ~m:96);
      ("matmul-ikj", Workloads.matmul ~order:`Ikj ~n:48 ~k:96 ~m:96);
      ("stencil5", Workloads.stencil5 ~n:66 ~m:128);
      ("transpose", Workloads.transpose ~n:64 ~m:128);
    ]
  in
  List.iter
    (fun (name, src) ->
      List.iter (fun procs -> case name src ~procs) [ 1; 2; 4 ])
    kernels

(* ----------------------------------------------------------------- *)
(* REUSE: vector-register reuse across strips                        *)
(* ----------------------------------------------------------------- *)

let reuse_exp () =
  section "REUSE" "vector-register reuse"
    "with the memory port the bottleneck, keeping sections resident in \
     vector registers (accumulators across strips, store->load \
     forwarding within fused strip bodies) removes the redundant Vload \
     and Vstore traffic; both sides get the same two-pass PGO treatment \
     and the outputs are cross-checked";
  row "  %-14s %-6s %-14s %-14s %-12s\n" "kernel" "procs" "reuse off"
    "reuse on" "elems avoided";
  let case name src ~procs =
    let cfg = machine ~procs () in
    let data, _ = Vpc.profile_gen ~config:cfg src in
    let build vreuse =
      let opts =
        {
          Vpc.o3 with
          Vpc.off = (if vreuse then [] else [ `Vreuse ]);
          profile = Some data;
          verify = `Each_stage;
        }
      in
      let prog, stats = Vpc.compile ~options:opts src in
      (Vpc.run_titan ~config:cfg ~vreuse prog, stats)
    in
    let r_off, _ = build false in
    let r_on, s_on = build true in
    if r_on.stdout_text <> r_off.stdout_text then
      failwith (Printf.sprintf "REUSE/%s: output mismatch reuse on vs off" name);
    record (Printf.sprintf "REUSE/%s/procs=%d/off" name procs) ~procs r_off;
    record (Printf.sprintf "REUSE/%s/procs=%d/on" name procs) ~procs r_on;
    row "  %-14s %-6d %8d cyc   %8d cyc   %10d  acc=%d fwd=%d  %s\n" name procs
      r_off.metrics.cycles r_on.metrics.cycles
      r_on.metrics.vector_mem_elems_avoided
      s_on.Vpc.vreuse.accumulators_localized s_on.vreuse.stores_forwarded
      (if r_on.metrics.cycles < r_off.metrics.cycles then "(reuse wins)"
       else if r_on.metrics.cycles = r_off.metrics.cycles then "(tie)"
       else "(LOSES)")
  in
  let kernels =
    [
      ("matmul-ijk", Workloads.matmul ~order:`Ijk ~n:48 ~k:96 ~m:96);
      ("matmul-ikj", Workloads.matmul ~order:`Ikj ~n:48 ~k:96 ~m:96);
      ("saxpy-chain", Workloads.saxpy_chain ~n:2048);
    ]
  in
  List.iter
    (fun (name, src) ->
      List.iter (fun procs -> case name src ~procs) [ 1; 2; 4 ])
    kernels

(* ----------------------------------------------------------------- *)
(* PTR: interprocedural points-to and mod/ref (lib/pointsto)         *)
(* ----------------------------------------------------------------- *)

let ptr_exp () =
  section "PTR" "interprocedural points-to (lib/pointsto)"
    "pointer-parameter kernels vectorize with no pragma, no --noalias, \
     and no inlining once the whole-program analysis proves every call \
     site's arguments disjoint; both sides verify the IL between every \
     stage and the outputs are cross-checked";
  row "  %-14s %-6s %-16s %-16s %-10s\n" "kernel" "procs" "pointsto off"
    "pointsto on" "vec off/on";
  let case name src ~procs =
    let cfg = machine ~procs () in
    let build pointsto =
      let opts =
        {
          Vpc.o2 with
          Vpc.off = (if pointsto then [] else [ `Pointsto ]);
          verify = `Each_stage;
        }
      in
      let prog, stats = Vpc.compile ~options:opts src in
      (Vpc.run_titan ~config:cfg prog, stats)
    in
    let r_off, s_off = build false in
    let r_on, s_on = build true in
    if r_on.stdout_text <> r_off.stdout_text then
      failwith
        (Printf.sprintf "PTR/%s: output mismatch pointsto on vs off" name);
    record (Printf.sprintf "PTR/%s/procs=%d/off" name procs) ~procs r_off;
    record (Printf.sprintf "PTR/%s/procs=%d/on" name procs) ~procs r_on;
    row "  %-14s %-6d %10d cyc   %10d cyc   %d/%d  %s\n" name procs
      r_off.metrics.cycles r_on.metrics.cycles
      s_off.Vpc.vectorize.loops_vectorized s_on.Vpc.vectorize.loops_vectorized
      (if r_on.metrics.cycles < r_off.metrics.cycles then "(pointsto wins)"
       else if r_on.metrics.cycles = r_off.metrics.cycles then "(tie)"
       else "(LOSES)")
  in
  List.iter
    (fun (name, src) ->
      List.iter (fun procs -> case name src ~procs) [ 1; 2; 4 ])
    [
      ("ptrkernels", Workloads.ptrkernels ~n:1024);
      ("ptrkernels-4k", Workloads.ptrkernels ~n:4096);
    ]

(* ----------------------------------------------------------------- *)
(* RANGE: symbolic value ranges and scalar evolutions (lib/range)    *)
(* ----------------------------------------------------------------- *)

let range_exp () =
  section "RANGE" "symbolic range analysis (lib/range)"
    "kernels whose bounds and offsets are parameters vectorize once the \
     seeded intervals push the symbolic byte distances past the Banerjee \
     span, and 32*m trip counts drop the strip-loop remainder guards; \
     both sides verify the IL between every stage and the outputs are \
     cross-checked";
  row "  %-14s %-6s %-16s %-16s %-10s\n" "kernel" "procs" "range off"
    "range on" "vec off/on";
  let case name src ~procs =
    let cfg = machine ~procs () in
    let build range =
      let opts =
        {
          Vpc.o2 with
          Vpc.off = (if range then [] else [ `Range ]);
          verify = `Each_stage;
        }
      in
      let prog, stats = Vpc.compile ~options:opts src in
      (Vpc.run_titan ~config:cfg prog, stats)
    in
    let r_off, s_off = build false in
    let r_on, s_on = build true in
    if r_on.stdout_text <> r_off.stdout_text then
      failwith
        (Printf.sprintf "RANGE/%s: output mismatch range on vs off" name);
    record (Printf.sprintf "RANGE/%s/procs=%d/off" name procs) ~procs r_off;
    record (Printf.sprintf "RANGE/%s/procs=%d/on" name procs) ~procs r_on;
    row "  %-14s %-6d %10d cyc   %10d cyc   %d/%d  %s\n" name procs
      r_off.metrics.cycles r_on.metrics.cycles
      s_off.Vpc.vectorize.loops_vectorized s_on.Vpc.vectorize.loops_vectorized
      (if r_on.metrics.cycles < r_off.metrics.cycles then "(range wins)"
       else if r_on.metrics.cycles = r_off.metrics.cycles then "(tie)"
       else "(LOSES)")
  in
  List.iter
    (fun (name, src) ->
      List.iter (fun procs -> case name src ~procs) [ 1; 2; 4 ])
    [
      ("symbolic", Workloads.symbolic ~n:1024);
      ("symbolic-4k", Workloads.symbolic ~n:4096);
    ]

(* ----------------------------------------------------------------- *)
(* DOACROSS: post/wait pipelining of carried-dependence loops         *)
(* ----------------------------------------------------------------- *)

let doacross_exp () =
  section "DOACROSS" "post/wait pipelining (carried-dependence DO loops)"
    "loops whose carried dependences have constant distance pipeline \
     across processors with post/wait counters; the win at 4 processors \
     must be at least 1.5x with identical output, and turning the pass \
     off must leave a plain serial loop";
  row "  %-14s %-6s %12s %12s %8s %8s\n" "workload" "procs" "serial cyc"
    "pipelined" "ratio" "stalls";
  let case name src ~procs =
    let build sync =
      Vpc.compile
        ~options:
          { Vpc.o2 with Vpc.off = (if sync then [] else [ `Doacross_sync ]) }
        src
    in
    let prog_off, _ = build false in
    let prog_on, s_on = build true in
    let r_off = run ~procs prog_off in
    let r_on = run ~procs prog_on in
    if r_on.stdout_text <> r_off.stdout_text then
      failwith
        (Printf.sprintf "DOACROSS/%s: output mismatch sync on vs off" name);
    if s_on.Vpc.doacross.do_pipelined < 1 then
      failwith (Printf.sprintf "DOACROSS/%s: loop did not pipeline" name);
    record (Printf.sprintf "DOACROSS/%s/procs=%d/off" name procs) ~procs r_off;
    record (Printf.sprintf "DOACROSS/%s/procs=%d/on" name procs) ~procs r_on;
    let ratio =
      float_of_int r_off.metrics.cycles /. float_of_int r_on.metrics.cycles
    in
    row "  %-14s %-6d %12d %12d %7.2fx %8d\n" name procs r_off.metrics.cycles
      r_on.metrics.cycles ratio r_on.metrics.post_wait_stalls;
    if procs = 4 && ratio < 1.5 then
      failwith
        (Printf.sprintf "DOACROSS/%s: %.2fx at 4 procs, floor is 1.5x" name
           ratio)
  in
  List.iter
    (fun (name, src) ->
      List.iter (fun procs -> case name src ~procs) [ 1; 2; 4 ])
    [
      ("recurrence", Workloads.doacross_recurrence);
      ("wavefront", Workloads.doacross_wavefront);
    ]

(* ----------------------------------------------------------------- *)
(* TUNE: simulator-in-the-loop autotuning (titancc --tune)           *)
(* ----------------------------------------------------------------- *)

let tune_exp () =
  section "TUNE" "simulator-in-the-loop autotuning (--tune / --tune-use)"
    "searching the joint per-nest space with the simulator as the oracle \
     must never lose to the static pipeline, must win at least 5% of \
     cycles on at least two workloads, and replaying the stored winners \
     must reproduce the searched cycle count exactly";
  row "  %-14s %12s %12s %8s  %s\n" "workload" "static cyc" "tuned" "gain"
    "evals";
  let procs = 4 in
  let config = machine ~procs () in
  let wins = ref 0 in
  let case name src =
    let options = Vpc.o3 in
    let tr = Vpc.tune ~options ~config ~budget:4 ~stamp:1 src in
    (* replay through the store exactly as --tune-use would: the search
       result must be reproducible from the persisted winners alone *)
    let tuned_prog =
      compile { options with Vpc.tune = `Use tr.Vpc.tuned } src
    in
    let static_prog = compile options src in
    let r_static = run ~procs static_prog in
    let r_tuned = run ~procs tuned_prog in
    if r_tuned.stdout_text <> r_static.stdout_text then
      failwith (Printf.sprintf "TUNE/%s: output mismatch tuned vs static" name);
    if r_tuned.metrics.cycles > r_static.metrics.cycles then
      failwith
        (Printf.sprintf "TUNE/%s: tuned %d cycles > static %d" name
           r_tuned.metrics.cycles r_static.metrics.cycles);
    if r_tuned.metrics.cycles <> tr.Vpc.tuned_cycles then
      failwith
        (Printf.sprintf "TUNE/%s: replay gave %d cycles, search found %d"
           name r_tuned.metrics.cycles tr.Vpc.tuned_cycles);
    record (Printf.sprintf "TUNE/%s/static" name) ~procs r_static;
    record (Printf.sprintf "TUNE/%s/tuned" name) ~procs r_tuned;
    let gain =
      100.0
      *. float_of_int (r_static.metrics.cycles - r_tuned.metrics.cycles)
      /. float_of_int (max 1 r_static.metrics.cycles)
    in
    if gain >= 5.0 then incr wins;
    row "  %-14s %12d %12d %7.1f%%  %d\n" name r_static.metrics.cycles
      r_tuned.metrics.cycles gain tr.Vpc.tune_stats.Vpc.Tune.Search.evaluated
  in
  case "saxpy_chain" (Workloads.saxpy_chain ~n:512);
  case "stencil5" (Workloads.stencil5 ~n:24 ~m:24);
  case "transpose" (Workloads.transpose ~n:32 ~m:32);
  case "backsolve" (Workloads.backsolve 600);
  if !wins < 2 then
    failwith
      (Printf.sprintf "TUNE: only %d workload(s) won >= 5%%, floor is 2" !wins)

(* ----------------------------------------------------------------- *)
(* MONOREPO: the compile service and its procedure cache (lib/server)*)
(* ----------------------------------------------------------------- *)

(* Unlike the cycle-count experiments, the gated metrics here are cache
   miss counts — fully deterministic, so the --compare tolerance never
   bites.  Wall-clock figures (requests/sec, warm-vs-cold speedup) are
   printed for the log and asserted only against the coarse acceptance
   floors. *)
let record_count id n =
  json_results :=
    (id, Printf.sprintf "{\"cycles\": %d, \"unit\": \"count\"}" n)
    :: !json_results

let monorepo_exp () =
  let module S = Vpc_server.Service in
  let module C = Vpc_server.Cache in
  section "MONOREPO"
    "compile service: content-addressed cache + parallel pipelines \
     (lib/server)"
    "compilation as a service over a generated monorepo: an edit-replay \
     session must hit the cache on every untouched component, serve \
     byte-identical artifacts, and beat a cold build by 5x on a one-edit \
     rebuild";
  let n_tus = 120 in
  let edits = Array.make n_tus (0, 0) in
  let req i =
    let leaf_edit, kern_edit = edits.(i) in
    {
      S.req_file = Printf.sprintf "tu%03d.c" i;
      req_src = Workloads.monorepo_tu ~variant:i ~leaf_edit ~kern_edit;
      req_opts = S.default_copts;
    }
  in
  let all_reqs () = List.init n_tus req in
  let elapsed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* cold build: every unit compiles, but identical units dedup *)
  let cache = C.create () in
  let cold, t_cold = elapsed (fun () -> S.compile_batch ~jobs:1 cache (all_reqs ())) in
  let s = C.stats cache in
  let cold_misses = s.C.s_misses in
  row "  cold build:   %d units, %d component probes, %d misses, %.2fs (%.0f req/s)\n"
    n_tus (s.C.s_hits + s.C.s_misses) cold_misses t_cold
    (float_of_int n_tus /. t_cold);
  record_count "MONOREPO/cold/misses" cold_misses;
  (* content addressing dedups identical units under different names *)
  C.reset_counters cache;
  let dups =
    List.init 20 (fun i ->
        { (req i) with S.req_file = Printf.sprintf "copy-of-tu%03d.c" i })
  in
  ignore (S.compile_batch ~jobs:1 cache dups);
  let s = C.stats cache in
  row "  dedup:        %d renamed copies, %d misses\n" (List.length dups)
    s.C.s_misses;
  if s.C.s_misses > 0 then
    failwith "MONOREPO: renamed identical units missed the cache";
  record_count "MONOREPO/dedup/misses" s.C.s_misses;
  (* one-edit rebuild: bump one leaf, recompile the whole repo *)
  edits.(7) <- (1, 0);
  C.reset_counters cache;
  let warm, t_warm = elapsed (fun () -> S.compile_batch ~jobs:1 cache (all_reqs ())) in
  let s = C.stats cache in
  row "  1-edit build: %d units, %d misses, %.2fs (%.1fx vs cold)\n" n_tus
    s.C.s_misses t_warm (t_cold /. t_warm);
  record_count "MONOREPO/one-edit/misses" s.C.s_misses;
  if t_cold < 5.0 *. t_warm then
    failwith
      (Printf.sprintf
         "MONOREPO: one-edit rebuild only %.1fx faster than cold (need 5x)"
         (t_cold /. t_warm));
  (* byte-identity: warm responses must equal a fresh compiler's output *)
  List.iteri
    (fun i (w : S.response) ->
      if i mod 17 = 0 then begin
        let fresh = C.create () in
        let f = S.compile fresh (req i) in
        if f.S.res_il <> w.S.res_il || f.S.res_asm <> w.S.res_asm then
          failwith
            (Printf.sprintf "MONOREPO: served output of tu%03d differs from a \
                             fresh compile" i)
      end)
    warm;
  row "  byte-identity: served IL and asm match fresh compiles\n";
  (* edit replay: thousands of requests, one small edit per round *)
  C.reset_counters cache;
  let rounds = 300 and window = 9 in
  let n_requests = ref 0 in
  let _, t_replay =
    elapsed (fun () ->
        for r = 0 to rounds - 1 do
          let tu = r mod n_tus in
          let leaf_edit, kern_edit = edits.(tu) in
          (* alternate which function the edit lands in *)
          edits.(tu) <-
            (if r mod 2 = 0 then (leaf_edit + 1, kern_edit)
             else (leaf_edit, kern_edit + 1));
          let batch =
            req tu :: List.init window (fun k -> req ((tu + 1 + k) mod n_tus))
          in
          n_requests := !n_requests + List.length batch;
          ignore (S.compile_batch ~jobs:4 cache batch)
        done)
  in
  let s = C.stats cache in
  let probes = s.C.s_hits + s.C.s_misses in
  let hit_rate = float_of_int s.C.s_hits /. float_of_int probes in
  let misses_per_1000 = s.C.s_misses * 1000 / !n_requests in
  row
    "  edit replay:  %d requests in %d rounds, %d/%d component probes hit \
     (%.1f%%), %.2fs (%.0f req/s)\n"
    !n_requests rounds s.C.s_hits probes (100.0 *. hit_rate) t_replay
    (float_of_int !n_requests /. t_replay);
  record_count "MONOREPO/replay/misses-per-1000-requests" misses_per_1000;
  if hit_rate < 0.90 then
    failwith
      (Printf.sprintf "MONOREPO: replay hit rate %.1f%% below the 90%% floor"
         (100.0 *. hit_rate));
  (* concurrency: a 4-domain batch must equal the sequential responses *)
  let par = S.compile_batch ~jobs:4 cache (all_reqs ()) in
  let seq = S.compile_batch ~jobs:1 cache (all_reqs ()) in
  List.iter2
    (fun (a : S.response) (b : S.response) ->
      if a.S.res_il <> b.S.res_il || a.S.res_asm <> b.S.res_asm then
        failwith "MONOREPO: concurrent batch diverged from sequential")
    par seq;
  row "  concurrency:  4-domain batch outputs equal the sequential batch\n";
  ignore cold

(* ----------------------------------------------------------------- *)
(* Bechamel: compile-time costs                                      *)
(* ----------------------------------------------------------------- *)

let bechamel_bench () =
  let open Bechamel in
  let open Toolkit in
  let src = Workloads.compile_time_workload in
  let t name options =
    Test.make ~name (Staged.stage (fun () -> ignore (Vpc.compile ~options src)))
  in
  let tests =
    [
      Test.make ~name:"parse only"
        (Staged.stage (fun () -> ignore (Vpc.parse src)));
      t "compile -O0" Vpc.o0;
      t "compile -O1" Vpc.o1;
      t "compile -O2" Vpc.o2;
      t "compile -O3" Vpc.o3;
      Test.make ~name:"simulate daxpy O3"
        (Staged.stage
           (let prog = compile Vpc.o3 src in
            fun () -> ignore (run prog)));
    ]
  in
  let test = Test.make_grouped ~name:"vpc" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure by_test ->
      if measure = "monotonic-clock" then
        Hashtbl.iter
          (fun name olsr ->
            match Analyze.OLS.estimates olsr with
            | Some [ est ] ->
                Printf.printf "  %-28s %12.1f ns/run\n" name est
            | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)
          by_test)
    results

(* ----------------------------------------------------------------- *)
(* Driver                                                            *)
(* ----------------------------------------------------------------- *)

(* --compare FILE: regression gate against a committed baseline (the
   BENCH_pr*.json written by --json).  Reads the baseline with a minimal
   line-based parse of our own fixed output format, then fails if any
   experiment this run also measured got more than [tolerance] slower. *)
let compare_baseline path =
  let tolerance = 0.02 in
  let baseline = ref [] in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       (* lines look like:  "ID": {"cycles": N, ...},  *)
       match String.index_opt line '"' with
       | Some q1 -> (
           match String.index_from_opt line (q1 + 1) '"' with
           | Some q2 -> (
               let id = String.sub line (q1 + 1) (q2 - q1 - 1) in
               let tag = "\"cycles\": " in
               let tl = String.length tag in
               let rec find i =
                 if i + tl > String.length line then None
                 else if String.sub line i tl = tag then Some (i + tl)
                 else find (i + 1)
               in
               match find q2 with
               | Some start ->
                   let stop = ref start in
                   while
                     !stop < String.length line
                     && line.[!stop] >= '0'
                     && line.[!stop] <= '9'
                   do
                     incr stop
                   done;
                   if !stop > start then
                     baseline :=
                       (id, int_of_string (String.sub line start (!stop - start)))
                       :: !baseline
               | None -> ())
           | None -> ())
       | None -> ()
     done
   with End_of_file -> close_in ic);
  let failures = ref 0 and checked = ref 0 in
  List.iter
    (fun (id, item) ->
      match List.assoc_opt id !baseline with
      | None -> ()
      | Some old_cycles ->
          incr checked;
          let tag = "{\"cycles\": " in
          let now =
            int_of_string
              (String.sub item (String.length tag)
                 (String.index item ',' - String.length tag))
          in
          let limit =
            int_of_float (float_of_int old_cycles *. (1.0 +. tolerance))
          in
          if now > limit then begin
            incr failures;
            Printf.printf "REGRESSION %-40s %d -> %d cycles (+%.1f%%)\n" id
              old_cycles now
              (100.0 *. (float_of_int now /. float_of_int old_cycles -. 1.0))
          end)
    (List.rev !json_results);
  Printf.printf "\ncompare vs %s: %d measured, %d regressed beyond %.0f%%\n"
    path !checked !failures (100.0 *. tolerance);
  if !failures > 0 then exit 1

let all =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10);
    ("A1", a1); ("A2", a2); ("A3", a3); ("A4", a4);
    ("PGO", pgo_exp); ("NEST", nest_exp); ("REUSE", reuse_exp);
    ("PTR", ptr_exp); ("RANGE", range_exp); ("DOACROSS", doacross_exp);
    ("TUNE", tune_exp); ("MONOREPO", monorepo_exp);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path, args =
    let rec go acc = function
      | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let compare_path, args =
    let rec go acc = function
      | "--compare" :: path :: rest -> (Some path, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let wanted = List.filter (fun a -> a <> "--") args in
  print_endline
    "Reproduction harness: Allen & Johnson, \"Compiling C for Vectorization,";
  print_endline
    "Parallelization, and Inline Expansion\" (PLDI 1988) on the Titan simulator";
  if wanted = [] then begin
    List.iter (fun (_, f) -> f ()) all;
    print_endline "\n==== compile-time (bechamel) ====";
    bechamel_bench ()
  end
  else
    List.iter
      (fun name ->
        if name = "bechamel" then bechamel_bench ()
        else
          match List.assoc_opt name all with
          | Some f -> f ()
          | None -> Printf.eprintf "unknown experiment %s\n" name)
      wanted;
  (match compare_path with Some path -> compare_baseline path | None -> ());
  match json_path with Some path -> write_json path | None -> ()
