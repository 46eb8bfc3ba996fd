(* titancc: the command-line compiler.

     titancc [OPTIONS] FILE.c

   Compiles a C source file through the vectorizing/parallelizing
   pipeline, optionally dumping the IL after each stage, then runs the
   program on the Titan simulator (and, with --check, also on the IL
   interpreter, comparing outputs). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_compiler file opt_level inline_only disabled lint why_scalar
    assume_noalias vlen
    procs sched_name
    dump_stages
    dump_asm check catalogs
    save_catalog quiet verify_il no_run inject_fault profile_gen profile_use
    report serve cache_dir client timings tune_out tune_use no_tune tune_budget =
  try
    if vlen < 1 then begin
      Printf.eprintf "titancc: --vlen must be at least 1 (got %d)\n" vlen;
      exit 1
    end;
    (* the cacheable option subset, shared by daemon keys and client
       requests; callbacks (dump, report, ...) stay local *)
    let copts =
      {
        Vpc_server.Service.opt_level;
        inline_only;
        disabled = List.sort compare disabled;
        assume_noalias;
        vlen;
        catalogs;
        profile_use;
        tune_use = (if no_tune then None else tune_use);
      }
    in
    (match serve with
    | Some socket_path ->
        let cache = Vpc_server.Cache.create ?dir:cache_dir () in
        Vpc_server.Daemon.serve
          { Vpc_server.Daemon.socket_path; verbose = not quiet }
          cache;
        exit 0
    | None -> ());
    let file =
      match file with
      | Some f -> f
      | None ->
          Printf.eprintf "titancc: FILE.c required unless --serve\n";
          exit 1
    in
    let src = read_file file in
    (match client with
    | Some socket -> (
        let req =
          { Vpc_server.Service.req_file = file; req_src = src; req_opts = copts }
        in
        match Vpc_server.Protocol.request ~socket (Vpc_server.Protocol.Compile req) with
        | Vpc_server.Protocol.Compiled r ->
            (* print the artifact a local --no-run compile would print:
               the asm listing under --dump-asm, the optimized IL
               otherwise *)
            if dump_asm then print_string r.Vpc_server.Service.res_asm
            else print_string r.Vpc_server.Service.res_il;
            if not quiet then
              Printf.eprintf "[client] %d funcs, %d/%d components cached\n"
                r.Vpc_server.Service.res_funcs r.Vpc_server.Service.res_cached
                r.Vpc_server.Service.res_components;
            exit 0
        | Vpc_server.Protocol.Error m ->
            Printf.eprintf "server error: %s\n" m;
            exit 1
        | _ ->
            Printf.eprintf "unexpected server reply\n";
            exit 1)
    | None -> ());
    if lint then begin
      (* lint mode: front end only, then the provable-bug checks over
         the unoptimized IL (where source locations are intact) *)
      let prog = Vpc.parse ~file src in
      let findings = Vpc.Check.Lint.run prog in
      List.iter
        (fun v -> Printf.printf "%s\n" (Vpc.Check.Report.to_string v))
        findings;
      match findings with
      | [] ->
          if not quiet then Printf.eprintf "lint: no findings\n";
          exit 0
      | fs ->
          if not quiet then Printf.eprintf "lint: %d finding(s)\n" (List.length fs);
          exit 4
    end;
    let sched =
      match sched_name with
      | "seq" -> Vpc.Titan.Machine.Sequential
      | "conservative" -> Vpc.Titan.Machine.Overlap_conservative
      | _ -> Vpc.Titan.Machine.Overlap_full
    in
    let config = { Vpc.Titan.Machine.default_config with procs; sched } in
    (match profile_gen with
    | Some prof_path ->
        (* pass one of the two-pass PGO flow: -O0 + instrumentation,
           run on the simulator, write the measured profile *)
        let data, result = Vpc.profile_gen ~config ~file src in
        Vpc.Profile.Data.save data prof_path;
        print_string result.Vpc.Titan.Machine.stdout_text;
        if not quiet then
          Printf.eprintf
            "[profile] %d loops, %d call sites measured -> %s (procs=%d \
             sched=%s)\n"
            (Vpc.Profile.Key.Map.cardinal data.Vpc.Profile.Data.loops)
            (Vpc.Profile.Key.Map.cardinal data.Vpc.Profile.Data.calls)
            prof_path procs sched_name;
        (match result.return_value with
        | Vpc.Titan.Machine.Vi n -> exit (n land 0xFF)
        | Vpc.Titan.Machine.Vf _ -> exit 0)
    | None -> ());
    (* the served compile's options, plus what stays local *)
    let options =
      {
        (Vpc_server.Service.to_options copts) with
        dump =
          (if dump_stages then
             Some
               (fun stage text ->
                 Printf.printf "=== after %s ===\n%s\n" stage text)
           else None);
        verify = (if verify_il then `Each_stage else `Off);
        report =
          (if report then Some (fun line -> Printf.eprintf "[pgo] %s\n" line)
           else None);
        why_scalar =
          (if why_scalar then
             Some (fun line -> Printf.eprintf "[why-scalar] %s\n" line)
           else None);
      }
    in
    let timer =
      if timings then Some (Vpc.Support.Timing.create ()) else None
    in
    (* simulator-in-the-loop autotuning: --tune searches (and persists
       winners), --tune-use replays a store (already in [options]),
       --no-tune forces both off; the compile below replays through
       [`Use], so a --tune run's artifact is exactly what a later
       --tune-use run reproduces *)
    let tuned_store =
      if no_tune then None
      else
        match tune_out with
        | Some path ->
            let existing = Vpc.Profile.Tuned.load_or_empty path in
            let stamp =
              1
              + List.fold_left
                  (fun m (r : Vpc.Profile.Tuned.record) ->
                    max m r.Vpc.Profile.Tuned.stamp)
                  0 existing.Vpc.Profile.Tuned.records
            in
            let tr =
              Vpc.tune ~options ~config ~budget:tune_budget ~stamp
                ?report:
                  (if quiet then None
                   else Some (fun l -> Printf.eprintf "%s\n" l))
                ?timer ~file src
            in
            let merged = Vpc.Profile.Tuned.merge existing tr.Vpc.tuned in
            Vpc.Profile.Tuned.save merged path;
            if not quiet then begin
              let st = tr.Vpc.tune_stats in
              Printf.eprintf
                "[tune] %d nests considered, %d improved; %d candidates \
                 evaluated, %d skipped (same decisions as an earlier \
                 compile), %d rejected; %.2fs evaluating -> %s\n"
                tr.Vpc.nests_considered tr.Vpc.nests_improved
                st.Vpc.Tune.Search.evaluated st.Vpc.Tune.Search.pruned
                st.Vpc.Tune.Search.rejected st.Vpc.Tune.Search.sim_seconds
                path;
              Printf.eprintf "[tune] static=%d tuned=%d cycles (%.1f%%)\n"
                tr.Vpc.static_cycles tr.Vpc.tuned_cycles
                (if tr.Vpc.static_cycles > 0 then
                   100.0
                   *. float_of_int (tr.Vpc.static_cycles - tr.Vpc.tuned_cycles)
                   /. float_of_int tr.Vpc.static_cycles
                 else 0.0)
            end;
            Some merged
        | None -> None
    in
    let options =
      match tuned_store with
      | None -> options
      | Some s -> { options with Vpc.tune = `Use s }
    in
    let prog, stats = Vpc.compile ~options ?timer ~file src in
    Option.iter (fun t -> Vpc.Support.Timing.report t stderr) timer;
    (match inject_fault with
    | None -> ()
    | Some kind_name -> (
        match Vpc.Check.Fault.of_string kind_name with
        | None ->
            Printf.eprintf "unknown fault kind %s (one of: %s)\n" kind_name
              (String.concat ", " (List.map fst Vpc.Check.Fault.kinds));
            exit 1
        | Some kind ->
            if not (Vpc.Check.Fault.inject kind prog) then begin
              Printf.eprintf "inject-fault: no %s site in this program\n"
                kind_name;
              exit 1
            end;
            (* the injected corruption plays the role of a buggy late
               pass: re-verify so --verify-il can catch it *)
            if verify_il then
              Vpc.Check.Verify.run ~assume_noalias ~pass:"fault-injection" prog));
    (match save_catalog with
    | Some path ->
        Vpc.Inline.Catalog.save prog path;
        if not quiet then Printf.printf "catalog saved to %s\n" path
    | None -> ());
    (* the same listing the compile daemon serves *)
    if dump_asm then
      List.iter
        (fun (_, text) -> print_string text)
        (Vpc_server.Service.asm_texts prog);
    if no_run then exit 0;
    let result = Vpc.run_titan ~config ~vreuse:(Vpc.enabled options `Vreuse) prog in
    print_string result.Vpc.Titan.Machine.stdout_text;
    if check then begin
      (* differential check against an independently compiled -O0
         reference: catches miscompiles that hit the interpreter and the
         simulator identically (both run the same optimized IL) *)
      let ref_prog, _ = Vpc.compile ~options:Vpc.o0 ~file src in
      let reference = Vpc.run_interp ref_prog in
      let opt = Vpc.run_interp prog in
      (* stdout, then the return value *)
      let shown out ret = Printf.sprintf "%s(return %s)\n" out ret in
      let interp (r : Vpc.Il.Interp.result) =
        shown r.stdout_text
          (match r.return_value with
          | Vpc.Il.Interp.V_int n -> string_of_int n
          | Vpc.Il.Interp.V_float x -> string_of_float x)
      in
      if
        opt.stdout_text <> reference.stdout_text
        || opt.return_value <> reference.return_value
      then begin
        Printf.eprintf
          "CHECK FAILED: optimized IL diverges from the -O0 reference\n\
           --- reference (-O0 interp) ---\n%s--- optimized (interp) ---\n%s"
          (interp reference) (interp opt);
        exit 2
      end
      else if not (Vpc.matches_reference reference result) then begin
        Printf.eprintf
          "CHECK FAILED: simulator output diverges from the -O0 reference\n\
           --- reference (-O0 interp) ---\n%s--- simulator ---\n%s"
          (interp reference)
          (shown result.stdout_text
             (match result.return_value with
             | Vpc.Titan.Machine.Vi n -> string_of_int n
             | Vpc.Titan.Machine.Vf x -> string_of_float x));
        exit 2
      end
      else if not quiet then
        Printf.eprintf
          "check: outputs agree (reference interp, optimized interp, simulator)\n"
    end;
    if not quiet then begin
      let m = result.metrics in
      Printf.eprintf
        "[titan] cycles=%d insts=%d fp_ops=%d vector_insts=%d \
         parallel_regions=%d mflops=%.3f (procs=%d sched=%s)\n"
        m.Vpc.Titan.Machine.cycles m.insts m.fp_ops m.vector_insts
        m.parallel_regions result.mflops_rate procs sched_name;
      Printf.eprintf
        "[titan] mem_ops=%d vector_mem_elems_avoided=%d busy iu=%d fpu=%d \
         mem=%d\n"
        m.mem_ops m.vector_mem_elems_avoided m.busy_iu m.busy_fpu m.busy_mem;
      Printf.eprintf
        "[opt] loops converted=%d ivs=%d vectorized=%d parallelized=%d \
         inlined=%d interchanged=%d fused=%d strips_shared=%d\n"
        stats.Vpc.while_to_do.converted stats.indvar.ivs_found
        stats.vectorize.loops_vectorized stats.vectorize.loops_parallelized
        stats.inline.calls_inlined stats.interchange.nests_interchanged
        stats.fuse.loops_fused stats.vectorize.strip_loops_shared;
      let v = stats.Vpc.vreuse in
      Printf.eprintf
        "[vreuse] strips_interchanged=%d accumulators=%d loads_hoisted=%d \
         stores_forwarded=%d loads_shared=%d\n"
        v.Vpc.Transform.Vreuse.strips_interchanged v.accumulators_localized
        v.invariant_loads_hoisted v.stores_forwarded v.loads_shared;
      let da = stats.Vpc.doacross in
      Printf.eprintf
        "[doacross] pipelined=%d syncs=%d eliminated=%d posts=%d waits=%d \
         post_wait_stalls=%d\n"
        da.Vpc.Transform.Doacross.do_pipelined da.syncs_placed
        da.syncs_eliminated m.posts m.waits m.post_wait_stalls
    end;
    (match result.return_value with
    | Vpc.Titan.Machine.Vi n -> exit (n land 0xFF)
    | Vpc.Titan.Machine.Vf _ -> exit 0)
  with
  | Vpc.Check.Verify.Failed diags ->
      List.iter
        (fun d -> Printf.eprintf "%s\n" (Vpc.Support.Diag.to_string d))
        diags;
      exit 3
  | Vpc.Support.Diag.Error_exn d ->
      Printf.eprintf "%s\n" (Vpc.Support.Diag.to_string d);
      exit 1
  | Vpc.Titan.Machine.Runtime_error m | Vpc.Il.Interp.Runtime_error m ->
      Printf.eprintf "runtime error: %s\n" m;
      exit 1
  | Vpc.Il.Interp.Timeout ->
      Printf.eprintf
        "runtime error: the IL interpreter ran out of its step budget (does \
         the program terminate?)\n";
      exit 1
  | Vpc.Support.Sexp.Parse_error m ->
      Printf.eprintf "profile/catalog parse error: %s\n" m;
      exit 1
  | Sys_error m ->
      Printf.eprintf "%s\n" m;
      exit 1

let file_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"FILE.c" ~doc:"C source file (optional with --serve)")

let opt_arg =
  Arg.(value & opt int 3 & info [ "O" ] ~docv:"N" ~doc:"Optimization level 0-3")

let inline_only_arg =
  Arg.(value & opt_all string [] & info [ "inline" ] ~docv:"NAME"
         ~doc:"Inline only the named functions")

(* one off flag per {!Vpc.switches} row that declares one; the term
   yields the names of those given *)
let disabled_arg =
  List.fold_left
    (fun acc (r : Vpc.switch_row) ->
      match r.Vpc.flag with
      | None -> acc
      | Some (off, doc) ->
          Term.(
            const (fun on rest -> if on then off :: rest else rest)
            $ Arg.(value & flag & info [ off ] ~doc)
            $ acc))
    (Term.const []) Vpc.switches

let lint_arg =
  Arg.(value & flag & info [ "lint" ]
         ~doc:"Front end only: report statically-provable bugs (out-of-bounds \
               subscripts, overflow-prone induction updates, always-false \
               loop guards, degenerate DO loops) and exit; exit code 4 when \
               there are findings, 0 when clean")

let why_scalar_arg =
  Arg.(value & flag & info [ "why-scalar" ]
         ~doc:"Explain each loop left scalar on stderr (one [why-scalar] \
               line naming the unresolved alias pair with source locations, \
               the rejecting statement, or the carried dependence cycle)")

let noalias_arg =
  Arg.(value & flag & info [ "noalias" ]
         ~doc:"Assume pointer parameters have Fortran (no-alias) semantics")

let vlen_arg =
  Arg.(value & opt int 32 & info [ "vlen" ] ~docv:"N"
         ~doc:"Vector strip length, at least 1")

let procs_arg =
  Arg.(value & opt int 1 & info [ "procs"; "p" ] ~docv:"N"
         ~doc:"Number of Titan processors (1-4)")

let sched_arg =
  Arg.(value & opt string "full" & info [ "sched" ] ~docv:"MODE"
         ~doc:"Scheduling model: seq, conservative, full")

let dump_arg =
  Arg.(value & flag & info [ "dump-il" ] ~doc:"Dump IL after each stage")

let dump_asm_arg =
  Arg.(value & flag & info [ "dump-asm" ] ~doc:"Dump Titan instructions")

let check_arg =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Also run the IL interpreter and compare outputs")

let catalog_arg =
  Arg.(value & opt_all string [] & info [ "catalog" ] ~docv:"FILE"
         ~doc:"Import a procedure catalog before inlining")

let save_catalog_arg =
  Arg.(value & opt (some string) None & info [ "save-catalog" ] ~docv:"FILE"
         ~doc:"Save the compiled program as a procedure catalog")

let quiet_arg = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No statistics")

let verify_il_arg =
  Arg.(value & flag & info [ "verify-il" ]
         ~doc:"Run the IL verifier and parallel/vector translation \
               validator after every pipeline stage (exit 3 on violation)")

let no_run_arg =
  Arg.(value & flag & info [ "no-run" ]
         ~doc:"Compile (and verify) only; do not execute the program")

let inject_fault_arg =
  Arg.(value & opt (some string) None & info [ "inject-fault" ] ~docv:"KIND"
         ~doc:"Deterministically corrupt the compiled IL (testing aid); \
               KIND is one of dup-stmt-id, unbound-var, impure-bound, \
               dangling-goto, vector-type, vector-overlap, false-parallel, \
               wrong-const")

let profile_gen_arg =
  Arg.(value & opt (some string) None & info [ "profile-gen" ] ~docv:"FILE"
         ~doc:"Compile at -O0 with instrumentation, run on the simulator, \
               and write the measured profile to FILE (loop trip counts, \
               call counts, attributed cycles)")

let profile_use_arg =
  Arg.(value & opt (some string) None & info [ "profile-use" ] ~docv:"FILE"
         ~doc:"Read a profile written by --profile-gen and let its measured \
               trip/call counts guide inlining, vectorization, and \
               parallelization")

let report_arg =
  Arg.(value & flag & info [ "report" ]
         ~doc:"Explain each profile-guided decision on stderr (one [pgo] \
               line per loop or call site, with the cost-model estimates)")

let serve_arg =
  Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"SOCKET"
         ~doc:"Run as a compile daemon on a Unix-domain socket, serving \
               requests from a content-addressed procedure cache; no FILE \
               argument is needed")

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist cache entries to DIR (one file per component key) \
               so a restarted daemon starts warm")

let client_arg =
  Arg.(value & opt (some string) None & info [ "client" ] ~docv:"SOCKET"
         ~doc:"Send FILE.c and the current option set to a daemon started \
               with --serve, and print the served artifact (optimized IL, \
               or the Titan listing under --dump-asm)")

let timings_arg =
  Arg.(value & flag & info [ "timings" ]
         ~doc:"Print a per-phase wall-clock profile of the compilation \
               pipeline to stderr")

let tune_arg =
  Arg.(value & opt (some string) None & info [ "tune" ] ~docv:"FILE"
         ~doc:"Search the joint per-nest optimization space (mode, strip \
               length, interchange, fusion, register reuse, doacross, \
               per-site inlining) with the Titan simulator as the oracle, \
               merge the cycle-minimal winners into FILE (keyed by a \
               location-free loop fingerprint), and compile with them; \
               every candidate is differential-checked against the \
               unoptimized program")

let tune_use_arg =
  Arg.(value & opt (some string) None & info [ "tune-use" ] ~docv:"FILE"
         ~doc:"Replay tuned configurations written by --tune without \
               searching: nests whose fingerprint matches a stored winner \
               compile under it, everything else follows the static \
               policy (a missing or empty FILE compiles identically to \
               no tuning)")

let no_tune_arg =
  Arg.(value & flag & info [ "no-tune" ]
         ~doc:"Ignore --tune and --tune-use: compile with the static \
               policy only")

let tune_budget_arg =
  Arg.(value & opt int 4 & info [ "tune-budget" ] ~docv:"N"
         ~doc:"Tune at most the N hottest loop nests (profile-ranked \
               under --profile-use, else by static cost estimate)")

let cmd =
  let doc = "vectorizing, parallelizing, inlining C compiler for the Titan" in
  Cmd.v
    (Cmd.info "titancc" ~doc)
    Term.(
      const run_compiler $ file_arg $ opt_arg $ inline_only_arg $ disabled_arg
      $ lint_arg
      $ why_scalar_arg $ noalias_arg
      $ vlen_arg $ procs_arg
      $ sched_arg $ dump_arg $ dump_asm_arg $ check_arg $ catalog_arg
      $ save_catalog_arg $ quiet_arg $ verify_il_arg $ no_run_arg
      $ inject_fault_arg $ profile_gen_arg $ profile_use_arg $ report_arg
      $ serve_arg $ cache_dir_arg $ client_arg $ timings_arg
      $ tune_arg $ tune_use_arg $ no_tune_arg $ tune_budget_arg)

let () = exit (Cmd.eval cmd)
