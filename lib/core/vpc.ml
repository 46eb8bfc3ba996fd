(* The public face of the compiler: options, the full pass pipeline in the
   paper's order, and compile-and-run entry points against both the IL
   interpreter (reference semantics) and the Titan simulator (timing).

   Pipeline (§5.2 fixes the placement: while→DO conversion runs right
   after use-def chains are available, before the phases that simplify DO
   loops):

     parse → sema → lower
       → inline (optional, catalogs + same file)
       → constant propagation + unreachable code (§8) → DCE
       → while→DO conversion (§5.2)
       → induction-variable substitution (§5.3)
       → constant propagation → DCE → unreachable postpass
       → vectorize / parallelize (Allen-Kennedy distribution, §9)
       → scalar replacement (§6) → strength reduction (§6)
       → final DCE *)

module Support = Vpc_support
module Il = Vpc_il
module Cfront = Vpc_cfront
module Analysis = Vpc_analysis
module Dependence = Vpc_dependence
module Transform = Vpc_transform
module Vectorize = Vpc_vectorize
module Inline = Vpc_inline
module Titan = Vpc_titan
module Profile = Vpc_profile
module Check = Vpc_check
module Pointsto = Vpc_pointsto
module Range = Vpc_range
module Tune = Vpc_tune

(* A resolved autotuning plan: per-nest configurations keyed by source
   location (every loop header of a tuned nest maps to its nest's
   configuration) plus per-call-site inline verdicts.  [`Use] resolves a
   fingerprint-keyed store into this form with a scout compile; the
   search driver ({!tune}) builds it directly. *)
type tune_plan = {
  tp_nests : (Support.Loc.t * Tune.Config.t) list;
  tp_calls : (Support.Loc.t * bool) list;
}

let empty_plan = { tp_nests = []; tp_calls = [] }

type options = {
  inline : [ `None | `All | `Only of string list ];
  doacross : bool;             (* §10: parallelize pragma-marked list loops *)
  doacross_sync : bool;
      (* pipeline carried-dependence DO loops across processors with
         post/wait synchronization *)
  scalar_opt : bool;           (* constant propagation + DCE + unreachable *)
  while_conversion : bool;     (* §5.2 *)
  indvar_substitution : bool;  (* §5.3 *)
  vectorize : bool;
  parallelize : bool;
  interchange : bool;          (* §7: reorder nest levels by cost model *)
  fuse : bool;                 (* §7: merge adjacent conformable loops *)
  vreuse : bool;               (* vector-register reuse across strips *)
  vlen : int;
  assume_noalias : bool;       (* pointer params get Fortran semantics *)
  scalar_replacement : bool;   (* §6 *)
  strength_reduction : bool;   (* §6 *)
  pointsto : bool;
      (* interprocedural points-to + mod/ref analysis: resolves pointer
         aliases the canonical decomposition cannot, bounds call effects
         in the race checker, and ranks inline sites *)
  range : bool;
      (* interprocedural symbolic range + scalar-evolution analysis:
         dependence tests work on symbolic distances, strip loops with
         provable trip counts drop their length guards, and constant
         propagation folds branches decided by disjoint ranges *)
  catalogs : string list;      (* procedure databases to import (§7) *)
  dump : (string -> string -> unit) option;  (* stage name, IL text *)
  verify : Check.Verify.level; (* IL verifier / translation validator *)
  profile : Profile.Data.t option;
      (* measured profile feeding the inliner and vectorizer (PGO) *)
  report : (string -> unit) option;
      (* one line per profile-guided decision, with the cost estimates *)
  why_scalar : (string -> unit) option;
      (* one line per loop left scalar: the unresolved alias pair with
         source locations, the rejecting statement, or the cycle *)
  tune : [ `Off | `Use of Profile.Tuned.t | `Plan of tune_plan ];
      (* autotuned per-nest overrides: [`Use store] replays winners from
         a fingerprint-keyed store (a scout compile maps fingerprints
         back to this program's loops); [`Plan] applies an already
         resolved plan (the search driver's internal path).  [`Off] and
         an empty store compile byte-identically to no tuning. *)
}

(* -O0: the naive translation. *)
let o0 =
  {
    inline = `None;
    doacross = false;
    doacross_sync = false;
    scalar_opt = false;
    while_conversion = false;
    indvar_substitution = false;
    vectorize = false;
    parallelize = false;
    interchange = false;
    fuse = false;
    vreuse = false;
    vlen = 32;
    assume_noalias = false;
    scalar_replacement = false;
    strength_reduction = false;
    pointsto = false;
    range = false;
    catalogs = [];
    dump = None;
    verify = `Off;
    profile = None;
    report = None;
    why_scalar = None;
    tune = `Off;
  }

(* -O1: classical scalar optimization. *)
let o1 =
  {
    o0 with
    scalar_opt = true;
    while_conversion = true;
    indvar_substitution = true;
    strength_reduction = true;
  }

(* -O2: vectorization and parallelization, no inlining. *)
let o2 =
  {
    o1 with
    vectorize = true;
    parallelize = true;
    scalar_replacement = true;
    doacross = true;
    doacross_sync = true;
    pointsto = true;
    range = true;
  }

(* -O3: everything, including automatic inlining and nest
   restructuring (interchange + fusion). *)
let o3 = { o2 with inline = `All; interchange = true; fuse = true; vreuse = true }

let default_options = o3

type stats = {
  while_to_do : Transform.While_to_do.stats;
  indvar : Transform.Indvar.stats;
  forward_sub : Transform.Forward_sub.stats;
  doacross : Transform.Doacross.stats;
  interchange : Transform.Interchange.stats;
  fuse : Transform.Fuse.stats;
  const_prop : Analysis.Const_prop.stats;
  dce : Analysis.Dce.stats;
  unreachable : Analysis.Unreachable.stats;
  vectorize : Vectorize.Vectorize.stats;
  vreuse : Transform.Vreuse.stats;
  inline : Inline.Inline.stats;
  scalar_replace : Transform.Scalar_replace.stats;
  strength_reduction : Transform.Strength_reduction.stats;
}

let new_stats () =
  {
    while_to_do = Transform.While_to_do.new_stats ();
    indvar = Transform.Indvar.new_stats ();
    forward_sub = Transform.Forward_sub.new_stats ();
    doacross = Transform.Doacross.new_stats ();
    interchange = Transform.Interchange.new_stats ();
    fuse = Transform.Fuse.new_stats ();
    const_prop = Analysis.Const_prop.new_stats ();
    dce = Analysis.Dce.new_stats ();
    unreachable = Analysis.Unreachable.new_stats ();
    vectorize = Vectorize.Vectorize.new_stats ();
    vreuse = Transform.Vreuse.new_stats ();
    inline = Inline.Inline.new_stats ();
    scalar_replace = Transform.Scalar_replace.new_stats ();
    strength_reduction = Transform.Strength_reduction.new_stats ();
  }

let dump_stage options prog stage =
  match options.dump with
  | Some f -> f stage (Il.Pp.prog_to_string prog)
  | None -> ()

(* Checkpoint after a whole-program pass: dump the IL and, at
   [`Each_stage], run the verifier over every function so the pass that
   broke an invariant is named in the diagnostic. *)
let after_prog_pass ?pointsto ?range options prog pass =
  dump_stage options prog pass;
  match options.verify with
  | `Each_stage ->
      Check.Verify.run ~assume_noalias:options.assume_noalias ?pointsto ?range
        ~pass prog
  | `Off | `Final -> ()

(* Checkpoint after a per-function pass. *)
let after_pass ?pointsto ?range options prog (f : Il.Func.t) pass =
  let stage = Printf.sprintf "%s(%s)" pass f.Il.Func.name in
  dump_stage options prog stage;
  match options.verify with
  | `Each_stage ->
      Check.Verify.run_func ~assume_noalias:options.assume_noalias ?pointsto
        ?range ~pass:stage prog f
  | `Off | `Final -> ()

(* The pass subset that shapes loop nests ahead of restructuring: what a
   scout compile runs so {!Tune.Fingerprint} sees the nests exactly as
   the search driver did.  Restructuring, codegen-facing passes,
   diagnostics, and tuning itself are off; inlining and the scalar
   pipeline keep their static policy. *)
let scout_options options =
  {
    options with
    vectorize = false;
    parallelize = false;
    interchange = false;
    fuse = false;
    vreuse = false;
    doacross = false;
    doacross_sync = false;
    scalar_replacement = false;
    strength_reduction = false;
    verify = `Off;
    dump = None;
    report = None;
    why_scalar = None;
    tune = `Off;
  }

(* Run the optimization pipeline in place.  [timer] buckets the wall
   time of each phase group for [--timings]. *)
let rec optimize ?(options = default_options) ?(stats = new_stats ()) ?timer
    (prog : Il.Prog.t) =
  let timed phase f =
    match timer with Some t -> Support.Timing.time t phase f | None -> f ()
  in
  (* Resolve the tuning request into a per-location plan before anything
     mutates [prog]: [`Use] fingerprints a scout clone (which runs the
     same prefix pipeline, including its own catalog import) and maps
     matching store records back to this program's loops.  An empty store
     resolves to no plan, so every hook below stays [None] and the
     compile is byte-identical to an untuned one. *)
  let plan =
    match options.tune with
    | `Off -> None
    | `Plan p -> Some p
    | `Use store ->
        if Profile.Tuned.is_empty store then None
        else
          Some
            (timed "tune" (fun () ->
                 let clone = Il.Prog.clone prog in
                 ignore (optimize ~options:(scout_options options) clone);
                 let nests = Tune.Fingerprint.nests clone in
                 List.fold_left
                   (fun acc (n : Tune.Fingerprint.nest) ->
                     match Profile.Tuned.find store n.Tune.Fingerprint.fp with
                     | None -> acc
                     | Some r -> (
                         match
                           Tune.Config.of_fields r.Profile.Tuned.fields
                         with
                         | exception _ -> acc (* unknown fields: skip *)
                         | cfg ->
                             {
                               tp_nests =
                                 List.map
                                   (fun l -> (l, cfg))
                                   n.Tune.Fingerprint.loop_locs
                                 @ acc.tp_nests;
                               tp_calls =
                                 List.filter_map
                                   (fun (site, callee) ->
                                     match
                                       List.assoc_opt callee
                                         cfg.Tune.Config.inline_calls
                                     with
                                     | Some v -> Some (site, v)
                                     | None -> None)
                                   n.Tune.Fingerprint.calls
                                 @ acc.tp_calls;
                             }))
                   empty_plan nests))
  in
  let nest_cfg loc =
    match plan with None -> None | Some p -> List.assoc_opt loc p.tp_nests
  in
  let bool_gate get =
    match plan with
    | None -> None
    | Some _ -> Some (fun loc -> Option.bind (nest_cfg loc) get)
  in
  let site_tune =
    match plan with
    | None -> None
    | Some p -> Some (fun loc -> List.assoc_opt loc p.tp_calls)
  in
  timed "catalog-import" (fun () ->
      List.iter
        (fun file -> Inline.Catalog.import ~into:prog (Inline.Catalog.load file))
        options.catalogs);
  (* Whole-program points-to runs after catalog import so argument-to-
     parameter bindings at known call sites are visible.  The verdicts
     back the {!Dependence.Alias} oracle consulted wherever canonical
     decomposition gives up; the oracle is process-global state, so it is
     cleared on every exit path — a later compilation of a different
     program must not see this one's graph.  Inlining rewrites bodies
     wholesale, so the analysis is recomputed after it. *)
  let analyze_pointsto () =
    if options.pointsto then
      Some (timed "pointsto" (fun () -> Pointsto.Pointsto.analyze prog))
    else None
  in
  let pt = ref (analyze_pointsto ()) in
  (* Symbolic ranges follow the same lifecycle: whole-program parameter
     seeding up front (and again after inlining), per-function dataflow
     on demand — optimization passes renumber statements, so each
     consumer forces a fresh fenv over the function's current body.
     Nothing reads the ranges before inlining replaces them (the inliner
     consults points-to only), so an inlining compile seeds once, after. *)
  let analyze_range () =
    if options.range then
      Some (timed "range" (fun () -> Range.Range.analyze prog))
    else None
  in
  let rt =
    ref (match options.inline with `None -> analyze_range () | _ -> None)
  in
  let install_oracle () =
    match !pt with
    | None -> ()
    | Some t ->
        Dependence.Alias.set_oracle (fun e1 e2 ->
            match Pointsto.Pointsto.verdict t e1 e2 with
            | Some `No_alias -> Some Dependence.Alias.No_alias
            | Some (`Must_alias d) -> Some (Dependence.Alias.Must_alias d)
            | None -> None)
  in
  install_oracle ();
  Fun.protect ~finally:Dependence.Alias.clear_oracle @@ fun () ->
  let after_prog_pass pass =
    after_prog_pass ?pointsto:!pt ?range:!rt options prog pass
  in
  let after_pass f pass =
    after_pass ?pointsto:!pt ?range:!rt options prog f pass
  in
  let inline_options only =
    {
      Inline.Inline.default_options with
      only;
      profile = options.profile;
      pointsto = !pt;
      report = options.report;
      site_tune;
    }
  in
  (match options.inline with
  | `None -> ()
  | `All ->
      timed "inline" (fun () ->
          Inline.Inline.expand ~options:(inline_options None)
            ~stats:stats.inline prog);
      pt := analyze_pointsto ();
      rt := analyze_range ();
      install_oracle ();
      after_prog_pass "inline"
  | `Only names ->
      timed "inline" (fun () ->
          Inline.Inline.expand
            ~options:(inline_options (Some names))
            ~stats:stats.inline prog);
      pt := analyze_pointsto ();
      rt := analyze_range ();
      install_oracle ();
      after_prog_pass "inline");
  (* A lazy per-function dataflow over [f]'s body right now; [None]
     facts for statements the fenv does not know (fresh ids, or a stale
     body) keep every consumer conservative. *)
  let range_env_at f =
    match !rt with
    | None -> fun _ -> None
    | Some t ->
        let fe = lazy (Range.Range.analyze_func t prog f) in
        fun (s : Il.Stmt.t) -> Range.Range.env_before (Lazy.force fe) s.Il.Stmt.id
  in
  let scalar_cleanup f =
    if options.scalar_opt then begin
      let range =
        match !rt with
        | None -> None
        | Some _ ->
            let env_at = range_env_at f in
            Some
              (fun s c ->
                match env_at s with
                | None -> None
                | Some env -> Range.Range.truth env c)
      in
      ignore (Analysis.Const_prop.run ~stats:stats.const_prop ?range prog f);
      let dce = Analysis.Dce.run ~stats:stats.dce f in
      (* a second DCE finds work only in what the postpass changed, or
         where the first one stopped at its round cap *)
      if Analysis.Unreachable.run ~stats:stats.unreachable f || dce = `Capped
      then ignore (Analysis.Dce.run ~stats:stats.dce f);
      after_pass f "scalar-cleanup"
    end
  in
  timed "transforms" (fun () ->
  List.iter
    (fun f ->
      scalar_cleanup f;
      if options.while_conversion then begin
        ignore (Transform.While_to_do.run ~stats:stats.while_to_do prog f);
        after_pass f "while-to-do"
      end;
      if options.indvar_substitution then begin
        ignore (Transform.Indvar.run ~stats:stats.indvar prog f);
        after_pass f "indvar-substitution"
      end;
      scalar_cleanup f;
      if options.indvar_substitution then begin
        ignore (Transform.Forward_sub.run ~stats:stats.forward_sub prog f);
        after_pass f "forward-substitution";
        scalar_cleanup f
      end;
      (* Nest restructuring (§7) runs on the cleaned-up DO-loop form,
         before codegen: fusion first (merging nests exposes more
         statements to one strip loop), then interchange (the merged
         nest is reordered as a whole). *)
      if options.fuse then begin
        let fopts =
          {
            Transform.Fuse.assume_noalias = options.assume_noalias;
            parallelize = options.parallelize;
            vlen = options.vlen;
            profile = options.profile;
            report = options.report;
            tune = bool_gate (fun c -> c.Tune.Config.fuse);
          }
        in
        ignore (Transform.Fuse.run ~options:fopts ~stats:stats.fuse prog f);
        after_pass f "fuse"
      end;
      if options.interchange then begin
        let iopts =
          {
            Transform.Interchange.assume_noalias = options.assume_noalias;
            parallelize = options.parallelize;
            vlen = options.vlen;
            profile = options.profile;
            report = options.report;
            tune = bool_gate (fun c -> c.Tune.Config.interchange);
          }
        in
        ignore
          (Transform.Interchange.run ~options:iopts ~stats:stats.interchange
             prog f);
        after_pass f "interchange"
      end;
      if options.vectorize || options.parallelize then begin
        let range_facts =
          match !rt with
          | None -> None
          | Some _ ->
              let env_at = range_env_at f in
              Some
                {
                  Vectorize.Vectorize.rf_interval =
                    (fun s e ->
                      match env_at s with
                      | None -> (None, None)
                      | Some env ->
                          let itv = Range.Range.interval_of_expr env e in
                          (itv.Range.Range.Interval.lo, itv.Range.Range.Interval.hi));
                  rf_divisible =
                    (fun s e n ->
                      n > 0
                      &&
                      match env_at s with
                      | None -> false
                      | Some env -> (
                          let v = Range.Range.eval env e in
                          match v.Range.Range.aff with
                          | Some a -> Range.Range.Affine.divisible_by a n
                          | None -> (
                              match
                                Range.Range.Interval.to_point v.Range.Range.itv
                              with
                              | Some k -> k mod n = 0
                              | None -> false)));
                }
        in
        let vopts =
          {
            Vectorize.Vectorize.vectorize = options.vectorize;
            parallelize = options.parallelize;
            vlen = options.vlen;
            assume_noalias = options.assume_noalias;
            fuse_strips = options.fuse;
            profile = options.profile;
            report = options.report;
            vreuse = options.vreuse;
            why_scalar = options.why_scalar;
            range = range_facts;
            tune =
              (match plan with
              | None -> None
              | Some _ ->
                  Some
                    (fun (s : Il.Stmt.t) ->
                      match nest_cfg s.Il.Stmt.loc with
                      | None -> None
                      | Some (c : Tune.Config.t) -> (
                          let vlen =
                            match c.Tune.Config.strip with
                            | Some v -> v
                            | None -> options.vlen
                          in
                          match c.Tune.Config.mode with
                          | Some Tune.Config.Scalar ->
                              Some
                                {
                                  Vectorize.Vectorize.keep_scalar = true;
                                  strip_parallel = false;
                                  scalar_parallel = false;
                                  chosen_vlen = vlen;
                                }
                          | Some Tune.Config.Vector ->
                              Some
                                {
                                  Vectorize.Vectorize.keep_scalar = false;
                                  strip_parallel = false;
                                  scalar_parallel = false;
                                  chosen_vlen = vlen;
                                }
                          | Some Tune.Config.Parallel ->
                              Some
                                {
                                  Vectorize.Vectorize.keep_scalar = false;
                                  strip_parallel = true;
                                  scalar_parallel = true;
                                  chosen_vlen = vlen;
                                }
                          | None -> (
                              match c.Tune.Config.strip with
                              | None -> None
                              | Some v ->
                                  Some
                                    {
                                      Vectorize.Vectorize.keep_scalar = false;
                                      strip_parallel = options.parallelize;
                                      scalar_parallel = options.parallelize;
                                      chosen_vlen = v;
                                    }))));
          }
        in
        ignore
          (Vectorize.Vectorize.run ~options:vopts ~stats:stats.vectorize prog f);
        after_pass f "vectorize"
      end;
      if options.vreuse then begin
        let ropts =
          {
            Transform.Vreuse.assume_noalias = options.assume_noalias;
            profile = options.profile;
            report = options.report;
            tune = bool_gate (fun c -> c.Tune.Config.vreuse);
          }
        in
        ignore (Transform.Vreuse.run ~options:ropts ~stats:stats.vreuse prog f);
        after_pass f "vreuse"
      end;
      if options.doacross || options.doacross_sync then begin
        let range_facts =
          match !rt with
          | None -> None
          | Some _ ->
              let env_at = range_env_at f in
              Some
                (fun (s : Il.Stmt.t) e ->
                  match env_at s with
                  | None -> (None, None)
                  | Some env ->
                      let itv = Range.Range.interval_of_expr env e in
                      (itv.Range.Range.Interval.lo, itv.Range.Range.Interval.hi))
        in
        let dopts =
          {
            Transform.Doacross.default_options with
            Transform.Doacross.pragma = options.doacross;
            sync = options.doacross_sync;
            assume_noalias = options.assume_noalias;
            profile = options.profile;
            report = options.report;
            why_scalar = options.why_scalar;
            range = range_facts;
            tune = bool_gate (fun c -> c.Tune.Config.doacross);
          }
        in
        timed "doacross" (fun () ->
            ignore
              (Transform.Doacross.run ~stats:stats.doacross ~options:dopts prog
                 f));
        after_pass f "doacross"
      end;
      if options.scalar_replacement then begin
        ignore (Transform.Scalar_replace.run ~stats:stats.scalar_replace prog f);
        after_pass f "scalar-replacement"
      end;
      if options.strength_reduction then begin
        ignore
          (Transform.Strength_reduction.run ~stats:stats.strength_reduction prog
             f);
        after_pass f "strength-reduction"
      end;
      if options.scalar_opt then begin
        ignore (Analysis.Dce.run ~stats:stats.dce f);
        after_pass f "dce"
      end)
    prog.Il.Prog.funcs);
  dump_stage options prog "final";
  (match options.verify with
  | `Final | `Each_stage ->
      Check.Verify.run ~assume_noalias:options.assume_noalias ?pointsto:!pt
        ?range:!rt ~pass:"final" prog
  | `Off -> ());
  stats

(* Front end only. *)
let parse ?file src : Il.Prog.t = Cfront.Frontend.compile ?file src

(* Parse and optimize. *)
let compile ?(options = default_options) ?timer ?file src : Il.Prog.t * stats =
  let prog =
    match timer with
    | Some t -> Support.Timing.time t "parse" (fun () -> parse ?file src)
    | None -> parse ?file src
  in
  after_prog_pass options prog "front-end";
  let stats = optimize ~options ?timer prog in
  (prog, stats)

(* Reference execution on the IL interpreter. *)
let run_interp ?max_steps ?entry ?args prog =
  Il.Interp.run ?max_steps ?entry ?args prog

(* Timed execution on the Titan simulator.  [vreuse] additionally runs
   codegen's redundant-Vload cleanup over the emitted Titan code. *)
let run_titan ?config ?entry ?args ?vreuse prog =
  Titan.Machine.run ?config ?entry ?args ?vreuse prog

(* Convenience: compile under [options], simulate under [config]. *)
let compile_and_simulate ?(options = default_options)
    ?(config = Titan.Machine.default_config) src =
  let prog, stats = compile ~options src in
  let result = run_titan ~config ~vreuse:options.vreuse prog in
  (prog, stats, result)

(* PGO pass one: compile at -O0, run instrumented under [config], and
   return the measured profile alongside the run result.  The profile
   header records the processors and scheduling model it was measured
   under, so pass two's cost comparisons use the same machine. *)
let profile_gen ?(config = Titan.Machine.default_config) ?entry ?args ?file
    src : Profile.Data.t * Titan.Machine.run_result =
  let prog, _ = compile ~options:o0 ?file src in
  let collect =
    Profile.Collect.create ~procs:config.Titan.Machine.procs
      ~sched:(Titan.Machine.sched_name config.Titan.Machine.sched)
  in
  let result = Titan.Machine.run ~config ?entry ?args ~collect prog in
  (Profile.Collect.data collect, result)

(* ------------------------------------------------------------------ *)
(* Simulator-in-the-loop autotuning                                    *)
(* ------------------------------------------------------------------ *)

type tune_result = {
  tuned : Profile.Tuned.t;     (* winners only: nests that beat static *)
  tune_stats : Tune.Search.stats;
  nests_considered : int;      (* nests that entered the search *)
  nests_improved : int;
  static_cycles : int;         (* whole program, untuned *)
  tuned_cycles : int;          (* whole program with every winner *)
}

(* Search the joint per-nest configuration space with the Titan
   simulator as the oracle.  Nests are ranked hottest-first (measured
   trips when a profile covers the outer loop, else the static weight)
   and tuned greedily in that order, each nest's search seeing the
   winners already chosen for hotter nests; the score is whole-program
   cycles, so a "win" that slows everything else down is rejected by
   construction.  Every candidate is differential-checked against the
   unoptimized program on the IL interpreter — a configuration whose
   output differs is discarded, so legality never rests on the search.
   Deterministic: dimensions are swept in a fixed order and ties break
   toward the static default. *)
let tune ?(options = default_options) ?(config = Titan.Machine.default_config)
    ?(budget = 4) ?(stamp = 1) ?report ?timer ?file src : tune_result =
  let timed phase f =
    match timer with Some t -> Support.Timing.time t phase f | None -> f ()
  in
  timed "tune" @@ fun () ->
  let say fmt =
    Printf.ksprintf
      (fun m -> match report with Some r -> r ("[tune] " ^ m) | None -> ())
      fmt
  in
  let base = parse ?file src in
  (* catalogs import once into the pristine base; every clone below then
     compiles with [catalogs = []] against the already-imported set *)
  List.iter
    (fun f -> Inline.Catalog.import ~into:base (Inline.Catalog.load f))
    options.catalogs;
  let options = { options with catalogs = [] } in
  let reference = run_interp (Il.Prog.clone base) in
  let compile_with plan =
    let p = Il.Prog.clone base in
    let opts =
      {
        options with
        tune = (match plan with None -> `Off | Some pl -> `Plan pl);
        dump = None;
        report = None;
        why_scalar = None;
        verify = `Off;
      }
    in
    ignore (optimize ~options:opts p);
    p
  in
  let simulate p = run_titan ~config ~vreuse:options.vreuse p in
  let matches (r : Titan.Machine.run_result) =
    r.Titan.Machine.stdout_text = reference.Il.Interp.stdout_text
    &&
    match (r.Titan.Machine.return_value, reference.Il.Interp.return_value) with
    | Titan.Machine.Vi a, Il.Interp.V_int b -> a = b
    | Titan.Machine.Vf a, Il.Interp.V_float b -> a = b
    | _ -> false
  in
  (* scout: the nests as the prefix pipeline shapes them — the same
     point [`Use] replay fingerprints, so winners recorded here match *)
  let nests =
    let p = Il.Prog.clone base in
    ignore (optimize ~options:(scout_options options) p);
    Tune.Fingerprint.nests p
  in
  let score (n : Tune.Fingerprint.nest) =
    let measured =
      match options.profile with
      | None -> None
      | Some data -> (
          match Profile.Key.of_loc n.Tune.Fingerprint.loc with
          | None -> None
          | Some key -> (
              match Profile.Data.find_loop data key with
              | None -> None
              | Some lp -> Profile.Data.mean_trips lp))
    in
    match (measured, n.Tune.Fingerprint.trips) with
    | Some t, None :: _ when t > 0 -> n.Tune.Fingerprint.weight * t
    | _ -> n.Tune.Fingerprint.weight
  in
  let ranked =
    let scored = List.map (fun n -> (score n, n)) nests in
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> Int.compare b a) scored
    in
    List.filteri (fun i _ -> i < budget) (List.map snd sorted)
  in
  if List.length nests > budget then
    say "%d nests found, tuning the %d hottest" (List.length nests) budget;
  let static_prog = compile_with None in
  let static_run = simulate static_prog in
  let static_cycles = static_run.Titan.Machine.metrics.Titan.Machine.cycles in
  if not (matches static_run) then
    say "static compile disagrees with the interpreter; tuning anyway";
  let stats = Tune.Search.new_stats () in
  let store = ref Profile.Tuned.empty in
  let winners = ref [] in
  let plan_of extra =
    List.fold_left
      (fun acc ((n : Tune.Fingerprint.nest), (cfg : Tune.Config.t)) ->
        {
          tp_nests =
            List.map (fun l -> (l, cfg)) n.Tune.Fingerprint.loop_locs
            @ acc.tp_nests;
          tp_calls =
            List.filter_map
              (fun (site, callee) ->
                Option.map
                  (fun v -> (site, v))
                  (List.assoc_opt callee cfg.Tune.Config.inline_calls))
              n.Tune.Fingerprint.calls
            @ acc.tp_calls;
        })
      empty_plan extra
  in
  let current = ref static_cycles in
  let improved = ref 0 in
  List.iter
    (fun (n : Tune.Fingerprint.nest) ->
      let opt3 set = List.map set [ None; Some false; Some true ] in
      let dims =
        (if options.vectorize then
           [
             {
               Tune.Search.dim_name = "mode";
               values =
                 List.map
                   (fun m (c : Tune.Config.t) -> { c with Tune.Config.mode = m })
                   [
                     None;
                     Some Tune.Config.Scalar;
                     Some Tune.Config.Vector;
                     Some Tune.Config.Parallel;
                   ];
             };
             {
               Tune.Search.dim_name = "strip";
               values =
                 List.map
                   (fun v (c : Tune.Config.t) ->
                     { c with Tune.Config.strip = v })
                   [ None; Some 8; Some 16; Some 32; Some 64 ];
             };
           ]
         else [])
        @ (if options.interchange && n.Tune.Fingerprint.depth >= 2 then
             [
               {
                 Tune.Search.dim_name = "interchange";
                 values =
                   opt3 (fun v (c : Tune.Config.t) ->
                       { c with Tune.Config.interchange = v });
               };
             ]
           else [])
        @ (if options.fuse then
             [
               {
                 Tune.Search.dim_name = "fuse";
                 values =
                   opt3 (fun v (c : Tune.Config.t) ->
                       { c with Tune.Config.fuse = v });
               };
             ]
           else [])
        @ (if options.vreuse then
             [
               {
                 Tune.Search.dim_name = "vreuse";
                 values =
                   opt3 (fun v (c : Tune.Config.t) ->
                       { c with Tune.Config.vreuse = v });
               };
             ]
           else [])
        @ (if options.doacross_sync then
             [
               {
                 Tune.Search.dim_name = "doacross";
                 values =
                   opt3 (fun v (c : Tune.Config.t) ->
                       { c with Tune.Config.doacross = v });
               };
             ]
           else [])
        @ List.map
            (fun callee ->
              {
                Tune.Search.dim_name = "inline:" ^ callee;
                values =
                  List.map
                    (fun v (c : Tune.Config.t) ->
                      let rest =
                        List.remove_assoc callee c.Tune.Config.inline_calls
                      in
                      {
                        c with
                        Tune.Config.inline_calls =
                          (match v with
                          | None -> rest
                          | Some b -> List.sort compare ((callee, b) :: rest));
                      })
                    [ None; Some false; Some true ];
              })
            (List.sort_uniq compare
               (List.map snd n.Tune.Fingerprint.calls))
      in
      (* a loop pinned scalar gets nothing from a strip length or from
         vector-register reuse: skip those points without simulating *)
      let prune (cfg : Tune.Config.t) =
        cfg.Tune.Config.mode = Some Tune.Config.Scalar
        && (cfg.Tune.Config.strip <> None
           || cfg.Tune.Config.vreuse = Some true)
      in
      let eval (cfg : Tune.Config.t) =
        let plan = plan_of ((n, cfg) :: !winners) in
        let p = compile_with (Some plan) in
        let r = simulate p in
        if matches r then Some r.Titan.Machine.metrics.Titan.Machine.cycles
        else None
      in
      match
        Tune.Search.search ~stats ~prune ~dims ~eval ~init:Tune.Config.default
          ~init_cycles:!current ()
      with
      | None ->
          say "nest at %s (fp %s..): static stays best at %d cycles"
            (Support.Loc.to_string n.Tune.Fingerprint.loc)
            (String.sub n.Tune.Fingerprint.fp 0 8)
            !current
      | Some (cfg, cycles) ->
          incr improved;
          say "nest at %s (fp %s..): %s -> %d cycles (was %d)"
            (Support.Loc.to_string n.Tune.Fingerprint.loc)
            (String.sub n.Tune.Fingerprint.fp 0 8)
            (Tune.Config.to_string cfg) cycles !current;
          store :=
            Profile.Tuned.add !store
              {
                Profile.Tuned.fp = n.Tune.Fingerprint.fp;
                stamp;
                cycles;
                static_cycles = !current;
                fields = Tune.Config.to_fields cfg;
              };
          winners := (n, cfg) :: !winners;
          current := cycles)
    ranked;
  {
    tuned = !store;
    tune_stats = stats;
    nests_considered = List.length ranked;
    nests_improved = !improved;
    static_cycles;
    tuned_cycles = !current;
  }
