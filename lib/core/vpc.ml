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
       → final DCE

   Two tables declare it: [switches] names every on/off switch with the
   -O level that turns it on, and [passes] lists the per-function passes
   in order, each gated on those switches. *)

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

(* The optimizer's on/off switches. *)
type switch = Tune.Decide.switch

type switch_row = {
  switch : switch;
  name : string;
  level : int;  (* on from this -O level up *)
  scout : bool;  (* kept by the scout compile that fingerprints nests *)
  flag : (string * string) option;  (* titancc's off flag and its doc *)
}

(* The one declaration of every switch: -O levels, titancc's flags, the
   compile service's option form, the scout subset, and {!tune}'s search
   dimensions all derive from it. *)
let switches =
  let row ?(scout = false) ?flag switch name level =
    { switch; name; level; scout; flag }
  in
  [
    (* constant propagation + DCE + unreachable code (§8) *)
    row `Scalar_opt "scalar-opt" 1 ~scout:true;
    row `While_conversion "while-to-do" 1 ~scout:true;  (* §5.2 *)
    row `Indvar_substitution "indvar" 1 ~scout:true;  (* §5.3 *)
    row `Strength_reduction "strength-reduction" 1;  (* §6 *)
    row `Vectorize "vectorize" 2
      ~flag:("no-vectorize", "Disable vectorization");
    row `Parallelize "parallelize" 2
      ~flag:("no-parallel", "Disable parallelization");
    row `Scalar_replacement "scalar-replacement" 2;  (* §6 *)
    (* §10: parallelize pragma-marked list loops *)
    row `Doacross "doacross" 2;
    row `Doacross_sync "doacross-sync" 2
      ~flag:
        ( "no-doacross-sync",
          "Disable doacross pipelining of carried-dependence DO loops with \
           post/wait synchronization (on by default at -O2 and above); such \
           loops stay serial" );
    row `Pointsto "pointsto" 2 ~scout:true
      ~flag:
        ( "no-pointsto",
          "Disable the interprocedural points-to and mod/ref analysis (on by \
           default at -O2 and above); dependence testing, the race checker, \
           and inline ranking fall back to worst-case aliasing" );
    row `Range "range" 2 ~scout:true
      ~flag:
        ( "no-range",
          "Disable the interprocedural symbolic range and scalar-evolution \
           analysis (on by default at -O2 and above); dependence testing \
           falls back to unknown symbolic distances and strip loops keep \
           their runtime length guards" );
    row `Inline "inline" 3 ~scout:true;
    (* §7: reorder nest levels by cost model *)
    row `Interchange "interchange" 3
      ~flag:("no-interchange", "Disable loop interchange (nest reordering)");
    (* §7: merge adjacent conformable loops *)
    row `Fuse "fuse" 3
      ~flag:("no-fuse", "Disable loop fusion and strip sharing");
    row `Vreuse "vreuse" 3
      ~flag:
        ( "no-vreuse",
          "Disable vector-register reuse (invariant Vload hoisting, \
           Vstore-to-Vload forwarding, strip-resident accumulators)" );
  ]

let flag_switch name =
  List.find_map
    (fun r ->
      match r.flag with Some (f, _) when f = name -> Some r.switch | _ -> None)
    switches

type options = {
  level : int;  (* -O level: every switch declared at or below it is on *)
  off : switch list;  (* ...except these *)
  inline_only : string list;
      (* non-empty: inline only these callees, at any level *)
  vlen : int;
  assume_noalias : bool;       (* pointer params get Fortran semantics *)
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
  tune : [ `Off | `Use of Profile.Tuned.t | `Plan of Tune.Decide.plan ];
      (* autotuned per-nest overrides: [`Use store] replays winners from
         a fingerprint-keyed store (a scout compile maps fingerprints
         back to this program's loops); [`Plan] applies an already
         resolved plan (the search driver's internal path).  [`Off] and
         an empty store compile byte-identically to no tuning. *)
}

let enabled options sw =
  (not (List.mem sw options.off))
  && ((List.find (fun r -> r.switch = sw) switches).level <= options.level
     || (sw = `Inline && options.inline_only <> []))

(* The decision context every cost-gated pass reads, built once per
   compile.  Every pass that strip-mines divides by the vector length,
   so a length below 1 is refused here, at the one place each library
   entry point (compile, tune, the compile service) passes through. *)
let decide ?plan ?log options =
  if options.vlen < 1 then
    invalid_arg
      (Printf.sprintf "Vpc: vector length must be at least 1 (got %d)"
         options.vlen);
  {
    Tune.Decide.switches =
      List.filter_map
        (fun r -> if enabled options r.switch then Some r.switch else None)
        switches;
    assume_noalias = options.assume_noalias;
    vlen = options.vlen;
    profile = options.profile;
    plan;
    log;
    report = options.report;
    why_scalar = options.why_scalar;
  }

let at_level level =
  {
    level;
    off = [];
    inline_only = [];
    vlen = 32;
    assume_noalias = false;
    catalogs = [];
    dump = None;
    verify = `Off;
    profile = None;
    report = None;
    why_scalar = None;
    tune = `Off;
  }

(* -O0 is the naive translation; -O1 adds classical scalar optimization,
   -O2 vectorization and parallelization, -O3 inlining and nest
   restructuring. *)
let o0 = at_level 0
let o1 = at_level 1
let o2 = at_level 2
let o3 = at_level 3

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
   the search driver did.  Diagnostics and tuning itself are off. *)
let scout_options options =
  {
    options with
    off =
      options.off
      @ List.filter_map
          (fun r -> if r.scout then None else Some r.switch)
          switches;
    verify = `Off;
    dump = None;
    report = None;
    why_scalar = None;
    tune = `Off;
  }

(* What a per-function pass sees. *)
type ctx = {
  prog : Il.Prog.t;
  decide : Tune.Decide.t;
  stats : stats;
  range : Range.Range.t option;  (* whole-program parameter seeding *)
}

(* A lazy per-function range dataflow over [f]'s body as it is now.
   Passes renumber statements, so each consumer takes a fresh one;
   [None] facts for statements the fenv does not know (fresh ids, or a
   stale body) keep every consumer conservative. *)
let range_env_at ctx f =
  Option.map
    (fun t ->
      let fe = lazy (Range.Range.analyze_func t ctx.prog f) in
      fun (s : Il.Stmt.t) ->
        Range.Range.env_before (Lazy.force fe) s.Il.Stmt.id)
    ctx.range

let range_interval env_at s e =
  match env_at s with
  | None -> (None, None)
  | Some env ->
      let itv = Range.Range.interval_of_expr env e in
      (itv.Range.Range.Interval.lo, itv.Range.Range.Interval.hi)

type pass = {
  pass : string;  (* checkpoint stage and [--timings] bucket *)
  gate : (switch -> bool) -> bool;  (* given which switches are on *)
  run : ctx -> Il.Func.t -> unit;
}

(* A pass that runs while switch [sw] is on. *)
let step pass sw run = { pass; gate = (fun on -> on sw); run }

let scalar_cleanup =
  step "scalar-cleanup" `Scalar_opt (fun ctx f ->
      let stats = ctx.stats in
      let range =
        Option.map
          (fun env_at s c ->
            Option.bind (env_at s) (fun env -> Range.Range.truth env c))
          (range_env_at ctx f)
      in
      ignore
        (Analysis.Const_prop.run ~stats:stats.const_prop ?range ctx.prog f);
      let dce = Analysis.Dce.run ~stats:stats.dce f in
      (* a second DCE finds work only in what the postpass changed, or
         where the first one stopped at its round cap *)
      if Analysis.Unreachable.run ~stats:stats.unreachable f || dce = `Capped
      then ignore (Analysis.Dce.run ~stats:stats.dce f))

(* The per-function pipeline, in order. *)
let passes =
  [
    scalar_cleanup;
    step "while-to-do" `While_conversion (fun ctx f ->
        ignore
          (Transform.While_to_do.run ~stats:ctx.stats.while_to_do ctx.prog f));
    step "indvar-substitution" `Indvar_substitution (fun ctx f ->
        ignore (Transform.Indvar.run ~stats:ctx.stats.indvar ctx.prog f));
    scalar_cleanup;
    step "forward-substitution" `Indvar_substitution (fun ctx f ->
        ignore
          (Transform.Forward_sub.run ~stats:ctx.stats.forward_sub ctx.prog f));
    {
      scalar_cleanup with
      gate = (fun on -> on `Indvar_substitution && on `Scalar_opt);
    };
    (* Nest restructuring (§7) runs on the cleaned-up DO-loop form, before
       codegen: fusion first (merging nests exposes more statements to one
       strip loop), then interchange (the merged nest is reordered as a
       whole). *)
    step "fuse" `Fuse (fun ctx f ->
        ignore
          (Transform.Fuse.run ~stats:ctx.stats.fuse ctx.decide ctx.prog f));
    step "interchange" `Interchange (fun ctx f ->
        ignore
          (Transform.Interchange.run ~stats:ctx.stats.interchange ctx.decide
             ctx.prog f));
    {
      pass = "vectorize";
      gate = (fun on -> on `Vectorize || on `Parallelize);
      run =
        (fun ctx f ->
          let range =
            Option.map
              (fun env_at ->
                {
                  Vectorize.Vectorize.rf_interval = range_interval env_at;
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
                })
              (range_env_at ctx f)
          in
          ignore
            (Vectorize.Vectorize.run ~stats:ctx.stats.vectorize ?range
               ctx.decide ctx.prog f));
    };
    step "vreuse" `Vreuse (fun ctx f ->
        ignore
          (Transform.Vreuse.run ~stats:ctx.stats.vreuse ctx.decide ctx.prog f));
    {
      pass = "doacross";
      gate = (fun on -> on `Doacross || on `Doacross_sync);
      run =
        (fun ctx f ->
          ignore
            (Transform.Doacross.run ~stats:ctx.stats.doacross
               ?range:(Option.map range_interval (range_env_at ctx f))
               ctx.decide ctx.prog f));
    };
    step "scalar-replacement" `Scalar_replacement (fun ctx f ->
        ignore
          (Transform.Scalar_replace.run ~stats:ctx.stats.scalar_replace ctx.prog
             f));
    step "strength-reduction" `Strength_reduction (fun ctx f ->
        ignore
          (Transform.Strength_reduction.run ~stats:ctx.stats.strength_reduction
             ctx.prog f));
    step "dce" `Scalar_opt (fun ctx f ->
        ignore (Analysis.Dce.run ~stats:ctx.stats.dce f));
  ]

(* Run the optimization pipeline in place.  [timer] buckets the wall
   time of each phase group, and of each per-function pass inside
   "transforms", for [--timings]; [log] records every tuning query and
   the decision it resolved to. *)
let rec optimize ?(options = default_options) ?(stats = new_stats ()) ?timer
    ?log (prog : Il.Prog.t) =
  let timed phase f =
    match timer with Some t -> Support.Timing.time t phase f | None -> f ()
  in
  let on = enabled options in
  (* Resolve the tuning request into a per-location plan before anything
     mutates [prog]: [`Use] fingerprints a scout clone (which runs the
     same prefix pipeline, including its own catalog import) and maps
     matching store records back to this program's loops.  An empty store
     resolves to no plan, so no override answers and the compile is
     byte-identical to an untuned one. *)
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
                 let stored (n : Tune.Fingerprint.nest) =
                   match Profile.Tuned.find store n.Tune.Fingerprint.fp with
                   | None -> None
                   | Some r -> (
                       match Tune.Config.of_fields r.Profile.Tuned.fields with
                       | exception _ -> None (* unknown fields: skip *)
                       | cfg -> Some (n, cfg))
                 in
                 Tune.Decide.plan_of
                   (List.filter_map stored (Tune.Fingerprint.nests clone))))
  in
  let decide = decide ?plan ?log options in
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
    if on `Pointsto then
      Some (timed "pointsto" (fun () -> Pointsto.Pointsto.analyze prog))
    else None
  in
  let pt = ref (analyze_pointsto ()) in
  (* Symbolic ranges follow the same lifecycle: whole-program parameter
     seeding up front (and again after inlining), per-function dataflow
     on demand ({!range_env_at}).  Nothing reads the ranges before
     inlining replaces them (the inliner consults points-to only), so an
     inlining compile seeds once, after. *)
  let analyze_range () =
    if on `Range then Some (timed "range" (fun () -> Range.Range.analyze prog))
    else None
  in
  let rt = ref (if on `Inline then None else analyze_range ()) in
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
  if on `Inline then begin
    timed "inline" (fun () ->
        Inline.Inline.expand
          ?only:(match options.inline_only with [] -> None | ns -> Some ns)
          ?pointsto:!pt ~stats:stats.inline decide prog);
    pt := analyze_pointsto ();
    rt := analyze_range ();
    install_oracle ();
    after_prog_pass ?pointsto:!pt ?range:!rt options prog "inline"
  end;
  let ctx = { prog; decide; stats; range = !rt } in
  let active = List.filter (fun p -> p.gate on) passes in
  timed "transforms" (fun () ->
      List.iter
        (fun f ->
          List.iter
            (fun p ->
              timed p.pass (fun () -> p.run ctx f);
              after_pass ?pointsto:!pt ?range:!rt options prog f p.pass)
            active)
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

(* The differential check of --check and of tuning: a simulated run
   agrees with the reference interpretation when it prints the same
   text and returns the same value. *)
let matches_reference (reference : Il.Interp.result)
    (r : Titan.Machine.run_result) =
  r.Titan.Machine.stdout_text = reference.Il.Interp.stdout_text
  &&
  match (r.Titan.Machine.return_value, reference.Il.Interp.return_value) with
  | Titan.Machine.Vi a, Il.Interp.V_int b -> a = b
  | Titan.Machine.Vf a, Il.Interp.V_float b -> a = b
  | _ -> false

(* Convenience: compile under [options], simulate under [config]. *)
let compile_and_simulate ?(options = default_options)
    ?(config = Titan.Machine.default_config) src =
  let prog, stats = compile ~options src in
  let result = run_titan ~config ~vreuse:(enabled options `Vreuse) prog in
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

(* The search space of one nest: a dimension per knob, each searched
   only while its switch is on. *)
let tune_dims options (n : Tune.Fingerprint.nest) =
  let dim sw dim_name values =
    if enabled options sw then [ { Tune.Search.dim_name; values } ] else []
  in
  let tri sw dim_name set =
    dim sw dim_name (List.map set [ None; Some false; Some true ])
  in
  dim `Vectorize "mode"
    (List.map
       (fun m (c : Tune.Config.t) -> { c with Tune.Config.mode = m })
       [
         None;
         Some Tune.Config.Scalar;
         Some Tune.Config.Vector;
         Some Tune.Config.Parallel;
       ])
  @ dim `Vectorize "strip"
      (List.map
         (fun v (c : Tune.Config.t) -> { c with Tune.Config.strip = v })
         [ None; Some 8; Some 16; Some 32; Some 64 ])
  @ (if n.Tune.Fingerprint.depth >= 2 then
       tri `Interchange "interchange" (fun v (c : Tune.Config.t) ->
           { c with Tune.Config.interchange = v })
     else [])
  @ tri `Fuse "fuse" (fun v (c : Tune.Config.t) ->
        { c with Tune.Config.fuse = v })
  @ tri `Vreuse "vreuse" (fun v (c : Tune.Config.t) ->
        { c with Tune.Config.vreuse = v })
  @ tri `Doacross_sync "doacross" (fun v (c : Tune.Config.t) ->
        { c with Tune.Config.doacross = v })
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
  let simulate p = run_titan ~config ~vreuse:(enabled options `Vreuse) p in
  let matches = matches_reference reference in
  (* A candidate's result: its cycles, or [None] when its output is not
     the reference's. *)
  let outcome r =
    if matches r then Some r.Titan.Machine.metrics.Titan.Machine.cycles
    else None
  in
  (* Every compile so far, as the decisions it made and its outcome.  A
     compile is a function of the decisions its queries resolve to, so a
     plan that resolves each logged query the same way builds the same
     program: it takes that outcome without compiling or simulating. *)
  let compiled = ref [] in
  let evaluate plan =
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
    let log = Tune.Decide.recorder () in
    ignore (optimize ~options:opts ~log p);
    let run = simulate p in
    compiled := (log, outcome run) :: !compiled;
    run
  in
  (* scout: the nests as the prefix pipeline shapes them — the same
     point [`Use] replay fingerprints, so winners recorded here match *)
  let nests =
    let p = Il.Prog.clone base in
    ignore (optimize ~options:(scout_options options) p);
    Tune.Fingerprint.nests p
  in
  let decide = decide options in
  let score (n : Tune.Fingerprint.nest) =
    let measured = Tune.Decide.trips decide n.Tune.Fingerprint.loc in
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
  let static_run = evaluate None in
  let static_cycles = static_run.Titan.Machine.metrics.Titan.Machine.cycles in
  if not (matches static_run) then
    say "static compile disagrees with the interpreter; tuning anyway";
  let stats = Tune.Search.new_stats () in
  let store = ref Profile.Tuned.empty in
  let winners = ref [] in
  let current = ref static_cycles in
  let improved = ref 0 in
  List.iter
    (fun (n : Tune.Fingerprint.nest) ->
      let dims = tune_dims options n in
      let plan cfg = Some (Tune.Decide.plan_of ((n, cfg) :: !winners)) in
      let settle cfg =
        let plan = plan cfg in
        List.find_map
          (fun (log, r) ->
            if Tune.Decide.same_decisions log plan then Some r else None)
          !compiled
      in
      let eval cfg = outcome (evaluate (plan cfg)) in
      match
        Tune.Search.search ~stats ~settle ~dims ~eval
          ~init:Tune.Config.default ~init_cycles:!current ()
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
