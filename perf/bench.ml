(* The four workloads and the closed loop that measures them.

   One run, in one process with one client: set up (repeated, the median
   is [setup_s]), one untimed warm-up pass, the timed phase, then the
   post-run checks.  The timed phase issues a fixed number of whole
   passes over the workload's requests -- [--seconds] over the
   workload's calibrated pass duration, and never fewer than
   [min_requests] requests -- so a run does the same work on every
   commit and weighs every program equally.

   The compiler is driven only through its public entry points
   ([Vpc.parse]/[optimize]/[compile]/[run_titan]/[run_interp]/[tune],
   [Titan.Codegen.gen_program], [Vpc_server.Service.compile] and
   [Cache], [Dependence.Test.cache_stats], and the [?timer] buckets), and
   every output is checked against a reference the compiler under test
   did not produce: the -O0 IL interpreter for program output, a fresh
   compile for served text. *)

module Machine = Vpc.Titan.Machine
module Service = Vpc_server.Service

(* ---- per-run accounting ---- *)

type ctx = {
  tr : Trace.t option;  (* the run's tracer; [None] on untraced runs *)
  counts : (string, float ref) Hashtbl.t;
      (* deterministic per-layer counts, summed over the warm-up pass and
         the post-run checks (never over timed requests) *)
  mutable attempted : int;
  mutable failed : int;
  mutable rows : Json.t list;  (* per-program rows, newest first *)
}

let count ctx k v =
  match Hashtbl.find_opt ctx.counts k with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace ctx.counts k (ref v)

let counted ctx k = match Hashtbl.find_opt ctx.counts k with Some r -> !r | None -> 0.0

exception Check_failed of string

let fail what = raise (Check_failed what)

(* Run one checked unit of work: a failed check or any other exception
   (a runaway guard included) counts one failure, and the run goes on. *)
let attempt ctx what f =
  ctx.attempted <- ctx.attempted + 1;
  try f ()
  with e ->
    ctx.failed <- ctx.failed + 1;
    Printf.eprintf "[perf] FAIL %s: %s\n%!" what
      (match e with Check_failed m -> m | e -> Printexc.to_string e)

let now = Unix.gettimeofday

(* ---- host speed ----

   The machines this runs on share their cores: on the one it was sized
   on, everything slowed by up to 1.5x for minutes at a time.  So a fixed
   piece of work of the benchmark's own -- string hashing, sorting, and
   building and walking a tree, the mix a compiler does -- is timed
   between requests, and every request and set-up time is scaled by
   [reference_ms / calibration]: times read as milliseconds on the
   sizing machine, and the host's drift cancels.  Measured there, raw
   compile-and-simulate times moved by 50% while their ratio to the
   calibration stayed within 3%.  The calibration runs no compiler code,
   so no change to the compiler can move it. *)

let calibration_work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20000 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 10007)) i
  done;
  let sorted = List.sort compare (List.init 20000 (fun i -> float_of_int (i * 7919 mod 10007))) in
  let rec tree d = if d = 0 then `Leaf else `Node (tree (d - 1), tree (d - 1)) in
  let rec size = function `Leaf -> 1 | `Node (a, b) -> size a + size b in
  ignore (Sys.opaque_identity (Hashtbl.length h + List.length sorted + size (tree 14)))

(* [calibration_work]'s median time on the sizing machine (2 vCPU Xeon
   VM, OCaml 5.1 native, quiet host) *)
let reference_ms = 7.5

(* Host speed relative to the sizing machine: multiply a measured time
   by it. *)
let host_speed () =
  let once () =
    let t0 = now () in
    calibration_work ();
    1000.0 *. (now () -. t0)
  in
  reference_ms /. Stats.median (List.init 3 (fun _ -> once ()))

(* ---- the layers, each call wrapped in a span ---- *)

let machine procs = { Machine.default_config with procs; max_insts = 50_000_000 }
let file (p : Gen.program) = p.Gen.name ^ ".c"

type reference = { out : string; ret : Vpc.Il.Interp.value }

let interp_reference ctx (p : Gen.program) =
  let prog, _ = Vpc.compile ~options:Vpc.o0 ~file:(file p) p.Gen.src in
  let r = Trace.with_span ctx.tr "il.interp" (fun () -> Vpc.run_interp prog) in
  { out = r.Vpc.Il.Interp.stdout_text; ret = r.Vpc.Il.Interp.return_value }

let matches want (r : Machine.run_result) =
  r.Machine.stdout_text = want.out
  &&
  match (r.Machine.return_value, want.ret) with
  | Machine.Vi a, Vpc.Il.Interp.V_int b -> a = b
  | Machine.Vf a, Vpc.Il.Interp.V_float b -> a = b
  | _ -> false

let check_output what want r =
  if not (matches want r) then
    fail
      (Printf.sprintf "%s: simulator output %S differs from the -O0 interpreter's %S"
         what r.Machine.stdout_text want.out)

let timer_attrs tr timer =
  Option.iter
    (fun t ->
      List.iter (fun (k, s) -> Trace.attr tr k s) (Vpc.Support.Timing.phases t))
    timer

(* The compile [titancc -O 3] runs: [Vpc.compile] with no dump or verify
   checkpoint is exactly parse, then optimize.  A traced call also reads
   the phase timer and the dependence memo's hit counters.  [on_parse]
   sees the IL before the optimizer rewrites it. *)
let compile ?(options = Vpc.o3) ?(on_parse = ignore) tr (p : Gen.program) =
  let prog =
    Trace.with_span tr "cfront.parse" (fun () -> Vpc.parse ~file:(file p) p.Gen.src)
  in
  on_parse prog;
  let stats =
    Trace.with_span tr "core.optimize" (fun () ->
        let timer = Option.map (fun _ -> Vpc.Support.Timing.create ()) tr in
        let h0, l0 = Vpc.Dependence.Test.cache_stats () in
        let stats = Vpc.optimize ~options ?timer prog in
        let h1, l1 = Vpc.Dependence.Test.cache_stats () in
        timer_attrs tr timer;
        Trace.attr tr "memo_lookups" (float_of_int (l1 - l0));
        Trace.attr tr "memo_hits" (float_of_int (h1 - h0));
        stats)
  in
  (prog, stats)

let simulate tr prog procs =
  Trace.with_span tr "titan.sim" (fun () ->
      let r = Vpc.run_titan ~config:(machine procs) ~vreuse:true prog in
      Trace.attr tr "insts" (float_of_int r.Machine.metrics.Machine.insts);
      r)

let codegen ?vreuse tr prog =
  Trace.with_span tr "titan.codegen" (fun () ->
      let layout = Machine.layout_globals prog in
      Vpc.Titan.Codegen.gen_program ?vreuse prog ~global_addr:(fun id ->
          Hashtbl.find layout.Machine.addr_of id))

let code_insts (tp : Vpc.Titan.Isa.program) =
  Hashtbl.fold
    (fun _ (f : Vpc.Titan.Isa.func) n -> n + Array.length f.Vpc.Titan.Isa.code)
    tp.Vpc.Titan.Isa.funcs 0

(* The [titancc --dump-asm] listing: functions sorted by name. *)
let asm_listing (tp : Vpc.Titan.Isa.program) =
  Hashtbl.fold (fun name f acc -> (name, f) :: acc) tp.Vpc.Titan.Isa.funcs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (_, f) -> Format.asprintf "%a@." Vpc.Titan.Isa.pp_func f)
  |> String.concat ""

let il_stmts (prog : Vpc.Il.Prog.t) =
  List.fold_left
    (fun n (f : Vpc.Il.Func.t) ->
      let k = ref 0 in
      Vpc.Il.Stmt.iter_list (fun _ -> incr k) f.Vpc.Il.Func.body;
      n + !k)
    0 prog.Vpc.Il.Prog.funcs

(* One [Service.compile]; a full hit serves every component from cache. *)
let serve tr cache (req : Service.request) =
  Trace.with_span tr "server.compile" (fun () ->
      let timer = Option.map (fun _ -> Vpc.Support.Timing.create ()) tr in
      let r = Service.compile ?timer cache req in
      timer_attrs tr timer;
      let hit = r.Service.res_components > 0 && r.Service.res_cached = r.Service.res_components in
      Trace.attr tr "hit" (if hit then 1.0 else 0.0);
      Trace.attr tr "components" (float_of_int r.Service.res_components);
      Trace.attr tr "cached" (float_of_int r.Service.res_cached);
      (r, hit))

let request_of (p : Gen.program) =
  { Service.req_file = file p; req_src = p.Gen.src; req_opts = Service.default_copts }

(* ---- per-layer counts of one reference compile and run ---- *)

let count_compile ctx (s : Vpc.stats) ~parsed ~final =
  let c k v = count ctx k (float_of_int v) in
  c "cfront.il_stmts" parsed;
  c "core.il_stmts_final" final;
  c "vectorize.loops_vectorized" s.Vpc.vectorize.loops_vectorized;
  c "vectorize.loops_parallelized" s.Vpc.vectorize.loops_parallelized;
  c "vectorize.strip_loops_shared" s.Vpc.vectorize.strip_loops_shared;
  c "inline.calls_inlined" s.Vpc.inline.calls_inlined;
  c "transform.while_converted" s.Vpc.while_to_do.converted;
  c "transform.ivs_found" s.Vpc.indvar.ivs_found;
  c "transform.nests_interchanged" s.Vpc.interchange.nests_interchanged;
  c "transform.loops_fused" s.Vpc.fuse.loops_fused;
  c "transform.do_pipelined" s.Vpc.doacross.do_pipelined;
  c "transform.accumulators_localized" s.Vpc.vreuse.accumulators_localized;
  c "transform.stores_forwarded" s.Vpc.vreuse.stores_forwarded;
  c "analysis.branches_folded" s.Vpc.const_prop.branches_folded;
  c "analysis.stmts_removed"
    (s.Vpc.const_prop.stmts_removed + s.Vpc.dce.removed + s.Vpc.unreachable.removed)

let count_run ctx (r : Machine.run_result) =
  let m = r.Machine.metrics in
  let c k v = count ctx k (float_of_int v) in
  c "titan.sim_insts" m.Machine.insts;
  c "titan.busy_iu" m.Machine.busy_iu;
  c "titan.busy_fpu" m.Machine.busy_fpu;
  c "titan.busy_mem" m.Machine.busy_mem;
  c "titan.post_wait_stalls" m.Machine.post_wait_stalls;
  c "titan.parallel_regions" m.Machine.parallel_regions;
  c "titan.vector_mem_elems_avoided" m.Machine.vector_mem_elems_avoided;
  c "titan.mem_ops" m.Machine.mem_ops

let count_tune ctx (t : Vpc.tune_result) =
  let c k v = count ctx k (float_of_int v) in
  let s = t.Vpc.tune_stats in
  c "tune.evaluated" s.Vpc.Tune.Search.evaluated;
  c "tune.pruned" s.Vpc.Tune.Search.pruned;
  c "tune.rejected" s.Vpc.Tune.Search.rejected;
  c "tune.nests_considered" t.Vpc.nests_considered;
  c "tune.nests_improved" t.Vpc.nests_improved

let row ctx name fields =
  ctx.rows <-
    Json.Obj (("name", Json.Str name) :: List.map (fun (k, v) -> (k, Json.Num v)) fields)
    :: ctx.rows

(* A compile whose per-layer counts are recorded. *)
let counted_compile ctx p =
  let parsed = ref 0 in
  let prog, stats = compile ~on_parse:(fun pr -> parsed := il_stmts pr) ctx.tr p in
  count_compile ctx stats ~parsed:!parsed ~final:(il_stmts prog);
  prog

(* The reference pass over one program, as [titancc FILE -O 3 -p N]
   would compile and run it at 1 and 4 processors. *)
let reference_run ctx (p : Gen.program) want =
  let prog = counted_compile ctx p in
  let insts = code_insts (codegen ~vreuse:true ctx.tr prog) in
  let r1 = simulate ctx.tr prog 1 and r4 = simulate ctx.tr prog 4 in
  check_output (p.Gen.name ^ " -p 1") want r1;
  check_output (p.Gen.name ^ " -p 4") want r4;
  count_run ctx r4;
  let c (r : Machine.run_result) = r.Machine.metrics.Machine.cycles in
  row ctx p.Gen.name
    [
      ("cycles_p1", float_of_int (c r1));
      ("cycles_p4", float_of_int (c r4));
      ("code_insts", float_of_int insts);
      ("sim_insts_p4", float_of_int r4.Machine.metrics.Machine.insts);
    ];
  (c r1, c r4)

(* ---- post-run cross-checks ---- *)

(* What a compile serves -- the optimized IL and the [--dump-asm]
   listing -- as a digest. *)
let texts il asm = Digest.string (il ^ "\000" ^ asm)
let served_texts (r : Service.response) = texts r.Service.res_il r.Service.res_asm

let fresh_texts tr p =
  let prog, _ = compile tr p in
  texts (Vpc.Il.Pp.prog_to_string prog) (asm_listing (codegen tr prog))

(* Served text must equal a fresh compile, on a cold miss and on the
   repeat that must hit. *)
let server_check ctx (programs : Gen.program list) =
  let cache = Vpc_server.Cache.create () in
  List.iter
    (fun (p : Gen.program) ->
      attempt ctx ("serve " ^ p.Gen.name) (fun () ->
          let want = fresh_texts ctx.tr p in
          let cold, cold_hit = serve ctx.tr cache (request_of p) in
          let warm, warm_hit = serve ctx.tr cache (request_of p) in
          if cold_hit then fail "the first request hit an empty cache";
          if not warm_hit then fail "the repeated request missed";
          if served_texts cold <> want || served_texts warm <> want then
            fail "served text differs from a fresh compile"))
    programs

(* One tune request: search at 4 processors, replay the winners through
   a [`Use] store, simulate.  Replay must reproduce the searched cycle
   count, the tuned program may not be slower than static, and its
   output must equal the reference. *)
let tune_once tr (p : Gen.program) want ~timed =
  let result = ref None in
  timed (fun () ->
      let t =
        Trace.with_span tr "tune.search" (fun () ->
            let t = Vpc.tune ~config:(machine 4) ~budget:4 ~file:(file p) p.Gen.src in
            Trace.attr tr "sim_seconds" t.Vpc.tune_stats.Vpc.Tune.Search.sim_seconds;
            t)
      in
      let prog =
        Trace.with_span tr "tune.replay" (fun () ->
            fst (compile ~options:{ Vpc.o3 with Vpc.tune = `Use t.Vpc.tuned } tr p))
      in
      result := Some (t, prog, simulate tr prog 4));
  match !result with
  | None -> None
  | Some (t, prog, r) ->
      let cycles = r.Machine.metrics.Machine.cycles in
      if cycles <> t.Vpc.tuned_cycles then
        fail
          (Printf.sprintf "%s: replay ran %d cycles, the search measured %d" p.Gen.name
             cycles t.Vpc.tuned_cycles);
      if t.Vpc.tuned_cycles > t.Vpc.static_cycles then
        fail
          (Printf.sprintf "%s: tuned %d cycles > static %d" p.Gen.name t.Vpc.tuned_cycles
             t.Vpc.static_cycles);
      check_output (p.Gen.name ^ " tuned") want r;
      Some (t, prog, r)

let untimed f = f ()

let tune_check ctx p want =
  attempt ctx ("tune " ^ p.Gen.name) (fun () ->
      Option.iter (fun (t, _, _) -> count_tune ctx t) (tune_once ctx.tr p want ~timed:untimed))

(* ---- workloads ---- *)

(* [request ctx ~traced ~timed]: one request; [timed f] runs and times
   the part that counts, everything else (drawing the request, checking
   its result) stays outside the measurement. *)
type request = ctx -> traced:bool -> timed:((unit -> unit) -> unit) -> unit

type workload = {
  setup : ctx -> unit;  (* repeated: must rebuild every piece of state *)
  warmup : ctx -> unit;
  pass : int -> request array;  (* the [k]th pass, drawn from the seed *)
  check : ctx -> unit;
  pass_s : float;
      (* seconds one pass takes on the machine the benchmark was sized
         on (2 vCPU Xeon VM, OCaml 5.1 native): a run of [--seconds s]
         issues s / pass_s passes on every commit *)
}

(* index of the shortest source: the cheapest program to tune *)
let smallest (ps : Gen.program array) =
  let best = ref 0 in
  Array.iteri
    (fun i (p : Gen.program) ->
      if String.length p.Gen.src < String.length ps.(!best).Gen.src then best := i)
    ps;
  !best

(* kernels and stress: compile at -O3 and simulate, one request per
   (program, processors) pair *)
let compile_and_run ~programs ~procs ~server_sample ~pass_s =
  let progs = ref [||] and refs = ref [||] in
  let cycles = Hashtbl.create 64 in
  let setup ctx =
    progs := Array.of_list (Trace.with_span ctx.tr "gen" programs);
    refs := Array.map (interp_reference ctx) !progs
  in
  let warmup ctx =
    Array.iteri
      (fun i p ->
        attempt ctx p.Gen.name (fun () ->
            let c1, c4 = reference_run ctx p !refs.(i) in
            Hashtbl.replace cycles (i, 1) c1;
            Hashtbl.replace cycles (i, 4) c4))
      !progs
  in
  let request (i, n) ctx ~traced ~timed =
    let tr = if traced then ctx.tr else None in
    let p = !progs.(i) in
    let result = ref None in
    timed (fun () ->
        let prog, _ = compile tr p in
        result := Some (simulate tr prog n));
    Option.iter
      (fun r ->
        check_output (Printf.sprintf "%s -p %d" p.Gen.name n) !refs.(i) r;
        match Hashtbl.find_opt cycles (i, n) with
        | Some c when c <> r.Machine.metrics.Machine.cycles ->
            fail
              (Printf.sprintf "%s -p %d: %d cycles, the warm-up ran %d" p.Gen.name n
                 r.Machine.metrics.Machine.cycles c)
        | _ -> ())
      !result
  in
  let pass k =
    let specs =
      Array.of_list
        (List.concat_map
           (fun i -> List.map (fun n -> (i, n)) procs)
           (List.init (Array.length !progs) Fun.id))
    in
    Gen.shuffle (Gen.pass_order k) specs;
    Array.map request specs
  in
  let check ctx =
    server_check ctx (server_sample (Array.to_list !progs));
    let i = smallest !progs in
    tune_check ctx !progs.(i) !refs.(i)
  in
  { setup; warmup; pass; check; pass_s }

let kernels ~quick ~seed =
  let programs () =
    let all = Gen.kernels ~seed in
    if quick then
      List.filter
        (fun (p : Gen.program) ->
          List.mem p.Gen.name [ "daxpy_inline_a"; "vector_add_a"; "backsolve_b" ])
        all
    else all
  in
  compile_and_run ~programs ~procs:[ 1; 4 ] ~server_sample:Fun.id ~pass_s:1.4

(* Percentiles land mid-cluster: with T equally weighted request kinds,
   the nearest-rank p50 and p90 fall in the middle of one kind's samples
   only when T is 5 mod 10; at a boundary they jump between two kinds.
   Five kinds give each percentile the median of ~20 samples of one
   kind.  (The kernels' 52 kinds are packed closely enough around both
   ranks.) *)
let stress_units = 5

let stress ~quick ~seed =
  let programs () =
    let all = Gen.stress ~seed ~units:stress_units in
    if quick then List.filteri (fun i _ -> i < 2) all else all
  in
  (* the two smallest units: a cold miss costs a whole-unit compile *)
  let server_sample ps = List.filteri (fun i _ -> i < 2) ps in
  compile_and_run ~programs ~procs:[ 4 ] ~server_sample ~pass_s:0.7

let tune ~quick ~seed =
  let progs = ref [||] and refs = ref [||] in
  let setup ctx =
    let all = Trace.with_span ctx.tr "gen" (fun () -> Gen.tune ~seed) in
    progs :=
      Array.of_list
        (if quick then
           List.filter
             (fun (p : Gen.program) -> List.mem p.Gen.name [ "transpose"; "backsolve" ])
             all
         else all);
    refs := Array.map (interp_reference ctx) !progs
  in
  let warmup ctx =
    Array.iteri
      (fun i p ->
        attempt ctx p.Gen.name (fun () ->
            let prog = counted_compile ctx p in
            let r1 = simulate ctx.tr prog 1 in
            check_output (p.Gen.name ^ " static -p 1") !refs.(i) r1;
            match tune_once ctx.tr p !refs.(i) ~timed:untimed with
            | None -> ()
            | Some (t, tuned, r4) ->
                count_tune ctx t;
                count_run ctx r4;
                let insts = code_insts (codegen ~vreuse:true ctx.tr tuned) in
                row ctx p.Gen.name
                  [
                    ("cycles_p1", float_of_int r1.Machine.metrics.Machine.cycles);
                    ("cycles_p4", float_of_int r4.Machine.metrics.Machine.cycles);
                    ("static_cycles_p4", float_of_int t.Vpc.static_cycles);
                    ("code_insts", float_of_int insts);
                    ("sim_insts_p4", float_of_int r4.Machine.metrics.Machine.insts);
                  ]))
      !progs
  in
  let request i ctx ~traced ~timed =
    let tr = if traced then ctx.tr else None in
    ignore (tune_once tr !progs.(i) !refs.(i) ~timed)
  in
  let pass k =
    let specs = Array.init (Array.length !progs) Fun.id in
    Gen.shuffle (Gen.pass_order k) specs;
    Array.map request specs
  in
  let check ctx = server_check ctx (Array.to_list !progs) in
  { setup; warmup; pass; check; pass_s = 1.2 }

(* serve: an edit-replay session against a cache built cold in set-up.
   Every fifth request edits one function of a Zipf-popular unit (a
   write that must miss); the rest read one unchanged (full hits).  The
   cycle metrics come from every fifth unit, compiled and run as
   [titancc] would. *)
let serve_workload ~quick ~seed =
  let nunits = if quick then 10 else 120 in
  let units = ref [||] and cache = ref (Vpc_server.Cache.create ()) in
  let sample = List.init ((nunits + 4) / 5) (fun k -> 5 * k) in
  let refs = Hashtbl.create 32 in
  let edits = ref (Gen.rng seed "serve-edits") in
  let zipf = Gen.zipf ~seed nunits in
  let recorded = ref [] and hits = ref 0 in
  let setup ctx =
    units := Trace.with_span ctx.tr "gen" (fun () -> Array.init nunits (Gen.monorepo_unit ~seed));
    edits := Gen.rng seed "serve-edits";
    recorded := [];
    hits := 0;
    cache := Vpc_server.Cache.create ();
    Array.iter (fun u -> ignore (serve None !cache (request_of (Gen.monorepo_program u)))) !units;
    List.iter
      (fun i -> Hashtbl.replace refs i (interp_reference ctx (Gen.monorepo_program !units.(i))))
      sample
  in
  let warmup ctx =
    List.iter
      (fun i ->
        let p = Gen.monorepo_program !units.(i) in
        attempt ctx p.Gen.name (fun () -> ignore (reference_run ctx p (Hashtbl.find refs i))))
      sample;
    Array.iter (fun u -> ignore (serve None !cache (request_of (Gen.monorepo_program u)))) !units
  in
  let request (write, i) ctx ~traced ~timed =
    let u = !units.(i) in
    if write then Gen.edit !edits u;
    let p = Gen.monorepo_program u in
    let served = ref None in
    let tr = if traced then ctx.tr else None in
    timed (fun () -> served := Some (serve tr !cache (request_of p)));
    Option.iter
      (fun (r, hit) ->
        if write && hit then fail "an edited unit was served from cache";
        (* a digest, not the text: memory stays flat however many
           requests a run issues *)
        let record () = recorded := (p, served_texts r) :: !recorded in
        if not hit then record ()
        else begin
          incr hits;
          if !hits mod 10 = 0 then record ()
        end)
      !served
  in
  let pass k =
    let r = Gen.rng seed ("serve-pass", k) in
    Array.init 50 (fun j -> request (j mod 5 = 4, Gen.zipf_draw zipf r))
  in
  let check ctx =
    (* one fresh compile per distinct source: later hits of a version
       compare against the compile its miss was checked with *)
    let fresh = Hashtbl.create 1024 in
    List.iter
      (fun ((p : Gen.program), served) ->
        attempt ctx ("serve check " ^ p.Gen.name) (fun () ->
            let want =
              match Hashtbl.find_opt fresh p.Gen.src with
              | Some d -> d
              | None ->
                  let d = fresh_texts ctx.tr p in
                  Hashtbl.replace fresh p.Gen.src d;
                  d
            in
            if served <> want then fail "served text differs from a fresh compile"))
      (List.rev !recorded);
    let u0 = Gen.monorepo_unit ~seed 0 in
    tune_check ctx (Gen.monorepo_program u0) (Hashtbl.find refs 0)
  in
  { setup; warmup; pass; check; pass_s = 0.18 }

let workloads = [ "kernels"; "stress"; "serve"; "tune" ]

let make name ~quick ~seed =
  match name with
  | "kernels" -> kernels ~quick ~seed
  | "stress" -> stress ~quick ~seed
  | "serve" -> serve_workload ~quick ~seed
  | "tune" -> tune ~quick ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)

(* The programs a workload compiles, for [--dump-corpus]. *)
let corpus name ~seed =
  match name with
  | "kernels" -> Gen.kernels ~seed
  | "stress" -> Gen.stress ~seed ~units:stress_units
  | "tune" -> Gen.tune ~seed
  | "serve" ->
      List.init 120 (fun i -> Gen.monorepo_program (Gen.monorepo_unit ~seed i))
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ---- the run ---- *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  requests : int;  (* timed, untraced *)
  passes : int;
  e2e : metric list;
  layers : metric list;  (* traced runs only *)
  self_times : (string * float * int) list;  (* name, total self ms, spans *)
  rows : Json.t list;
  trace : Trace.t option;
}

let m name value unit_ = { name; value; unit_ }

let span_metrics ~tr ~counts ~(plain : float list) ~(traced : float list)
    ~alloc_per_req ~majors_per_kreq =
  let spans = Trace.spans tr in
  let named n = List.filter (fun (s : Trace.span) -> s.Trace.name = n) spans in
  let ms (s : Trace.span) = (s.Trace.t1 -. s.Trace.t0) *. 1000.0 in
  let attr (s : Trace.span) k =
    match List.assoc_opt k s.Trace.attrs with Some v -> v | None -> 0.0
  in
  let mean_ms n = Stats.mean (List.map ms (named n)) in
  let mean_attr n k = Stats.mean (List.map (fun s -> attr s k) (named n)) in
  let sum_attr n k = Stats.sum (List.map (fun s -> attr s k) (named n)) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let bucket_ms n k = 1000.0 *. mean_attr n k in
  let served hit =
    List.filter (fun s -> attr s "hit" = (if hit then 1.0 else 0.0)) (named "server.compile")
  in
  let p50 = function [] -> 0.0 | l -> Stats.percentile 50.0 l in
  let c k = counts k in
  let opt = "core.optimize" and srv = "server.compile" in
  [
    m "cfront.parse_ms" (mean_ms "cfront.parse") "ms";
    m "cfront.il_stmts" (c "cfront.il_stmts") "stmts";
    m "pointsto.ms" (bucket_ms opt "pointsto") "ms";
    m "range.ms" (bucket_ms opt "range") "ms";
    m "inline.ms" (bucket_ms opt "inline") "ms";
    m "transform.ms"
      (1000.0
      *. Stats.mean (List.map (fun s -> attr s "transforms" -. attr s "doacross") (named opt)))
      "ms";
    m "transform.doacross_ms" (bucket_ms opt "doacross") "ms";
    m "core.optimize_ms" (mean_ms opt) "ms";
    m "core.il_stmts_final" (c "core.il_stmts_final") "stmts";
    m "dependence.memo_lookups" (mean_attr opt "memo_lookups") "count";
    m "dependence.memo_hit_rate" (ratio (sum_attr opt "memo_hits") (sum_attr opt "memo_lookups")) "ratio";
    m "vectorize.loops_vectorized" (c "vectorize.loops_vectorized") "loops";
    m "vectorize.loops_parallelized" (c "vectorize.loops_parallelized") "loops";
    m "vectorize.strip_loops_shared" (c "vectorize.strip_loops_shared") "loops";
    m "inline.calls_inlined" (c "inline.calls_inlined") "calls";
    m "transform.while_converted" (c "transform.while_converted") "loops";
    m "transform.ivs_found" (c "transform.ivs_found") "count";
    m "transform.nests_interchanged" (c "transform.nests_interchanged") "nests";
    m "transform.loops_fused" (c "transform.loops_fused") "loops";
    m "transform.do_pipelined" (c "transform.do_pipelined") "loops";
    m "transform.accumulators_localized" (c "transform.accumulators_localized") "count";
    m "transform.stores_forwarded" (c "transform.stores_forwarded") "count";
    m "analysis.branches_folded" (c "analysis.branches_folded") "count";
    m "analysis.stmts_removed" (c "analysis.stmts_removed") "stmts";
    m "titan.codegen_ms" (mean_ms "titan.codegen") "ms";
    m "titan.sim_ms" (mean_ms "titan.sim") "ms";
    m "titan.sim_insts" (c "titan.sim_insts") "insts";
    m "titan.sim_minsts_per_s"
      (ratio (sum_attr "titan.sim" "insts")
         (1e6 *. Stats.sum (List.map (fun s -> ms s /. 1000.0) (named "titan.sim"))))
      "Minsts/s";
    m "titan.busy_iu" (c "titan.busy_iu") "cycles";
    m "titan.busy_fpu" (c "titan.busy_fpu") "cycles";
    m "titan.busy_mem" (c "titan.busy_mem") "cycles";
    m "titan.post_wait_stalls" (c "titan.post_wait_stalls") "cycles";
    m "titan.parallel_regions" (c "titan.parallel_regions") "count";
    m "titan.vector_mem_elems_avoided" (c "titan.vector_mem_elems_avoided") "elems";
    m "titan.mem_ops" (c "titan.mem_ops") "count";
    m "il.interp_ms" (mean_ms "il.interp") "ms";
    m "server.hit_ms_p50" (p50 (List.map ms (served true))) "ms";
    m "server.miss_ms_p50" (p50 (List.map ms (served false))) "ms";
    m "server.probe_hit_rate" (ratio (sum_attr srv "cached") (sum_attr srv "components")) "ratio";
    m "server.misses" (float_of_int (List.length (served false))) "count";
    m "server.parse_ms" (bucket_ms srv "parse") "ms";
    m "server.fingerprint_ms" (bucket_ms srv "fingerprint") "ms";
    m "server.assemble_ms" (bucket_ms srv "assemble") "ms";
    m "server.optimize_ms" (bucket_ms srv "optimize") "ms";
    m "server.codegen_ms" (bucket_ms srv "codegen") "ms";
    m "server.summaries_ms" (bucket_ms srv "summaries") "ms";
    m "server.store_ms" (bucket_ms srv "store") "ms";
    m "tune.evaluated" (c "tune.evaluated") "count";
    m "tune.pruned" (c "tune.pruned") "count";
    m "tune.rejected" (c "tune.rejected") "count";
    m "tune.eval_s" (mean_attr "tune.search" "sim_seconds") "s";
    m "tune.nests_considered" (c "tune.nests_considered") "nests";
    m "tune.nests_improved" (c "tune.nests_improved") "nests";
    m "tune.replay_ms" (mean_ms "tune.replay") "ms";
    m "gc.alloc_mb_per_req" alloc_per_req "MB/req";
    m "gc.major_collections" majors_per_kreq "1/kreq";
    m "trace.overhead_pct"
      (match (plain, traced) with
      | [], _ | _, [] -> 0.0
      | _ ->
          let a = Stats.percentile 50.0 plain and b = Stats.percentile 50.0 traced in
          100.0 *. (b -. a) /. a)
      "%";
  ]

let run ?(quick = false) ~workload ~seed ~seconds ~trace () =
  let w = make workload ~quick ~seed in
  let tr = if trace then Some (Trace.create ()) else None in
  let ctx = { tr; counts = Hashtbl.create 64; attempted = 0; failed = 0; rows = [] } in
  let min_requests = 100 in
  (* set-up repeats at least five times and for at least half a second,
     so even a 10 ms set-up reports a steady median *)
  let rec setups acc =
    if quick && acc <> [] || (List.length acc >= 5 && Stats.sum acc >= 0.5) then acc
    else begin
      let speed = host_speed () in
      let t0 = now () in
      Trace.with_span tr "setup" (fun () -> w.setup ctx);
      setups (((now () -. t0) *. speed) :: acc)
    end
  in
  let setup_times = setups [] in
  (* the repetitions leave garbage that varies with their count; every
     run starts the warm-up from the same compacted heap, and from there
     on allocates the same, so the peak heap repeats *)
  Gc.compact ();
  Trace.with_span tr "warmup" (fun () -> w.warmup ctx);
  (* timed phase: in a traced run every request runs twice, untraced and
     traced, alternating which goes first *)
  let plain = ref [] and traced = ref [] in
  let plain_wall = ref 0.0 and alloc = ref 0.0 in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  (* a fixed amount of work, the same on every commit: whole passes, at
     least [min_requests] requests; a traced run issues every request
     twice, so it runs half the passes *)
  let per_pass = max 1 (Array.length (w.pass 0)) in
  let passes =
    if quick then 1
    else
      let n =
        max
          ((min_requests + per_pass - 1) / per_pass)
          (int_of_float (Float.round (seconds /. w.pass_s)))
      in
      if trace then (n + 1) / 2 else n
  in
  (* recalibrate about once a second of the sizing machine's time, after
     a fixed number of requests rather than a clock, so the calibration's
     own allocation lands at the same points on every run *)
  let calibrate_every = max 1 (int_of_float (float_of_int per_pass /. w.pass_s)) in
  let issued = ref 0 and executed = ref 0 in
  let speed = ref 1.0 in
  let exec (req : request) ~traced:tflag id =
    if !executed mod calibrate_every = 0 then speed := host_speed ();
    incr executed;
    let failed0 = ctx.failed in
    let dt = ref nan in
    let timed f =
      let t0 = now () in
      if tflag then Trace.with_span tr "request" f else f ();
      dt := now () -. t0
    in
    let a0 = Gc.allocated_bytes () and w0 = now () in
    if tflag then Trace.set_request tr id;
    attempt ctx (Printf.sprintf "request %d" id) (fun () -> req ctx ~traced:tflag ~timed);
    Trace.set_request tr 0;
    if not tflag then begin
      plain_wall := !plain_wall +. ((now () -. w0) *. !speed);
      alloc := !alloc +. (Gc.allocated_bytes () -. a0)
    end;
    if ctx.failed = failed0 && Float.is_finite !dt then
      let l = if tflag then traced else plain in
      l := (1000.0 *. !dt *. !speed) :: !l
  in
  for k = 0 to passes - 1 do
    Array.iter
      (fun req ->
        incr issued;
        let id = !issued in
        if not trace then exec req ~traced:false id
        else if id mod 2 = 0 then (exec req ~traced:false id; exec req ~traced:true id)
        else (exec req ~traced:true id; exec req ~traced:false id))
      (w.pass k)
  done;
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  (* the workload's peak, before the checks add their own *)
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Trace.with_span tr "check" (fun () -> w.check ctx);
  let plain = !plain and n = List.length !plain in
  let rows = List.rev ctx.rows in
  let col k = List.map (fun r -> Json.to_num (Json.member k r)) rows in
  (* a run whose every request failed still prints numbers; its
     [ok_frac] and [correct] say what happened *)
  let geo = function [] -> 0.0 | l -> Stats.geomean l in
  let pct p = function [] -> 0.0 | l -> Stats.percentile p l in
  let e2e =
    [
      m "setup_s" (Stats.median setup_times) "s";
      m "req_per_s" (if n = 0 then 0.0 else float_of_int n /. !plain_wall) "req/s";
      m "req_ms_p50" (pct 50.0 plain) "ms";
      m "req_ms_p90" (pct 90.0 plain) "ms";
      m "ok_frac" (1.0 -. (float_of_int ctx.failed /. float_of_int (max 1 ctx.attempted))) "ok/attempted";
      m "cycles_p1_geomean" (geo (col "cycles_p1")) "cycles";
      m "cycles_p4_geomean" (geo (col "cycles_p4")) "cycles";
      m "code_insts" (Stats.sum (col "code_insts")) "insts";
      m "peak_heap_mb" (float_of_int (peak_words * (Sys.word_size / 8)) /. 1e6) "MB";
    ]
  in
  let layers, self_times =
    match tr with
    | None -> ([], [])
    | Some t ->
        let spans = Trace.spans t in
        let nspans name = List.length (List.filter (fun (s : Trace.span) -> s.Trace.name = name) spans) in
        ( span_metrics ~tr:t ~counts:(counted ctx) ~plain ~traced:!traced
            ~alloc_per_req:(!alloc /. 1e6 /. float_of_int (max 1 n))
            ~majors_per_kreq:(1000.0 *. float_of_int majors /. float_of_int (max 1 !executed)),
          List.map (fun (name, s) -> (name, 1000.0 *. s, nspans name)) (Trace.self_times spans) )
  in
  {
    attempted = ctx.attempted;
    failed = ctx.failed;
    requests = n;
    passes;
    e2e;
    layers;
    self_times;
    rows;
    trace = tr;
  }
