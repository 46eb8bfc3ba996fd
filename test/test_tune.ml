(* Simulator-in-the-loop autotuning: the location-free nest fingerprint,
   the configuration codec, the tuned store's merge, and the replay
   path's determinism and byte-identity guarantees. *)

module Tune = Vpc.Tune
module Tuned = Vpc.Profile.Tuned

(* The nests the scout compile fingerprints, at [options]'s pipeline. *)
let nests_of ?(options = Vpc.o3) src =
  let prog = Vpc.parse src in
  ignore (Vpc.optimize ~options:(Vpc.scout_options options) prog);
  Tune.Fingerprint.nests prog

(* Deterministic name-sorted Titan listing, as --dump-asm prints it. *)
let asm_text prog =
  let layout = Vpc.Titan.Machine.layout_globals prog in
  let tprog =
    Vpc.Titan.Codegen.gen_program prog ~global_addr:(fun id ->
        Hashtbl.find layout.Vpc.Titan.Machine.addr_of id)
  in
  Hashtbl.fold (fun name f acc -> (name, f) :: acc) tprog.Vpc.Titan.Isa.funcs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (_, f) -> Format.asprintf "%a@." Vpc.Titan.Isa.pp_func f)
  |> String.concat ""

let compile_text ~options src =
  let prog, _ = Vpc.compile ~options src in
  (Vpc.Il.Pp.prog_to_string prog, asm_text prog)

(* ---- configuration codec ---- *)

let codec_round_trip () =
  let configs =
    [
      Tune.Config.default;
      { Tune.Config.default with Tune.Config.mode = Some Tune.Config.Scalar };
      {
        Tune.Config.mode = Some Tune.Config.Parallel;
        strip = Some 16;
        interchange = Some true;
        fuse = Some false;
        vreuse = Some true;
        doacross = Some false;
        inline_calls = [ ("f", true); ("g", false) ];
      };
      { Tune.Config.default with Tune.Config.strip = Some 64 };
    ]
  in
  List.iter
    (fun c ->
      let fields = Tune.Config.to_fields c in
      let c' = Tune.Config.of_fields fields in
      if not (Tune.Config.equal c c') then
        Alcotest.failf "codec: %s round-tripped to %s"
          (Tune.Config.to_string c) (Tune.Config.to_string c'))
    configs;
  Alcotest.(check (list (pair string string)))
    "default encodes to no fields" []
    (Tune.Config.to_fields Tune.Config.default);
  (match Tune.Config.of_fields [ ("frobnicate", "yes") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "codec: unknown key accepted");
  match Tune.Config.of_fields [ ("strip", "many") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "codec: malformed strip accepted"

(* ---- fingerprint stability ---- *)

(* The same nest under alpha-renaming of every variable: fingerprints
   must agree (they key the store across edits that rename). *)
let fp_alpha_rename () =
  let src_a =
    {|
      double a[300]; double b[300];
      int main() {
        int i;
        for (i = 0; i < 200; i++)
          a[i] = b[i] * 2.0 + 1.0;
        return 0;
      }
    |}
  in
  let src_b =
    {|
      double xs[300]; double ys[300];
      int main() {
        int k;
        for (k = 0; k < 200; k++)
          xs[k] = ys[k] * 2.0 + 1.0;
        return 0;
      }
    |}
  in
  match (nests_of src_a, nests_of src_b) with
  | [ na ], [ nb ] ->
      Alcotest.(check string)
        "alpha-renamed nest keeps its fingerprint" na.Tune.Fingerprint.fp
        nb.Tune.Fingerprint.fp
  | a, b ->
      Alcotest.failf "expected one nest each, got %d and %d" (List.length a)
        (List.length b)

(* Statements added and shifted *outside* the nest (so every location in
   the file moves) must not disturb the fingerprint; a genuine change of
   the nest's shape must. *)
let fp_outside_reorder () =
  let src_a =
    {|
      double a[300]; double b[300];
      int main() {
        int i;
        for (i = 0; i < 200; i++)
          a[i] = b[i] * 2.0 + 1.0;
        return 0;
      }
    |}
  in
  let src_shifted =
    {|
      double a[300]; double b[300];
      int pad1;
      int pad2;

      int main() {
        int i;
        pad1 = 7;
        pad2 = pad1 + 1;

        for (i = 0; i < 200; i++)
          a[i] = b[i] * 2.0 + 1.0;
        return 0;
      }
    |}
  in
  let src_changed =
    {|
      double a[300]; double b[300];
      int main() {
        int i;
        for (i = 0; i < 200; i++)
          a[i] = b[i] * b[i] + 1.0;
        return 0;
      }
    |}
  in
  let fp_of src =
    match nests_of src with
    | [ n ] -> n.Tune.Fingerprint.fp
    | ns -> Alcotest.failf "expected one nest, got %d" (List.length ns)
  in
  let fa = fp_of src_a in
  Alcotest.(check string)
    "outside-nest edits keep the fingerprint" fa (fp_of src_shifted);
  if fa = fp_of src_changed then
    Alcotest.fail "a changed body kept the same fingerprint"

(* ---- tuned store ---- *)

let record fp ~stamp ~cycles ?(static = 1000) fields =
  { Tuned.fp; stamp; cycles; static_cycles = static; fields }

let store_round_trip () =
  let t =
    Tuned.add
      (Tuned.add Tuned.empty
         (record "aa" ~stamp:2 ~cycles:500 [ ("mode", "vector") ]))
      (record "bb" ~stamp:1 ~cycles:700 [ ("strip", "16") ])
  in
  let t' = Tuned.of_string (Tuned.to_string t) in
  if not (Tuned.equal t t') then Alcotest.fail "store did not round-trip";
  Alcotest.(check string)
    "canonical printing is stable" (Tuned.to_string t) (Tuned.to_string t');
  match Tuned.of_string "(vpc-tuned (version 99) (records))" with
  | exception Vpc.Support.Sexp.Parse_error _ -> ()
  | _ -> Alcotest.fail "future version accepted"

let store_merge_newer_wins () =
  let old_store =
    Tuned.add Tuned.empty
      (record "aa" ~stamp:1 ~cycles:400 [ ("mode", "vector") ])
  in
  let new_store =
    Tuned.add Tuned.empty
      (record "aa" ~stamp:2 ~cycles:600 [ ("mode", "scalar") ])
  in
  let merged = Tuned.merge old_store new_store in
  (match Tuned.find merged "aa" with
  | Some r ->
      Alcotest.(check int) "newer stamp wins even when slower" 2
        r.Tuned.stamp;
      Alcotest.(check int) "winner's cycles kept" 600 r.Tuned.cycles
  | None -> Alcotest.fail "record lost in merge");
  (* symmetric direction: merging old into new keeps the same winner *)
  let merged' = Tuned.merge new_store old_store in
  if not (Tuned.equal merged merged') then
    Alcotest.fail "merge is not symmetric on stamps";
  (* equal stamps: the lower cycle count wins *)
  let a = Tuned.add Tuned.empty (record "cc" ~stamp:3 ~cycles:100 []) in
  let b =
    Tuned.add Tuned.empty (record "cc" ~stamp:3 ~cycles:90 [ ("fuse", "off") ])
  in
  match Tuned.find (Tuned.merge a b) "cc" with
  | Some r -> Alcotest.(check int) "stamp tie: fewer cycles win" 90 r.Tuned.cycles
  | None -> Alcotest.fail "record lost in tie merge"

(* ---- replay guarantees ---- *)

(* An empty (or missing) store must compile byte-identically to no
   tuning at every optimization level: IL text and Titan listing. *)
let empty_store_byte_identity () =
  let src = Helpers.read_file "../examples/saxpy_chain.c" in
  List.iter
    (fun (lname, base) ->
      let plain = compile_text ~options:base src in
      let replay =
        compile_text ~options:{ base with Vpc.tune = `Use Tuned.empty } src
      in
      Alcotest.(check string)
        (Printf.sprintf "IL identical under empty store at %s" lname)
        (fst plain) (fst replay);
      Alcotest.(check string)
        (Printf.sprintf "asm identical under empty store at %s" lname)
        (snd plain) (snd replay))
    Helpers.all_levels

(* Search a small program, then replay the winners: the tuned compile
   must be deterministic (byte-identical asm across replays), no slower
   than static, and output-equal to the unoptimized reference. *)
let search_and_replay () =
  let src = Helpers.read_file "../examples/saxpy_chain.c" in
  let tr = Vpc.tune ~options:Vpc.o3 ~budget:2 ~stamp:1 src in
  if tr.Vpc.tuned_cycles > tr.Vpc.static_cycles then
    Alcotest.failf "tuning made the program slower: %d > %d"
      tr.Vpc.tuned_cycles tr.Vpc.static_cycles;
  let options = { Vpc.o3 with Vpc.tune = `Use tr.Vpc.tuned } in
  let il1, asm1 = compile_text ~options src in
  let il2, asm2 = compile_text ~options src in
  Alcotest.(check string) "replayed IL is deterministic" il1 il2;
  Alcotest.(check string) "replayed asm is deterministic" asm1 asm2;
  let reference = Helpers.interp_output (Helpers.compile ~options:Vpc.o0 src) in
  let tuned_prog, _ = Vpc.compile ~options src in
  Alcotest.(check string)
    "tuned program agrees with the unoptimized reference" reference
    (Helpers.titan_output
       ~config:{ Vpc.Titan.Machine.default_config with procs = 4 }
       tuned_prog);
  (* the store's fingerprints resolve on a fresh parse of the same
     source: replay does not depend on any state from the search *)
  if not (Tuned.is_empty tr.Vpc.tuned) then begin
    let plain = compile_text ~options:Vpc.o3 src in
    if (il1, asm1) = plain then
      Alcotest.fail "winners found but replay equals the static compile"
  end

(* ---- every override reaches its pass ----

   One row per override the tuning plan can carry.  Each row forces the
   answer the static (or profiled) compile does not pick; the override
   must change the emitted IL, and the overridden program must still
   compute what the -O0 interpretation computes. *)

(* The scout nest headed at source line [line]. *)
let nest_at src line =
  match
    List.find_opt
      (fun (n : Tune.Fingerprint.nest) ->
        n.Tune.Fingerprint.loc.Vpc.Support.Loc.start_pos.Vpc.Support.Loc.line
        = line)
      (nests_of src)
  with
  | Some n -> n
  | None -> Alcotest.failf "no scout nest at line %d" line

(* The location of the first direct call of [callee] in [src]. *)
let call_site src callee =
  let prog = Vpc.parse src in
  let site =
    List.find_map
      (fun f ->
        List.find_map
          (fun (s : Vpc.Il.Stmt.t) ->
            match s.Vpc.Il.Stmt.desc with
            | Vpc.Il.Stmt.Call (_, Vpc.Il.Stmt.Direct name, _)
              when name = callee ->
                Some s.Vpc.Il.Stmt.loc
            | _ -> None)
          (Vpc.Il.Func.all_stmts f))
      prog.Vpc.Il.Prog.funcs
  in
  match site with Some l -> l | None -> Alcotest.failf "no call of %s" callee

let nest_plan src line cfg = Tune.Decide.plan_of [ (nest_at src line, cfg) ]

(* A matrix product whose k loop carries the c[i][*] accumulator: with
   serial strips the reuse pass keeps that row in a vector register. *)
let accumulate_src =
  {|double a[64][64], b[64][64], c[64][64];
    int main() {
      int i, j, k;
      for (i = 0; i < 64; i++)
        for (j = 0; j < 64; j++) {
          a[i][j] = i + j; b[i][j] = i - j; c[i][j] = 0.0;
        }
      for (i = 0; i < 64; i++)
        for (k = 0; k < 64; k++)
          for (j = 0; j < 64; j++)
            c[i][j] = c[i][j] + a[i][k] * b[k][j];
      printf("%g %g\n", c[3][5], c[63][63]);
      return 0;
    }|}

(* (row, program, untuned options, plan) *)
let override_rows () =
  let example f = Helpers.read_file ("../examples/" ^ f) in
  let quick = example "quickstart.c" in
  let recurrence = example "recurrence.c" in
  let daxpy = example "daxpy_inline.c" in
  let interchange = Test_transforms.interchange_src in
  let cfg = Tune.Config.default in
  (* a profile measured at one processor keeps the profiled compile's
     strips serial: the static policy would already spread them, and
     serial strips are what the reuse pass keeps resident *)
  let profiled src =
    { Vpc.o3 with Vpc.profile = Some (fst (Vpc.profile_gen src)) }
  in
  let mode m = { cfg with Tune.Config.mode = Some m } in
  [
    ("mode scalar", quick, Vpc.o3, nest_plan quick 7 (mode Tune.Config.Scalar));
    ("mode vector", quick, Vpc.o3, nest_plan quick 7 (mode Tune.Config.Vector));
    ( "mode parallel",
      quick,
      profiled quick,
      nest_plan quick 7 (mode Tune.Config.Parallel) );
    ( "strip",
      quick,
      Vpc.o3,
      nest_plan quick 7 { cfg with Tune.Config.strip = Some 8 } );
    ( "fuse",
      quick,
      Vpc.o3,
      nest_plan quick 7 { cfg with Tune.Config.fuse = Some false } );
    ( "interchange",
      interchange,
      Vpc.o3,
      nest_plan interchange 4 { cfg with Tune.Config.interchange = Some false }
    );
    ( "vreuse",
      accumulate_src,
      profiled accumulate_src,
      nest_plan accumulate_src 8 { cfg with Tune.Config.vreuse = Some false } );
    ( "doacross",
      recurrence,
      Vpc.o3,
      nest_plan recurrence 7 { cfg with Tune.Config.doacross = Some false } );
    ( "inline site",
      daxpy,
      Vpc.o3,
      {
        Tune.Decide.nests = [];
        calls = [ (call_site daxpy "daxpy", false) ];
      } );
  ]

let overrides_reach_passes () =
  List.iter
    (fun (name, src, base, plan) ->
      let untuned = fst (compile_text ~options:base src) in
      let tuned, _ =
        Vpc.compile ~options:{ base with Vpc.tune = `Plan plan } src
      in
      if Vpc.Il.Pp.prog_to_string tuned = untuned then
        Alcotest.failf "%s: the override left the IL unchanged" name;
      Alcotest.(check string)
        (name ^ ": overridden program agrees with -O0")
        (Helpers.interp_output (Helpers.compile ~options:Vpc.o0 src))
        (Helpers.titan_output
           ~config:{ Vpc.Titan.Machine.default_config with procs = 4 }
           tuned))
    (override_rows ())

(* The example programs, by file name. *)
let example_files () =
  Sys.readdir "../examples" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare

(* ---- a recorded decision log predicts the compile ----

   [Vpc.tune] takes an earlier compile's result for a candidate whose
   plan resolves every query that compile logged to the same decision.
   That is sound only if each pass's resolver is complete: the IL may
   depend on the plan's answer only through the decision.  Compile every
   single-knob configuration the search visits, on every scout nest of
   every example; whenever one compile's log calls another plan
   equivalent, the two must print the same IL.  The fixture adds a
   transpose nest whose two loop orders tie under the interchange cost
   model: forced on or left alone, a tie keeps the identity order. *)
let decision_logs_predict_il () =
  let equivalent = ref 0 in
  List.iter
    (fun file ->
      let src = Helpers.read_file file in
      let candidates =
        ("static", None)
        :: List.concat_map
             (fun (n : Tune.Fingerprint.nest) ->
               List.concat_map
                 (fun (d : Tune.Search.dim) ->
                   List.filter_map
                     (fun set ->
                       let cfg = set Tune.Config.default in
                       if Tune.Config.equal cfg Tune.Config.default then None
                       else
                         Some
                           ( Printf.sprintf "%s %s"
                               (Vpc.Support.Loc.to_string n.Tune.Fingerprint.loc)
                               (Tune.Config.to_string cfg),
                             Some (Tune.Decide.plan_of [ (n, cfg) ]) ))
                     d.Tune.Search.values)
                 (Vpc.tune_dims Vpc.o3 n))
             (nests_of src)
      in
      let compiled =
        List.map
          (fun (name, plan) ->
            let log = Tune.Decide.recorder () in
            let prog = Vpc.parse src in
            let tune = match plan with None -> `Off | Some p -> `Plan p in
            ignore (Vpc.optimize ~options:{ Vpc.o3 with Vpc.tune } ~log prog);
            (name, plan, log, Vpc.Il.Pp.prog_to_string prog))
          candidates
      in
      List.iter
        (fun (name, _, log, il) ->
          List.iter
            (fun (name', plan', _, il') ->
              if name <> name' && Tune.Decide.same_decisions log plan' then begin
                incr equivalent;
                if il <> il' then
                  Alcotest.failf
                    "%s: the log of [%s] calls [%s] equivalent, but their IL \
                     differs"
                    file name name'
              end)
            compiled)
        compiled)
    (List.map (Filename.concat "../examples") (example_files ())
    @ [ "fixtures/interchange_tie.c" ]);
  if !equivalent = 0 then Alcotest.fail "no two candidates were equivalent"

(* ---- golden tune table ----

   Every example except device_poll (it busy-waits on a device
   register), searched as [titancc -O 3 -p N --tune] does at 1 and 4
   processors: the saved store text, the static and tuned cycles, and
   the nests considered and improved.  test/fixtures/tune_golden.txt
   was recorded before the search learned to skip candidates whose
   decisions an earlier compile already made, so any drift is a change
   in what tuning finds, never a speed-up.  Its store texts were
   re-recorded once, in whitespace only, when the sexp printer became
   a flat one-line printer. *)
let tune_golden_rows () =
  example_files ()
  |> List.filter (fun f -> f <> "device_poll.c")
  |> List.concat_map (fun file ->
         let src = Helpers.read_file (Filename.concat "../examples" file) in
         List.map
           (fun procs ->
             let tr =
               Vpc.tune ~options:Vpc.o3
                 ~config:{ Vpc.Titan.Machine.default_config with procs }
                 src
             in
             Printf.sprintf
               "%s p%d static=%d tuned=%d considered=%d improved=%d store=%s"
               (Filename.chop_suffix file ".c")
               procs tr.Vpc.static_cycles tr.Vpc.tuned_cycles
               tr.Vpc.nests_considered tr.Vpc.nests_improved
               (String.escaped (Tuned.to_string tr.Vpc.tuned)))
           [ 1; 4 ])

let tune_golden () =
  Helpers.check_golden ~path:"fixtures/tune_golden.txt"
    ~actual:"tune_golden.actual" (tune_golden_rows ())

let tests =
  [
    Alcotest.test_case "config: codec round-trip" `Quick codec_round_trip;
    Alcotest.test_case "fingerprint: stable under alpha-renaming" `Quick
      fp_alpha_rename;
    Alcotest.test_case "fingerprint: stable under outside-nest edits" `Quick
      fp_outside_reorder;
    Alcotest.test_case "store: canonical sexp round-trip" `Quick
      store_round_trip;
    Alcotest.test_case "store: merge keeps the newer record" `Quick
      store_merge_newer_wins;
    Alcotest.test_case "replay: empty store is byte-identical O0-O3" `Quick
      empty_store_byte_identity;
    Alcotest.test_case "tune: search, replay determinism, differential"
      `Quick search_and_replay;
    Alcotest.test_case "overrides: every override reaches its pass" `Quick
      overrides_reach_passes;
    Alcotest.test_case "golden table: tune stores and cycles" `Quick
      tune_golden;
    Alcotest.test_case "replay: a recorded decision log predicts identical IL"
      `Quick decision_logs_predict_il;
  ]
