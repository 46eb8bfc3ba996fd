(* The IL verifier and translation validator (lib/check).

   Positive direction: every example program and a batch of random
   programs must verify clean after EVERY pipeline stage at every
   optimization level — the verifier re-derives the dependence facts the
   vectorizer/parallelizer relied on (translation validation) and checks
   the structural well-formedness invariants of the IL.

   Negative direction: hand-built ill-formed programs and deterministic
   fault injections must each be rejected with a diagnostic naming the
   offending rule. *)

open Helpers

module Check = Vpc.Check
module Il = Vpc.Il
module Stmt = Il.Stmt
module Expr = Il.Expr
module Ty = Il.Ty
module Var = Il.Var
module Func = Il.Func
module Prog = Il.Prog
module Builder = Il.Builder

let verified_levels =
  [
    ("O0", { Vpc.o0 with Vpc.verify = `Each_stage });
    ("O1", { Vpc.o1 with Vpc.verify = `Each_stage });
    ("O2", { Vpc.o2 with Vpc.verify = `Each_stage });
    ("O3", { Vpc.o3 with Vpc.verify = `Each_stage });
  ]

let verify_all_levels name src =
  List.iter
    (fun (lname, options) ->
      try ignore (Vpc.compile ~options src)
      with Check.Verify.Failed diags ->
        Alcotest.failf "%s at %s: verifier rejected the pipeline output:\n%s"
          name lname
          (String.concat "\n"
             (List.map Vpc.Support.Diag.to_string diags)))
    verified_levels

(* ----------------------------------------------------------------- *)
(* every example program, every level, every stage                    *)
(* ----------------------------------------------------------------- *)

let example_files =
  [
    "quickstart.c";
    "backsolve.c";
    "daxpy_inline.c";
    "graphics.c";
    "device_poll.c";
    "math_library.c";
    "ptrkernels.c";
  ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let examples_verify () =
  List.iter
    (fun f ->
      let path = Filename.concat "../examples" f in
      if Sys.file_exists path then verify_all_levels f (read_file path)
      else Alcotest.failf "example %s not found from %s" f (Sys.getcwd ()))
    example_files

let random_programs_verify () =
  for seed = 1 to 25 do
    let src = Gen_c.program seed in
    verify_all_levels (Printf.sprintf "random #%d" seed) src
  done

(* the paper kernels exercised elsewhere in the suite, distilled *)
let kernels_verify () =
  List.iter
    (fun (name, src) -> verify_all_levels name src)
    [
      ( "reduction",
        {|
float a[256];
int main()
{
  int i; float s;
  for (i = 0; i < 256; i++) a[i] = i * 0.5f;
  s = 0;
  for (i = 0; i < 256; i++) s += a[i];
  printf("%g\n", s);
  return 0;
}
|} );
      ( "recurrence",
        {|
float a[256];
int main()
{
  int i;
  a[0] = 1.0f;
  for (i = 0; i < 255; i++) a[i+1] = a[i] * 0.5f + 1.0f;
  printf("%g\n", a[255]);
  return 0;
}
|} );
      ( "invariant-store",
        {|
int flag; int a[64];
int main()
{
  int i;
  for (i = 0; i < 64; i++) { a[i] = i; flag = i; }
  printf("%d %d\n", flag, a[63]);
  return 0;
}
|} );
      ( "doacross-pointer-chase",
        {|
float x[129], y[128], z[128];
int main()
{
  int i; float *p, *q;
  for (i = 0; i < 128; i++) { y[i] = i * 0.25f; z[i] = 0.5f; }
  x[0] = 2.0f;
  p = &x[1]; q = &x[0];
  for (i = 0; i < 126; i++)
    p[i] = z[i] * (y[i] - q[i]);
  printf("%g %g\n", x[1], x[100]);
  return 0;
}
|} );
    ]

(* ----------------------------------------------------------------- *)
(* negative fixtures: hand-built ill-formed IL                        *)
(* ----------------------------------------------------------------- *)

(* A minimal host program: int main() with locals [n : int] and a float
   array global [a]; returns (prog, main, builder ctx, vars). *)
let host () =
  let prog = Prog.create () in
  let main = Func.create ~name:"main" ~ret_ty:Ty.Int () in
  Prog.add_func prog main;
  let fresh name ty =
    let v = Var.make ~id:(Prog.fresh_var_id prog) ~name ~ty () in
    Func.add_var main v;
    v
  in
  let a =
    Var.make ~id:(Prog.fresh_var_id prog) ~name:"a"
      ~ty:(Ty.Array (Ty.Float, Some 64))
      ~storage:Var.Global ()
  in
  Prog.add_global prog a;
  let b = Builder.ctx prog main in
  (prog, main, b, fresh, a)

let rules_of violations = List.map (fun v -> v.Check.Report.rule) violations

let expect_rule name rule (prog : Prog.t) =
  let violations = Check.Verify.check_prog prog in
  if not (List.mem rule (rules_of violations)) then
    Alcotest.failf "%s: expected rule %s, got [%s]" name rule
      (String.concat "; " (rules_of violations));
  (* every diagnostic must name the function it is about *)
  List.iter
    (fun v ->
      if v.Check.Report.func = "" then
        Alcotest.failf "%s: violation without a function name" name)
    violations

let expect_clean name (prog : Prog.t) =
  match Check.Verify.check_prog prog with
  | [] -> ()
  | violations ->
      Alcotest.failf "%s: expected clean, got [%s]" name
        (String.concat "; " (rules_of violations))

let fixture_dup_stmt_id () =
  let prog, main, _b, _fresh, _a = host () in
  main.Func.body <-
    [
      Stmt.mk ~id:1 Stmt.Nop;
      Stmt.mk ~id:1 Stmt.Nop;
      Func.fresh_stmt main (Stmt.Return (Some (Expr.int_const 0)));
    ];
  expect_rule "dup-stmt-id" "dup-stmt-id" prog

let fixture_unbound_var () =
  let prog, main, b, _fresh, _a = host () in
  main.Func.body <-
    [
      Builder.stmt b (Stmt.Assign (Stmt.Lvar 99999, Expr.int_const 1));
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "unbound-var" "unbound-var" prog

let fixture_impure_bound () =
  let prog, main, b, fresh, _a = host () in
  let i = fresh "i" Ty.Int in
  let n = fresh "n" Ty.Int in
  main.Func.body <-
    [
      Builder.assign b n (Expr.int_const 10);
      (* hi reads n, and the body reassigns n: bound not loop-entry
         invariant *)
      Builder.do_loop b ~index:i.Var.id ~lo:(Expr.int_const 0)
        ~hi:(Expr.var n) ~step:(Expr.int_const 1)
        [ Builder.assign b n (Expr.binop Expr.Add (Expr.var n) (Expr.int_const 1) Ty.Int) ];
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "impure-bound" "do-bound-variant" prog

let fixture_goto_and_labels () =
  let prog, main, b, _fresh, _a = host () in
  main.Func.body <-
    [ Builder.goto b "nowhere"; Builder.return b (Some (Expr.int_const 0)) ];
  expect_rule "dangling-goto" "goto-target" prog;
  let prog2, main2, b2, _fresh2, _a2 = host () in
  main2.Func.body <-
    [
      Builder.label b2 "here";
      Builder.label b2 "here";
      Builder.return b2 (Some (Expr.int_const 0));
    ];
  expect_rule "dup-label" "dup-label" prog2

let section base count stride =
  { Stmt.base; count = Expr.int_const count; stride = Expr.int_const stride }

let fixture_vector_type () =
  let prog, main, b, _fresh, a = host () in
  (* destination points at float elements but the statement claims int *)
  let base = Expr.addr_of a in
  main.Func.body <-
    [
      Builder.stmt b
        (Stmt.Vector
           {
             Stmt.vdst = section base 8 4;
             vsrc = Stmt.Vscalar (Expr.int_const 1);
             velt = Ty.Int;
           });
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "vector-type" "vector-type" prog

let fixture_vector_overlap () =
  let prog, main, b, _fresh, a = host () in
  let base = Expr.addr_of a in
  let base1 =
    Expr.binop Expr.Add base (Expr.int_const 4) base.Expr.ty
  in
  (* dst = &a[1], src = &a[0], stride 4: element i reads a[i] which
     element i-1 just wrote — the §6 recurrence, illegal as one vector op *)
  main.Func.body <-
    [
      Builder.stmt b
        (Stmt.Vector
           {
             Stmt.vdst = section base1 8 4;
             vsrc = Stmt.Vsec (section base 8 4);
             velt = Ty.Float;
           });
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "vector-overlap" "vector-overlap" prog;
  (* the reverse direction (dst behind src) is the legal backsolve
     pattern: anti dependence, full-evaluate semantics match *)
  let prog2, main2, b2, _fresh2, a2 = host () in
  let base' = Expr.addr_of a2 in
  let base1' = Expr.binop Expr.Add base' (Expr.int_const 4) base'.Expr.ty in
  main2.Func.body <-
    [
      Builder.stmt b2
        (Stmt.Vector
           {
             Stmt.vdst = section base' 8 4;
             vsrc = Stmt.Vsec (section base1' 8 4);
             velt = Ty.Float;
           });
      Builder.return b2 (Some (Expr.int_const 0));
    ];
  expect_clean "vector-anti-direction" prog2

let fixture_false_parallel () =
  let prog, main, b, fresh, a = host () in
  let i = fresh "i" Ty.Int in
  let base = Expr.addr_of a in
  let addr off =
    Expr.binop Expr.Add base
      (Expr.binop Expr.Add
         (Expr.binop Expr.Mul (Expr.var i) (Expr.int_const 4) Ty.Int)
         (Expr.int_const off) Ty.Int)
      base.Expr.ty
  in
  (* a[i+1] = a[i] + 1.0: carried flow distance 1 — not parallel *)
  main.Func.body <-
    [
      Builder.do_loop b ~parallel:true ~index:i.Var.id ~lo:(Expr.int_const 0)
        ~hi:(Expr.int_const 63) ~step:(Expr.int_const 1)
        [
          Builder.store b (addr 4)
            (Expr.binop Expr.Add (Expr.load (addr 0)) (Expr.float_const 1.0)
               Ty.Float);
        ];
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "false-parallel" "parallel-carried-dep" prog

let fixture_parallel_invariant_store () =
  let prog, main, b, fresh, _a = host () in
  let i = fresh "i" Ty.Int in
  let g =
    Var.make ~id:(Prog.fresh_var_id prog) ~name:"flag" ~ty:Ty.Int
      ~storage:Var.Global ()
  in
  Prog.add_global prog g;
  (* every iteration writes the same global address: write order matters *)
  main.Func.body <-
    [
      Builder.do_loop b ~parallel:true ~index:i.Var.id ~lo:(Expr.int_const 0)
        ~hi:(Expr.int_const 63) ~step:(Expr.int_const 1)
        [ Builder.store b (Expr.addr_of g) (Expr.var i) ];
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "parallel-invariant-store" "parallel-carried-dep" prog

let fixture_doacross_cond () =
  let prog, main, b, fresh, _a = host () in
  let n = fresh "n" Ty.Int in
  let info =
    { Stmt.no_info with Stmt.doacross = true; Stmt.serial_prefix = 0 }
  in
  (* the parallel part reassigns the variable the continuation condition
     reads: iterations cannot be dispatched independently *)
  main.Func.body <-
    [
      Builder.assign b n (Expr.int_const 10);
      Builder.while_ b ~info
        (Expr.binop Expr.Gt (Expr.var n) (Expr.int_const 0) Ty.Int)
        [
          Builder.assign b n
            (Expr.binop Expr.Sub (Expr.var n) (Expr.int_const 1) Ty.Int);
        ];
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "doacross-cond" "doacross-cond" prog

let fixture_volatile_parallel () =
  let prog, main, b, fresh, _a = host () in
  let i = fresh "i" Ty.Int in
  let s = fresh "s" Ty.Int in
  let dev =
    Var.make ~id:(Prog.fresh_var_id prog) ~name:"dev" ~ty:Ty.Int ~volatile:true
      ~storage:Var.Global ()
  in
  Prog.add_global prog dev;
  main.Func.body <-
    [
      Builder.do_loop b ~parallel:true ~index:i.Var.id ~lo:(Expr.int_const 0)
        ~hi:(Expr.int_const 8) ~step:(Expr.int_const 1)
        [ Builder.assign b s (Expr.var dev) ];
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "volatile-parallel" "volatile-parallel" prog

let fixture_assign_type () =
  let prog, main, b, fresh, a = host () in
  let p = fresh "p" (Ty.Ptr Ty.Float) in
  ignore a;
  main.Func.body <-
    [
      (* a float constant flowing into a pointer variable *)
      Builder.stmt b
        (Stmt.Assign (Stmt.Lvar p.Var.id, Expr.float_const 1.0));
      Builder.return b (Some (Expr.int_const 0));
    ];
  expect_rule "assign-type" "assign-type" prog

(* ----------------------------------------------------------------- *)
(* fault injection through the library                                *)
(* ----------------------------------------------------------------- *)

let fault_src =
  {|
float a[128], b[128];
int main()
{
  int i, x;
  float s;
  x = 41;
  for (i = 0; i < 128; i++) b[i] = i * 0.5f;
  for (i = 0; i < 128; i++) a[i] = b[i] + 1.0f;
  s = 0;
  for (i = 0; i < 127; i++) a[i+1] = a[i] + 1.0f;
  for (i = 0; i < 128; i++) s += a[i];
  printf("%d %g\n", x, s);
  return 0;
}
|}

let injection_rejected () =
  List.iter
    (fun (kname, kind) ->
      (* wrong-const is structurally well-formed by design: only the
         differential check can see it *)
      if kind <> Check.Fault.Wrong_const then begin
        let prog = compile ~options:Vpc.o2 fault_src in
        expect_clean (kname ^ " (before injection)") prog;
        if not (Check.Fault.inject kind prog) then
          Alcotest.failf "%s: no injection site at O2" kname;
        match Check.Verify.check_prog prog with
        | [] -> Alcotest.failf "%s: verifier accepted the corrupted IL" kname
        | _ -> ()
      end)
    Check.Fault.kinds

let wrong_const_invisible_to_verifier () =
  let prog = compile ~options:Vpc.o0 fault_src in
  let reference = interp_output prog in
  let prog2 = compile ~options:Vpc.o0 fault_src in
  Alcotest.(check bool)
    "wrong-const has a site" true
    (Check.Fault.inject Check.Fault.Wrong_const prog2);
  expect_clean "wrong-const is well-formed" prog2;
  let corrupted = interp_output prog2 in
  Alcotest.(check bool)
    "wrong-const changes behavior" true (reference <> corrupted)

(* ----------------------------------------------------------------- *)
(* the CLI: exit codes                                                *)
(* ----------------------------------------------------------------- *)

let titancc = "../bin/titancc.exe"

let run_cli args =
  let null = if Sys.win32 then "NUL" else "/dev/null" in
  let cmd =
    Printf.sprintf "%s %s >%s 2>%s" titancc
      (String.concat " " args)
      null null
  in
  match Unix.system cmd with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255

let with_temp_c src f =
  let path = Filename.temp_file "verify_cli" ".c" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let cli_exit_codes () =
  if not (Sys.file_exists titancc) then
    Alcotest.failf "titancc binary not found from %s" (Sys.getcwd ());
  with_temp_c fault_src (fun path ->
      Alcotest.(check int) "clean program verifies (exit 0)" 0
        (run_cli [ path; "-O"; "2"; "--verify-il"; "--no-run"; "-q" ]);
      Alcotest.(check int) "clean program checks (exit 0)" 0
        (run_cli [ path; "-O"; "3"; "--check"; "-q" ]);
      List.iter
        (fun (kname, kind) ->
          if kind <> Check.Fault.Wrong_const then
            Alcotest.(check int)
              (Printf.sprintf "--inject-fault %s exits 3" kname)
              3
              (run_cli
                 [
                   path; "-O"; "2"; "--verify-il"; "--no-run"; "-q";
                   "--inject-fault"; kname;
                 ]))
        Check.Fault.kinds;
      Alcotest.(check int) "--inject-fault wrong-const fails --check (exit 2)" 2
        (run_cli
           [ path; "-O"; "0"; "--check"; "-q"; "--inject-fault"; "wrong-const" ]);
      Alcotest.(check int) "unknown fault kind exits 1" 1
        (run_cli
           [ path; "-O"; "0"; "--no-run"; "-q"; "--inject-fault"; "bogus" ]));
  (* a corruption visible only in main's return value: --check compares
     return values as well as stdout *)
  with_temp_c "int main(){int r; r = 5; return r;}\n" (fun path ->
      Alcotest.(check int) "the return value checks (exit 5)" 5
        (run_cli [ path; "-O"; "0"; "--check"; "-q" ]);
      Alcotest.(check int) "a wrong return value fails --check (exit 2)" 2
        (run_cli
           [ path; "-O"; "0"; "--inject-fault=wrong-const"; "--check"; "-q" ]));
  (* NaN comparisons: the -O0 reference follows IEEE, as the simulator does *)
  with_temp_c Test_interp.nan_scalar_src (fun path ->
      List.iter
        (fun level ->
          Alcotest.(check int)
            (Printf.sprintf "NaN comparisons check at -O%s (exit 0)" level)
            0
            (run_cli [ path; "-O"; level; "--check"; "-q" ]))
        [ "0"; "3" ]);
  (* the -O0 reference of lint_bugs.c never ends: running out of the
     interpreter's step budget is a runtime error *)
  Alcotest.(check int) "--check past the interpreter's step budget (exit 1)" 1
    (run_cli [ "fixtures/lint_bugs.c"; "-O"; "1"; "--check"; "-q" ])

(* A function whose exit no path reaches once compiled at every
   optimizing level (liveness used to assume a reachable exit). *)
let cli_unreachable_exit () =
  List.iter
    (fun level ->
      Alcotest.(check int)
        (Printf.sprintf "unreachable exit compiles at -O%s (exit 0)" level)
        0
        (run_cli
           [ "fixtures/unreachable_exit.c"; "-O"; level; "--no-run"; "-q" ]))
    [ "1"; "2"; "3" ]

(* symbolic.c's [shift] loop is parallel but not vectorized under
   --no-vectorize; it is legal only because range analysis proves
   k >= n at both call sites, so the validator must test it under the
   same range oracle the parallelizer used. *)
let cli_symbolic_no_vectorize () =
  Alcotest.(check int) "symbolic.c -O 2 --no-vectorize --verify-il (exit 0)" 0
    (run_cli
       [ "../examples/symbolic.c"; "-O"; "2"; "--no-vectorize"; "--verify-il" ])

(* A strip length below 1 is a usage error (exit 1): zero used to
   divide by zero in codegen, and a negative length miscompiled. *)
let cli_vlen_below_one () =
  Alcotest.(check int) "--vlen=0 is a usage error (exit 1)" 1
    (run_cli [ "../examples/matmul.c"; "-O"; "3"; "--vlen=0"; "--no-run" ]);
  Alcotest.(check int) "--vlen=-4 is a usage error (exit 1)" 1
    (run_cli
       [ "../examples/matmul.c"; "--vlen=-4"; "-p"; "4"; "--check"; "-q" ])

(* The library refuses a strip length below 1 where it builds the
   decision context, with a clear error rather than a division by zero
   deep in a pass. *)
let library_vlen_below_one () =
  let src = Helpers.read_file "../examples/matmul.c" in
  List.iter
    (fun (what, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | exception e ->
          Alcotest.failf "%s: raised %s, not Invalid_argument" what
            (Printexc.to_string e)
      | () -> Alcotest.failf "%s accepted vlen 0" what)
    [
      ( "compile_and_simulate",
        fun () ->
          ignore
            (Vpc.compile_and_simulate ~options:{ Vpc.o3 with Vpc.vlen = 0 } src)
      );
      ( "tune",
        fun () -> ignore (Vpc.tune ~options:{ Vpc.o3 with Vpc.vlen = -4 } src) );
    ]

let tests =
  [
    Alcotest.test_case "examples verify at every stage" `Slow examples_verify;
    Alcotest.test_case "random programs verify" `Slow random_programs_verify;
    Alcotest.test_case "paper kernels verify" `Quick kernels_verify;
    Alcotest.test_case "dup stmt id rejected" `Quick fixture_dup_stmt_id;
    Alcotest.test_case "unbound var rejected" `Quick fixture_unbound_var;
    Alcotest.test_case "impure DO bound rejected" `Quick fixture_impure_bound;
    Alcotest.test_case "goto/label misuse rejected" `Quick fixture_goto_and_labels;
    Alcotest.test_case "vector type mismatch rejected" `Quick fixture_vector_type;
    Alcotest.test_case "vector overlap direction" `Quick fixture_vector_overlap;
    Alcotest.test_case "false parallel loop rejected" `Quick fixture_false_parallel;
    Alcotest.test_case "parallel invariant store rejected" `Quick
      fixture_parallel_invariant_store;
    Alcotest.test_case "doacross condition hazard rejected" `Quick
      fixture_doacross_cond;
    Alcotest.test_case "volatile in parallel loop rejected" `Quick
      fixture_volatile_parallel;
    Alcotest.test_case "assign type mismatch rejected" `Quick fixture_assign_type;
    Alcotest.test_case "injected faults all rejected" `Quick injection_rejected;
    Alcotest.test_case "wrong-const passes verifier, changes output" `Quick
      wrong_const_invisible_to_verifier;
    Alcotest.test_case "titancc exit codes" `Slow cli_exit_codes;
    Alcotest.test_case "titancc unreachable exit" `Quick cli_unreachable_exit;
    Alcotest.test_case "titancc rejects a strip length below 1" `Quick
      cli_vlen_below_one;
    Alcotest.test_case "library rejects a strip length below 1" `Quick
      library_vlen_below_one;
    Alcotest.test_case "titancc range-proved parallel loop verifies" `Quick
      cli_symbolic_no_vectorize;
  ]
