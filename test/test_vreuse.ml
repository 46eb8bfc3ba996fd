(* Vector-register reuse (Transform.Vreuse).

   Negative direction: hand-built runs of vector statements where
   forwarding a Vstore to a later Vload would be unsound — may-aliasing
   bases, overlapping sections at a nonzero offset, mismatched strides,
   volatile storage — must each leave the code alone; one positive
   control confirms the same shape forwards when it is legal.

   Positive direction: every example program must print the same thing
   with the pass on and off, on the interpreter and on the simulator,
   with the verifier running after every stage. *)

open Helpers

module Il = Vpc.Il
module Stmt = Il.Stmt
module Expr = Il.Expr
module Ty = Il.Ty
module Var = Il.Var
module Func = Il.Func
module Prog = Il.Prog
module Builder = Il.Builder
module Vreuse = Vpc.Transform.Vreuse

(* ----------------------------------------------------------------- *)
(* hand-built forwarding fixtures                                    *)
(* ----------------------------------------------------------------- *)

(* int main() with three 64-float global arrays to write vector runs
   over; [global] mints more (e.g. a volatile one). *)
let host () =
  let prog = Prog.create () in
  let main = Func.create ~name:"main" ~ret_ty:Ty.Int () in
  Prog.add_func prog main;
  let global ?volatile ?(storage = Var.Global) name ty =
    let v =
      Var.make ~id:(Prog.fresh_var_id prog) ~name ~ty ?volatile ~storage ()
    in
    Prog.add_global prog v;
    v
  in
  let arr name = global name (Ty.Array (Ty.Float, Some 64)) in
  let a = arr "a" and c = arr "b" and d = arr "c" in
  (prog, main, Builder.ctx prog main, global, a, c, d)

let sec ?(count = 8) ?(stride = 4) base =
  { Stmt.base; count = Expr.int_const count; stride = Expr.int_const stride }

let store b s ve = Builder.stmt b (Stmt.Vector { Stmt.vdst = s; vsrc = ve; velt = Ty.Float })

let run_vreuse ?options prog main =
  let stats = Vreuse.new_stats () in
  let changed = Vreuse.run ?options ~stats prog main in
  (changed, stats)

let check_counts name ~forwarded ~shared (stats : Vreuse.stats) =
  Alcotest.(check int)
    (name ^ ": stores_forwarded") forwarded stats.Vreuse.stores_forwarded;
  Alcotest.(check int) (name ^ ": loads_shared") shared stats.Vreuse.loads_shared

let check_verifies name prog =
  match Vpc.Check.Verify.check_prog prog with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: rewritten IL fails to verify: %s" name
        (String.concat "; "
           (List.map (fun v -> v.Vpc.Check.Report.rule) vs))

(* positive control: store a, read the identical section later — the
   value forwards through a register *)
let forwards_identical_section () =
  let prog, main, b, _global, a, c, _d = host () in
  let sa = sec (Expr.addr_of a) in
  main.Func.body <-
    [
      store b sa (Stmt.Vscalar (Expr.float_const 1.0));
      store b (sec (Expr.addr_of c))
        (Stmt.Vbin (Expr.Add, Stmt.Vsec sa, Stmt.Vscalar (Expr.float_const 2.0)));
      Builder.return b (Some (Expr.int_const 0));
    ];
  let changed, stats = run_vreuse prog main in
  Alcotest.(check bool) "control: changed" true changed;
  check_counts "control" ~forwarded:1 ~shared:0 stats;
  check_verifies "control" prog

(* a may-aliasing store between the Vstore and the Vload kills the
   forward: the intervening write through an unknown pointer may have
   replaced the section in memory *)
let may_alias_blocks_forward () =
  let prog, main, b, global, a, c, _d = host () in
  let p = global ~storage:Var.Param "p" (Ty.Ptr Ty.Float) in
  let sa = sec (Expr.addr_of a) in
  main.Func.body <-
    [
      store b sa (Stmt.Vscalar (Expr.float_const 1.0));
      store b (sec (Expr.var p)) (Stmt.Vscalar (Expr.float_const 2.0));
      store b (sec (Expr.addr_of c)) (Stmt.Vsec sa);
      Builder.return b (Some (Expr.int_const 0));
    ];
  let _, stats = run_vreuse prog main in
  check_counts "may-alias" ~forwarded:0 ~shared:0 stats

(* the same three statements with a provably distinct array in the
   middle do forward — the may-alias case above fails for aliasing
   reasons, not shape reasons *)
let no_alias_control () =
  let prog, main, b, _global, a, c, d = host () in
  let sa = sec (Expr.addr_of a) in
  main.Func.body <-
    [
      store b sa (Stmt.Vscalar (Expr.float_const 1.0));
      store b (sec (Expr.addr_of d)) (Stmt.Vscalar (Expr.float_const 2.0));
      store b (sec (Expr.addr_of c)) (Stmt.Vsec sa);
      Builder.return b (Some (Expr.int_const 0));
    ];
  let _, stats = run_vreuse prog main in
  check_counts "no-alias control" ~forwarded:1 ~shared:0 stats;
  check_verifies "no-alias control" prog

(* store a[1:9], read a[0:8]: same base, nonzero provable distance —
   the element sequences overlap but are not identical *)
let offset_overlap_no_forward () =
  let prog, main, b, _global, a, c, _d = host () in
  let base = Expr.addr_of a in
  let base1 = Expr.binop Expr.Add base (Expr.int_const 4) base.Expr.ty in
  main.Func.body <-
    [
      store b (sec base1) (Stmt.Vscalar (Expr.float_const 1.0));
      store b (sec (Expr.addr_of c)) (Stmt.Vsec (sec base));
      Builder.return b (Some (Expr.int_const 0));
    ];
  let changed, stats = run_vreuse prog main in
  Alcotest.(check bool) "offset: unchanged" false changed;
  check_counts "offset" ~forwarded:0 ~shared:0 stats

(* store with stride 8, read with stride 4: same base distance zero but
   the two sections interleave different elements *)
let stride_mismatch_no_forward () =
  let prog, main, b, _global, a, c, _d = host () in
  let base = Expr.addr_of a in
  main.Func.body <-
    [
      store b (sec ~stride:8 base) (Stmt.Vscalar (Expr.float_const 1.0));
      store b (sec (Expr.addr_of c)) (Stmt.Vsec (sec ~stride:4 base));
      Builder.return b (Some (Expr.int_const 0));
    ];
  let changed, stats = run_vreuse prog main in
  Alcotest.(check bool) "stride: unchanged" false changed;
  check_counts "stride" ~forwarded:0 ~shared:0 stats

(* volatile storage never lives in a register: each Vload must reread
   the device memory, each Vstore must land *)
let volatile_no_forward () =
  let prog, main, b, global, _a, c, _d = host () in
  let v = global ~volatile:true "port" (Ty.Array (Ty.Float, Some 64)) in
  let sv = sec (Expr.addr_of v) in
  main.Func.body <-
    [
      store b sv (Stmt.Vscalar (Expr.float_const 1.0));
      store b (sec (Expr.addr_of c)) (Stmt.Vsec sv);
      store b (sec ~count:4 (Expr.addr_of c)) (Stmt.Vsec sv);
      Builder.return b (Some (Expr.int_const 0));
    ];
  let changed, stats = run_vreuse prog main in
  Alcotest.(check bool) "volatile: unchanged" false changed;
  check_counts "volatile" ~forwarded:0 ~shared:0 stats

(* ----------------------------------------------------------------- *)
(* every example, reuse on vs off                                    *)
(* ----------------------------------------------------------------- *)

(* device_poll.c busy-waits on a volatile register and only terminates
   under the device harness, so it is compile-only here. *)
let example_files ~runnable =
  List.filter
    (fun f ->
      Filename.check_suffix f ".c" && ((not runnable) || f <> "device_poll.c"))
    (Array.to_list (Sys.readdir "../examples"))

let compile_both src =
  let build vreuse =
    Vpc.compile
      ~options:{ Vpc.o3 with Vpc.vreuse; verify = `Each_stage }
      src
  in
  (build false, build true)

let examples_equivalent () =
  List.iter
    (fun f ->
      let src = read_file (Filename.concat "../examples" f) in
      let (p_off, _), (p_on, _) = compile_both src in
      let i_off = interp_output p_off and i_on = interp_output p_on in
      Alcotest.(check string) (f ^ ": interp on=off") i_off i_on;
      List.iter
        (fun procs ->
          let config = { Vpc.Titan.Machine.default_config with procs } in
          let t_off =
            (Vpc.run_titan ~config ~vreuse:false p_off)
              .Vpc.Titan.Machine.stdout_text
          in
          let t_on =
            (Vpc.run_titan ~config ~vreuse:true p_on)
              .Vpc.Titan.Machine.stdout_text
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: titan procs=%d off" f procs)
            i_off t_off;
          Alcotest.(check string)
            (Printf.sprintf "%s: titan procs=%d on" f procs)
            i_off t_on)
        [ 1; 4 ])
    (example_files ~runnable:true)

(* the sweep is not vacuous: the kernel built to exercise forwarding
   really does forward *)
let saxpy_chain_forwards () =
  let src = read_file "../examples/saxpy_chain.c" in
  let _, (_, stats) = compile_both src in
  Alcotest.(check bool) "saxpy_chain forwards stores" true
    (stats.Vpc.vreuse.stores_forwarded >= 3)

(* --no-vreuse must be byte-identical to the pass never having existed:
   compiling with vreuse off yields IL with no vector temporaries *)
let off_leaves_no_vtmp () =
  List.iter
    (fun f ->
      let src = read_file (Filename.concat "../examples" f) in
      let (p_off, _), _ = compile_both src in
      let il = Il.Pp.prog_to_string p_off in
      check_not_contains (f ^ ": no Vdef with reuse off") ~needle:"vt" il)
    (example_files ~runnable:false)

let tests =
  [
    Alcotest.test_case "forwards identical section" `Quick
      forwards_identical_section;
    Alcotest.test_case "may-alias blocks forward" `Quick may_alias_blocks_forward;
    Alcotest.test_case "no-alias control forwards" `Quick no_alias_control;
    Alcotest.test_case "offset overlap no forward" `Quick
      offset_overlap_no_forward;
    Alcotest.test_case "stride mismatch no forward" `Quick
      stride_mismatch_no_forward;
    Alcotest.test_case "volatile no forward" `Quick volatile_no_forward;
    Alcotest.test_case "examples reuse on=off" `Slow examples_equivalent;
    Alcotest.test_case "saxpy_chain forwards" `Quick saxpy_chain_forwards;
    Alcotest.test_case "reuse off leaves no vtmp" `Quick off_leaves_no_vtmp;
  ]
