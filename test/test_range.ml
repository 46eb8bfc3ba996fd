(* The symbolic range analysis (lib/range) and its consumers.

   Unit direction: the interval lattice (join/meet/widen), canonical
   affine forms, and scalar evolutions behave algebraically.  Widening
   must lose precision monotonically — it may only unbound endpoints,
   never invent tighter ones.

   Integration direction: interprocedural parameter seeding joins the
   visible call sites and falls to top behind indirect calls; the
   dataflow's loop environments stay sound after widening; the
   constant-propagation consumer folds branches the ranges decide; the
   lint pass reports exactly the seeded provable bugs and nothing on
   clean code; degenerate-DO advisories and the interpreter's zero-step
   rejection close the loop-shaped holes. *)

open Helpers
module Il = Vpc.Il
module Expr = Il.Expr
module Stmt = Il.Stmt
module Var = Il.Var
module Func = Il.Func
module Prog = Il.Prog
module Ty = Il.Ty
module Builder = Il.Builder
module R = Vpc.Range.Range
module I = R.Interval
module A = R.Affine

let itv lo hi = I.of_bounds lo hi

let check_itv name expected got =
  if not (I.equal expected got) then
    Alcotest.failf "%s: expected %s, got %s" name (I.to_string expected)
      (I.to_string got)

(* ----------------------------------------------------------------- *)
(* interval lattice                                                   *)
(* ----------------------------------------------------------------- *)

let interval_lattice () =
  check_itv "join disjoint" (itv (Some 0) (Some 20))
    (I.join (itv (Some 0) (Some 5)) (itv (Some 10) (Some 20)));
  check_itv "join with bot" (itv (Some 3) (Some 4))
    (I.join I.bot (itv (Some 3) (Some 4)));
  check_itv "meet overlap" (itv (Some 3) (Some 5))
    (I.meet (itv (Some 0) (Some 5)) (itv (Some 3) (Some 9)));
  Alcotest.(check bool)
    "meet disjoint is bot" true
    (I.is_bot (I.meet (itv (Some 0) (Some 2)) (itv (Some 5) (Some 9))));
  Alcotest.(check bool) "point contains" true (I.contains (I.point 7) 7);
  Alcotest.(check bool)
    "subset" true
    (I.subset (itv (Some 1) (Some 2)) (itv (Some 0) (Some 5)));
  Alcotest.(check (option int)) "to_point" (Some 7) (I.to_point (I.point 7));
  Alcotest.(check (option int))
    "to_point of range" None
    (I.to_point (itv (Some 1) (Some 2)))

let interval_widen () =
  (* a stable bound survives; a moving one is dropped to infinity *)
  check_itv "widen hi moves" (itv (Some 0) None)
    (I.widen (itv (Some 0) (Some 5)) (itv (Some 0) (Some 6)));
  check_itv "widen lo moves" (itv None (Some 5))
    (I.widen (itv (Some 0) (Some 5)) (itv (Some (-1)) (Some 5)));
  check_itv "widen stable" (itv (Some 0) (Some 5))
    (I.widen (itv (Some 0) (Some 5)) (itv (Some 1) (Some 4)));
  (* soundness: the widened interval covers both inputs — widening may
     only unbound endpoints, never claim precision *)
  let samples =
    [
      (itv (Some 0) (Some 5), itv (Some 2) (Some 9));
      (itv None (Some 5), itv (Some 0) (Some 7));
      (itv (Some (-3)) None, itv (Some (-8)) (Some 1));
      (I.bot, itv (Some 1) (Some 1));
    ]
  in
  List.iter
    (fun (old, next) ->
      let w = I.widen old next in
      if not (I.subset old w && I.subset next w) then
        Alcotest.failf "widen %s %s = %s does not cover its inputs"
          (I.to_string old) (I.to_string next) (I.to_string w))
    samples

let interval_arith_truth () =
  check_itv "add" (itv (Some 3) (Some 12))
    (I.add (itv (Some 1) (Some 2)) (itv (Some 2) (Some 10)));
  check_itv "add unbounded" (itv (Some 3) None)
    (I.add (itv (Some 1) (Some 2)) (itv (Some 2) None));
  check_itv "sub" (itv (Some (-9)) (Some 0))
    (I.sub (itv (Some 1) (Some 2)) (itv (Some 2) (Some 10)));
  check_itv "mul signs" (itv (Some (-20)) (Some 10))
    (I.mul (itv (Some (-2)) (Some 1)) (itv (Some 0) (Some 10)));
  check_itv "neg" (itv (Some (-2)) (Some 3)) (I.neg (itv (Some (-3)) (Some 2)));
  let t = Alcotest.(check (option bool)) in
  t "lt decided" (Some true)
    (I.truth Expr.Lt (itv (Some 0) (Some 5)) (itv (Some 6) (Some 9)));
  t "lt refuted" (Some false)
    (I.truth Expr.Lt (itv (Some 6) (Some 9)) (itv (Some 0) (Some 5)));
  t "lt ambiguous" None
    (I.truth Expr.Lt (itv (Some 0) (Some 5)) (itv (Some 5) (Some 9)));
  t "le on touch" (Some true)
    (I.truth Expr.Le (itv (Some 0) (Some 5)) (itv (Some 5) (Some 9)));
  t "eq points" (Some true) (I.truth Expr.Eq (I.point 4) (I.point 4));
  t "ne disjoint" (Some true)
    (I.truth Expr.Ne (itv (Some 0) (Some 1)) (itv (Some 2) (Some 3)))

(* ----------------------------------------------------------------- *)
(* affine forms and evolutions                                        *)
(* ----------------------------------------------------------------- *)

let affine_canon () =
  let x = A.sym (A.Svar 1) and y = A.sym (A.Svar 2) in
  Alcotest.(check bool)
    "x+y = y+x" true
    (A.equal (A.add x y) (A.add y x));
  Alcotest.(check (option int)) "x-x is 0" (Some 0) (A.to_const (A.sub x x));
  Alcotest.(check bool)
    "x+x = 2x" true
    (A.equal (A.add x x) (A.scale 2 x));
  Alcotest.(check bool)
    "scale 0 drops the term" true
    (A.equal (A.scale 0 x) (A.const 0));
  let a = A.add (A.scale 4 x) (A.const 8) in
  Alcotest.(check bool) "4x+8 divisible by 4" true (A.divisible_by a 4);
  Alcotest.(check bool) "4x+8 not divisible by 3" false (A.divisible_by a 3);
  Alcotest.(check bool) "mentions its var" true (A.mentions x 1);
  Alcotest.(check bool)
    "address symbols are not value mentions" false
    (A.mentions (A.sym (A.Saddr 1)) 1)

let evolutions () =
  let base = A.add (A.sym (A.Svar 7)) (A.const 2) in
  let e = { R.Evo.base; step = 4 } in
  Alcotest.(check bool)
    "advance 3 = base + 12" true
    (A.equal (R.Evo.advance e 3) (A.add base (A.const 12)));
  Alcotest.(check bool)
    "advance 0 = base" true
    (A.equal (R.Evo.advance e 0) base);
  (* inner evolution during outer iteration k: base shifted k outer steps *)
  let inner = { R.Evo.base = A.const 0; step = 1 } in
  let shifted = R.Evo.compose ~outer:e 5 ~inner in
  Alcotest.(check bool)
    "composed base" true
    (A.equal shifted.R.Evo.base (A.const 20));
  Alcotest.(check int) "composed step" 1 shifted.R.Evo.step

(* ----------------------------------------------------------------- *)
(* interprocedural seeding and the loop dataflow                      *)
(* ----------------------------------------------------------------- *)

let var_id (f : Func.t) name =
  let found = ref None in
  Hashtbl.iter
    (fun id (v : Var.t) -> if v.Var.name = name then found := Some id)
    f.Func.vars;
  match !found with
  | Some id -> id
  | None -> Alcotest.failf "no variable %s in %s" name f.Func.name

let param_seeding () =
  let prog =
    Vpc.parse
      {|
int g_sink;
void f(int n) { g_sink = n; }
void h(int m) { g_sink = m; }
int main()
{
  f(3);
  f(10);
  return 0;
}
|}
  in
  let t = R.analyze prog in
  let f = Prog.func_exn prog "f" in
  check_itv "f's n joins the call sites" (itv (Some 3) (Some 10))
    (R.param_interval t "f" (var_id f "n"));
  (* h has no visible direct call: its callers are unknown, so its
     parameter must stay top — seeding from nothing would be unsound *)
  let h = Prog.func_exn prog "h" in
  Alcotest.(check bool)
    "h's m is top with no visible caller" true
    (I.is_top (R.param_interval t "h" (var_id h "m")))

(* the environment inside a widened loop still covers every attained
   value and re-narrows through the guard *)
let loop_envs () =
  let prog =
    Vpc.parse
      {|
int g_sink;
void f(int n)
{
  int i;
  for (i = 0; i < n; i++)
    g_sink = i;
}
int main() { f(5); f(100); return 0; }
|}
  in
  let t = R.analyze prog in
  let f = Prog.func_exn prog "f" in
  let fe = R.analyze_func t prog f in
  let i = var_id f "i" in
  let body_env = ref None in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.While (_, _, body) -> (
          match body with
          | first :: _ -> body_env := R.env_before fe first.Stmt.id
          | [] -> ())
      | _ -> ())
    f.Func.body;
  match !body_env with
  | None -> Alcotest.fail "no loop body environment recorded"
  | Some env ->
      let iv = (R.eval env (Expr.var (Func.var_exn f i))).R.itv in
      (* sound: every attained value 0..99 is covered *)
      List.iter
        (fun k ->
          if not (I.contains iv k) then
            Alcotest.failf "i's interval %s misses attained value %d"
              (I.to_string iv) k)
        [ 0; 50; 99 ];
      (* and the guard re-narrows the widened interval: i < n <= 100 *)
      (match iv.I.lo with
      | Some l when l >= 0 -> ()
      | _ -> Alcotest.failf "i's lower bound lost: %s" (I.to_string iv));
      match iv.I.hi with
      | Some h when h <= 99 -> ()
      | _ ->
          Alcotest.failf "guard did not re-narrow the widened hi: %s"
            (I.to_string iv)

(* ----------------------------------------------------------------- *)
(* consumers: const-prop folds, lint, advisories, interpreter         *)
(* ----------------------------------------------------------------- *)

let const_prop_range_fold () =
  let src =
    {|
int g_big, g_small;
void big() { g_big = 1; }
void small() { g_small = 1; }
void f(int n)
{
  if (n > 3)
    big();
  else
    small();
}
int main() { f(5); f(9); return 0; }
|}
  in
  let il_on = func_il ~options:Vpc.o2 src "f" in
  check_contains "range keeps the taken branch" ~needle:"big" il_on;
  check_not_contains "range folds the dead branch" ~needle:"small" il_on;
  let il_off =
    func_il ~options:{ Vpc.o2 with Vpc.off = [ `Range ] } src "f"
  in
  check_contains "without ranges both branches stay" ~needle:"small" il_off

let rules_of vs = List.map (fun v -> v.Vpc.Check.Report.rule) vs

let lint_seeded_bugs () =
  let prog =
    Vpc.parse
      {|
int a[10];
int sum;
int main()
{
  int i, s;
  a[12] = 5;
  s = 0;
  for (i = 0; i <= 10; i++)
    s = s + a[i];
  for (i = 5; i < 3; i++)
    s = s + 1;
  for (i = 0; i <= 2147483600; i = i + 1000)
    s = s + 1;
  sum = s;
  return 0;
}
|}
  in
  let rules = rules_of (Vpc.Check.Lint.run prog) in
  List.iter
    (fun r ->
      if not (List.mem r rules) then
        Alcotest.failf "expected lint rule %s, got [%s]" r
          (String.concat "; " rules))
    [ "oob-subscript"; "oob-loop"; "loop-guard-false"; "induction-overflow" ]

let lint_clean_on_correct_code () =
  let prog =
    Vpc.parse
      {|
float a[64], b[64];
int main()
{
  int i;
  for (i = 0; i < 64; i++)
    a[i] = b[i] * 2.0f;
  for (i = 63; i >= 0; i = i - 1)
    b[i] = a[i];
  printf("%g\n", a[0]);
  return 0;
}
|}
  in
  match Vpc.Check.Lint.run prog with
  | [] -> ()
  | vs ->
      Alcotest.failf "expected no findings, got [%s]"
        (String.concat "; " (rules_of vs))

(* A minimal hand-built host for DO-loop shapes the front end never
   emits directly. *)
let host () =
  let prog = Prog.create () in
  let main = Func.create ~name:"main" ~ret_ty:Ty.Int () in
  Prog.add_func prog main;
  let i = Var.make ~id:(Prog.fresh_var_id prog) ~name:"i" ~ty:Ty.Int () in
  Func.add_var main i;
  let b = Builder.ctx prog main in
  (prog, main, b, i)

let degenerate_do_advisory () =
  let prog, main, b, i = host () in
  main.Func.body <-
    [
      Builder.do_loop b ~index:i.Var.id ~lo:(Expr.int_const 0)
        ~hi:(Expr.int_const (-1))
        ~step:(Expr.int_const 1)
        [ Builder.nop b ];
      Builder.return b (Some (Expr.int_const 0));
    ];
  let rules = rules_of (Vpc.Check.Wf.advise_prog prog) in
  if not (List.mem "do-degenerate" rules) then
    Alcotest.failf "expected do-degenerate, got [%s]" (String.concat "; " rules);
  (* advisory only: the verifier itself must stay clean (while-to-do
     legitimately emits constant zero-trip loops) *)
  (match Vpc.Check.Verify.check_prog prog with
  | [] -> ()
  | vs ->
      Alcotest.failf "advisory leaked into the verifier: [%s]"
        (String.concat "; " (rules_of vs)));
  let prog2, main2, b2, i2 = host () in
  main2.Func.body <-
    [
      Builder.do_loop b2 ~index:i2.Var.id ~lo:(Expr.int_const 0)
        ~hi:(Expr.int_const 5) ~step:(Expr.int_const 1)
        [ Builder.nop b2 ];
      Builder.return b2 (Some (Expr.int_const 0));
    ];
  match rules_of (Vpc.Check.Wf.advise_prog prog2) with
  | [] -> ()
  | rules ->
      Alcotest.failf "clean DO loop advised: [%s]" (String.concat "; " rules)

let interp_rejects_zero_step () =
  let prog, main, b, i = host () in
  main.Func.body <-
    [
      Builder.do_loop b ~index:i.Var.id ~lo:(Expr.int_const 0)
        ~hi:(Expr.int_const 5) ~step:(Expr.int_const 0)
        [ Builder.nop b ];
      Builder.return b (Some (Expr.int_const 0));
    ];
  match Il.Interp.run prog with
  | exception Il.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a runtime error for a zero-step DO loop"

(* A call or a store may change an unsafe variable, so it must also kill
   every affine form that mentions it: [x = g + n] stops proving
   [x - g == n] once [touch()] or [*p = 0] may have moved [g]. *)
let havoc_kills_stale_forms () =
  let prog =
    Vpc.parse
      {|
int g;
int sink;
void touch(void) { g = g + 7; }
int f(int n, int *p)
{
  int x;
  x = g + n;
  if (x - g == n) sink = 1;
  touch();
  if (x - g == n) sink = 2;
  x = g + n;
  *p = 0;
  if (x - g == n) sink = 3;
  return x;
}
int main() { return f(3, &sink); }
|}
  in
  let f = Prog.func_exn prog "f" in
  let fe = R.analyze_func (R.analyze prog) prog f in
  let truths =
    List.filter_map
      (fun (s : Stmt.t) ->
        match s.Stmt.desc with
        | Stmt.If (c, _, _) ->
            Some (Option.bind (R.env_before fe s.Stmt.id) (fun env -> R.truth env c))
        | _ -> None)
      (Func.all_stmts f)
  in
  Alcotest.(check (list (option bool)))
    "proved before, unknown after the call and the store"
    [ Some true; None; None ] truths

(* ----------------------------------------------------------------- *)
(* golden table                                                       *)
(* ----------------------------------------------------------------- *)

(* The whole-program analysis over every example and test fixture, as
   parsed and as -O3 sees it right after inlining: each parameter
   interval {!R.analyze} seeds, and per function an MD5 over the value
   (interval and affine form) {!R.eval} gives every subexpression of
   every statement, in the environment before that statement.
   test/fixtures/range_golden.txt pins the table, so a faster analysis
   must compute the same facts. *)
let range_golden_rows () =
  let sources =
    List.concat_map
      (fun dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".c")
        |> List.sort compare
        |> List.map (Filename.concat dir))
      [ "../examples"; "fixtures" ]
  in
  let snapshot name stage prog =
    let t = R.analyze prog in
    List.concat_map
      (fun (f : Func.t) ->
        let params =
          List.map
            (fun pid ->
              Printf.sprintf "%s %s param %s %d %s" name stage f.Func.name pid
                (I.to_string (R.param_interval t f.Func.name pid)))
            f.Func.params
        in
        let fe = R.analyze_func t prog f in
        let facts = Buffer.create 1024 in
        List.iter
          (fun (s : Stmt.t) ->
            match R.env_before fe s.Stmt.id with
            | None -> Printf.bprintf facts "s%d -\n" s.Stmt.id
            | Some env ->
                List.iter
                  (Expr.iter (fun (e : Expr.t) ->
                       let v = R.eval env e in
                       Printf.bprintf facts "s%d %s %s\n" s.Stmt.id
                         (I.to_string v.R.itv)
                         (match v.R.aff with
                         | Some a -> A.to_string a
                         | None -> "-")))
                  (Stmt.shallow_exprs s))
          (Func.all_stmts f);
        params
        @ [
            Printf.sprintf "%s %s env %s %s" name stage f.Func.name
              (Digest.to_hex (Digest.string (Buffer.contents facts)));
          ])
      prog.Prog.funcs
  in
  List.concat_map
    (fun path ->
      let name = Filename.chop_suffix (Filename.basename path) ".c" in
      let prog = Vpc.parse (read_file path) in
      let parsed = snapshot name "parsed" prog in
      let inlined = ref [] in
      let dump stage _text =
        if stage = "inline" then inlined := snapshot name "inlined" prog
      in
      ignore (Vpc.optimize ~options:{ Vpc.o3 with dump = Some dump } prog);
      parsed @ !inlined)
    sources

let range_golden () =
  check_golden ~path:"fixtures/range_golden.txt" ~actual:"range_golden.actual"
    (range_golden_rows ())

let tests =
  [
    Alcotest.test_case "interval lattice" `Quick interval_lattice;
    Alcotest.test_case "interval widening" `Quick interval_widen;
    Alcotest.test_case "interval arithmetic and truth" `Quick
      interval_arith_truth;
    Alcotest.test_case "affine canonicalization" `Quick affine_canon;
    Alcotest.test_case "scalar evolutions" `Quick evolutions;
    Alcotest.test_case "parameter seeding" `Quick param_seeding;
    Alcotest.test_case "loop environments" `Quick loop_envs;
    Alcotest.test_case "const-prop range folds" `Quick const_prop_range_fold;
    Alcotest.test_case "lint: seeded bugs" `Quick lint_seeded_bugs;
    Alcotest.test_case "lint: clean code" `Quick lint_clean_on_correct_code;
    Alcotest.test_case "degenerate DO advisory" `Quick degenerate_do_advisory;
    Alcotest.test_case "interp rejects zero step" `Quick
      interp_rejects_zero_step;
    Alcotest.test_case "havoc kills stale forms" `Quick havoc_kills_stale_forms;
    Alcotest.test_case "golden table" `Quick range_golden;
  ]
