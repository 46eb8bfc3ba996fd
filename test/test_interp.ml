(* IL interpreter tests: C semantics (arithmetic, conversions, recursion,
   memory) plus a qcheck property comparing pure integer expression
   evaluation against an OCaml reference. *)

open Helpers

let arithmetic () =
  let src =
    {|int main() {
        printf("%d %d %d %d %d\n", 7 / 2, -7 / 2, 7 % 3, -7 % 3, 1 << 4);
        printf("%d %d %d\n", 255 & 51, 0x0F | 0xF0, 5 ^ 3);
        printf("%g %g\n", 1.0 / 4.0, 3.0 * 0.5);
        return 0;
      }|}
  in
  Alcotest.(check string) "arithmetic" "3 -3 1 -1 16\n51 255 6\n0.25 1.5\n"
    (interp_output (compile src))

let int_wrap () =
  let src =
    {|int main() {
        int x;
        x = 2147483647;
        x = x + 1;
        printf("%d\n", x);
        return 0;
      }|}
  in
  Alcotest.(check string) "32-bit wrap" "-2147483648\n" (interp_output (compile src))

let float_truncation () =
  let src =
    {|int main() {
        float f;
        int i;
        f = 0.1f;
        i = 3.99;
        /* float stores round to 32 bits */
        printf("%d %d\n", i, f < 0.1000001 && f > 0.0999999);
        return 0;
      }|}
  in
  Alcotest.(check string) "conversions" "3 1\n" (interp_output (compile src))

let char_semantics () =
  let src =
    {|char buf[4];
      int main() {
        char c;
        c = 200;          /* wraps to -56 as signed char */
        buf[0] = 'A';
        buf[1] = buf[0] + 1;
        printf("%d %c%c\n", c, buf[0], buf[1]);
        return 0;
      }|}
  in
  Alcotest.(check string) "char" "-56 AB\n" (interp_output (compile src))

let recursion () =
  let src =
    {|int fib(int n) {
        if (n < 2) return n;
        return fib(n - 1) + fib(n - 2);
      }
      int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
      int main() {
        printf("%d %d\n", fib(15), fact(7));
        return 0;
      }|}
  in
  Alcotest.(check string) "recursion" "610 5040\n" (interp_output (compile src))

let address_of_scalar () =
  let src =
    {|void bump(int *p) { *p += 5; }
      int main() {
        int x;
        x = 10;
        bump(&x);
        bump(&x);
        printf("%d\n", x);
        return 0;
      }|}
  in
  Alcotest.(check string) "&scalar" "20\n" (interp_output (compile src))

let global_state_across_calls () =
  let src =
    {|int counter;
      void tick() { counter++; }
      int main() {
        int i;
        for (i = 0; i < 7; i++) tick();
        printf("%d\n", counter);
        return 0;
      }|}
  in
  Alcotest.(check string) "globals" "7\n" (interp_output (compile src))

let static_locals () =
  let src =
    {|int next() {
        static int n = 100;
        n++;
        return n;
      }
      int main() {
        next(); next();
        printf("%d\n", next());
        return 0;
      }|}
  in
  Alcotest.(check string) "static local" "103\n" (interp_output (compile src))

let math_builtins () =
  let src =
    {|int main() {
        double x;
        x = sqrt(16.0);
        printf("%g %g %d\n", x, fabs(-2.5), abs(-7));
        return 0;
      }|}
  in
  Alcotest.(check string) "builtins" "4 2.5 7\n" (interp_output (compile src))

let infinite_loop_times_out () =
  let src = "int main() { for (;;); return 0; }" in
  let prog = compile src in
  match Vpc.Il.Interp.run ~max_steps:10_000 prog with
  | exception Vpc.Il.Interp.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout"

let runtime_errors () =
  List.iter
    (fun (name, src) ->
      let prog = compile src in
      match Vpc.Il.Interp.run prog with
      | exception Vpc.Il.Interp.Runtime_error _ -> ()
      | _ -> Alcotest.failf "%s: expected a runtime error" name)
    [
      ("div by zero", "int main() { int z; z = 0; return 1 / z; }");
      ("oob", "int a[2]; int main() { return a[1 << 24]; }");
      ("null deref", "int main() { int *p; p = 0; return *p; }");
    ]

(* Float comparisons follow IEEE, as the simulator's do: every ordered
   comparison with a NaN is false and [!=] is true, in scalar code and in
   vector statements alike. *)
let nan_scalar_src =
  {|int main() {
      double z;
      z = 0.0;
      z = z / z;
      if (z == z) printf("eq\n"); else printf("ne\n");
      if (z < 1.0) printf("lt\n"); else printf("nlt\n");
      return 0;
    }|}

let nan_vector_src =
  {|double x[8];
    double y[8];
    double r[8];
    int main() {
      int i, n;
      double z;
      z = 0.0;
      z = z / z;
      for (i = 0; i < 8; i++) { x[i] = z; y[i] = 1.0; }
      for (i = 0; i < 8; i++) r[i] = (x[i] < y[i]) + (x[i] == x[i]) + (x[i] != x[i]);
      n = 0;
      for (i = 0; i < 8; i++) n = n + r[i];
      printf("%d\n", n);
      return 0;
    }|}

let ieee_comparisons () =
  List.iter
    (fun (name, src, expected) ->
      List.iter
        (fun (oname, options) ->
          let prog = compile ~options src in
          let what = Printf.sprintf "%s at %s" name oname in
          Alcotest.(check string) what expected (interp_output prog);
          Alcotest.(check string) (what ^ ": titan agrees") expected (titan_output prog))
        [ ("O0", Vpc.o0); ("O3", Vpc.o3) ])
    [ ("scalar", nan_scalar_src, "ne\nnlt\n"); ("vector", nan_vector_src, "8\n") ];
  (* the -O3 program really compares vectors *)
  check_contains "vector compare" ~needle:"(vt0 < vt1)"
    (func_il ~options:Vpc.o3 nan_vector_src "main")

(* The step budget is inclusive: a run needing exactly [max_steps] steps
   completes, one step fewer times out. *)
let step_budget_boundary () =
  let prog = compile (read_file "../examples/quickstart.c") in
  let steps = (Vpc.Il.Interp.run prog).steps_executed in
  Alcotest.(check int) "exact budget" steps
    (Vpc.Il.Interp.run ~max_steps:steps prog).steps_executed;
  match Vpc.Il.Interp.run ~max_steps:(steps - 1) prog with
  | exception Vpc.Il.Interp.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout one step short"

(* Random pure integer expressions evaluated against an OCaml model. *)
let expr_prop =
  let module G = QCheck.Gen in
  (* generate a tree as both C text and an OCaml closure over (a, b) *)
  let rec gen depth st : string * (int -> int -> int) =
    let wrap32 n =
      (n land 0xFFFFFFFF) - (if n land 0x80000000 <> 0 then 1 lsl 32 else 0)
    in
    if depth = 0 || G.int_bound 2 st = 0 then
      match G.int_bound 3 st with
      | 0 ->
          let n = G.int_bound 100 st in
          (string_of_int n, fun _ _ -> n)
      | 1 -> ("a", fun a _ -> a)
      | 2 -> ("b", fun _ b -> b)
      | _ ->
          let n = G.int_bound 50 st - 25 in
          (Printf.sprintf "(%d)" n, fun _ _ -> n)
    else
      let s1, f1 = gen (depth - 1) st in
      let s2, f2 = gen (depth - 1) st in
      match G.int_bound 7 st with
      | 0 -> (Printf.sprintf "(%s + %s)" s1 s2, fun a b -> wrap32 (f1 a b + f2 a b))
      | 1 -> (Printf.sprintf "(%s - %s)" s1 s2, fun a b -> wrap32 (f1 a b - f2 a b))
      | 2 -> (Printf.sprintf "(%s * %s)" s1 s2, fun a b -> wrap32 (f1 a b * f2 a b))
      | 3 -> (Printf.sprintf "(%s & %s)" s1 s2, fun a b -> f1 a b land f2 a b)
      | 4 -> (Printf.sprintf "(%s | %s)" s1 s2, fun a b -> f1 a b lor f2 a b)
      | 5 -> (Printf.sprintf "(%s ^ %s)" s1 s2, fun a b -> f1 a b lxor f2 a b)
      | 6 ->
          (Printf.sprintf "(%s < %s)" s1 s2,
           fun a b -> if f1 a b < f2 a b then 1 else 0)
      | _ ->
          (Printf.sprintf "(%s == %s)" s1 s2,
           fun a b -> if f1 a b = f2 a b then 1 else 0)
  in
  let arbitrary =
    QCheck.make
      (G.map2 (fun eg (a, b) -> (eg, a, b))
         (fun st -> gen 4 st)
         (G.pair (G.int_range (-1000) 1000) (G.int_range (-1000) 1000)))
      ~print:(fun ((s, _), a, b) -> Printf.sprintf "%s with a=%d b=%d" s a b)
  in
  QCheck.Test.make ~count:150 ~name:"random int expressions match OCaml model"
    arbitrary
    (fun ((text, model), a, b) ->
      let src =
        Printf.sprintf
          "int main() { int a, b; a = %d; b = %d; printf(\"%%d\", %s); return 0; }"
          a b text
      in
      let out = interp_output (compile src) in
      out = string_of_int (model a b))

let printf_formats () =
  let src =
    {|int main() {
        printf("[%5d|%-5d|%05d]\n", 42, 42, 42);
        printf("[%8.3f|%.1f|%g|%e]\n", 3.14159, 2.5, 0.125, 1500.0);
        printf("[%10s|%c%c]\n", "hi", 'o', 'k');
        printf("100%%\n");
        return 0;
      }|}
  in
  Alcotest.(check string) "formats"
    "[   42|42   |00042]\n[   3.142|2.5|0.125|1.500000e+03]\n[        hi|ok]\n100%\n"
    (interp_output (compile src));
  (* the simulator prints identically *)
  Alcotest.(check string) "titan agrees"
    (interp_output (compile src))
    (titan_output (compile src))


(* ----------------------------------------------------------------- *)
(* Golden interpreter table                                          *)
(* ----------------------------------------------------------------- *)

(* One row per program run: the MD5 of stdout, the return value with its
   constructor, the step count and the FP-operation count, or the exact
   runtime error, or [timeout].  The committed table was recorded from
   the interpreter before it was rewritten to decode each function once:
   any drift is a change to the reference semantics, never a speed-up. *)
let golden_path = "fixtures/interp_golden.txt"

module Interp = Vpc.Il.Interp

let interp_row ?max_steps ?on_volatile_read name prog =
  match Interp.run ?max_steps ?on_volatile_read prog with
  | r ->
      Printf.sprintf "%s stdout=%s ret=%s steps=%d fp_ops=%d" name
        (Digest.to_hex (Digest.string r.stdout_text))
        (match r.return_value with
        | Interp.V_int n -> Printf.sprintf "int:%d" n
        | Interp.V_float f -> Printf.sprintf "float:%h" f)
        r.steps_executed r.fp_ops
  | exception Interp.Runtime_error m -> Printf.sprintf "%s error=%s" name m
  | exception Interp.Timeout -> Printf.sprintf "%s timeout" name

(* [src] compiled at [options], then [edit] applied to function [fname]'s
   body statement by statement: how the table reaches IL the front end
   never emits. *)
let edited ?(options = Vpc.o0) src fname edit =
  let prog = compile ~options src in
  let f = Vpc.Il.Prog.func_exn prog fname in
  f.body <- Vpc.Il.Stmt.map_list edit f.body;
  prog

let replace_call edit (s : Vpc.Il.Stmt.t) =
  match s.desc with
  | Call (dst, tgt, args) ->
      let tgt, args = edit tgt args in
      [ { s with desc = Call (dst, tgt, args) } ]
  | _ -> [ s ]

(* The paper's device model: the status register reads 42 from its 5th
   read on (examples/device_poll.ml). *)
let device () =
  let reads = ref 0 in
  fun (v : Vpc.Il.Var.t) ->
    if v.name = "keyboard_status" then begin
      incr reads;
      Some (Interp.V_int (if !reads >= 5 then 42 else 0))
    end
    else None

(* Inputs that never stop run under a small budget. *)
let spins = [ "device_poll.c"; "lint_bugs.c"; "unreachable_exit.c" ]

let program_rows () =
  let files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f -> (dir, f))
  in
  List.concat_map
    (fun (dir, file) ->
      let src = read_file (Filename.concat dir file) in
      let name = Filename.chop_suffix file ".c" in
      List.concat_map
        (fun (oname, options) ->
          let prog = compile ~options src in
          let row = Printf.sprintf "%s %s" name oname in
          if List.mem file spins then
            interp_row ~max_steps:200_000 (row ^ " max_steps=200000") prog
            ::
            (if file = "device_poll.c" then
               [ interp_row ~on_volatile_read:(device ()) (row ^ " device") prog ]
             else [])
          else [ interp_row row prog ])
        [ ("O0", Vpc.o0); ("O3", Vpc.o3) ])
    (files "../examples" @ files "fixtures")

let error_rows () =
  let c name ?options ?max_steps src =
    interp_row ?max_steps name (compile ?options src)
  in
  let zero_step (s : Vpc.Il.Stmt.t) =
    match s.desc with
    | Do_loop d ->
        [ { s with desc = Do_loop { d with step = Vpc.Il.Expr.int_const 0 } } ]
    | _ -> [ s ]
  in
  let drop_labels (s : Vpc.Il.Stmt.t) =
    match s.desc with Label _ -> [] | _ -> [ s ]
  in
  let sum_loop =
    {|int main() { int i, s; s = 0;
        for (i = 0; i < 10; i++) s = s + i;
        printf("%d\n", s); return s; }|}
  in
  let callee = "int f(int a) { return a + 1; } int main() { return f(1); }" in
  let goto_fn = "int g() { goto out; out: return 1; }\n" in
  [
    c "oob-high" "int a[2]; int main() { return a[1 << 24]; }";
    c "oob-low" "int a[2]; int main() { return a[-100]; }";
    c "null-deref" "int main() { int *p; p = 0; return *p; }";
    c "mem-top" "int main() { int *p; p = (int *)4194300; *p = 7; return *p; }";
    c "mem-past-top" "int main() { int *p; p = (int *)4194301; *p = 7; return *p; }";
    c "div-zero" "int main() { int z; z = 0; return 1 / z; }";
    c "mod-zero" "int main() { int z; z = 0; return 1 % z; }";
    c "printf-conversion" {|int main() { printf("%x\n", 1); return 0; }|};
    c "uninit-double" "double main() { double x; return x; }";
    c "uninit-double-neg" "double main() { double x; return -x; }";
    c "max-steps" ~max_steps:1000 (read_file "../examples/quickstart.c");
    interp_row "zero-step-do" (edited ~options:Vpc.o1 sum_loop "main" zero_step);
    interp_row "wrong-arg-count"
      (edited callee "main" (replace_call (fun tgt _ -> (tgt, []))));
    interp_row "undefined-function"
      (edited callee "main"
         (replace_call (fun _ args -> (Vpc.Il.Stmt.Direct "nosuch", args))));
    interp_row "undefined-label-uncalled"
      (edited (goto_fn ^ {|int main() { printf("ok\n"); return 2; }|}) "g"
         drop_labels);
    interp_row "undefined-label-called"
      (edited (goto_fn ^ "int main() { return g(); }") "g" drop_labels);
  ]

let golden () =
  check_golden ~path:golden_path ~actual:"interp_golden.actual"
    (program_rows () @ error_rows ())

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick arithmetic;
    Alcotest.test_case "int wrap-around" `Quick int_wrap;
    Alcotest.test_case "conversions" `Quick float_truncation;
    Alcotest.test_case "char semantics" `Quick char_semantics;
    Alcotest.test_case "recursion" `Quick recursion;
    Alcotest.test_case "address of scalar" `Quick address_of_scalar;
    Alcotest.test_case "globals across calls" `Quick global_state_across_calls;
    Alcotest.test_case "static locals" `Quick static_locals;
    Alcotest.test_case "math builtins" `Quick math_builtins;
    Alcotest.test_case "printf formats" `Quick printf_formats;
    Alcotest.test_case "timeout" `Quick infinite_loop_times_out;
    Alcotest.test_case "runtime errors" `Quick runtime_errors;
    Alcotest.test_case "golden table" `Quick golden;
    Alcotest.test_case "IEEE float comparisons" `Quick ieee_comparisons;
    Alcotest.test_case "step budget boundary" `Quick step_budget_boundary;
    QCheck_alcotest.to_alcotest expr_prop;
  ]
