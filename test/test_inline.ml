(* Inliner tests (paper §7/§8): call-site expansion, parameter binding,
   recursion guards, static promotion, catalogs, and the interaction with
   constant propagation that makes inlined specializations collapse. *)

open Helpers

let o3 = Vpc.o3

let basic_expansion () =
  let src =
    {|int add3(int x) { return x + 3; }
      int main() { printf("%d\n", add3(10)); return 0; }|}
  in
  let prog, stats = compile_stats ~options:o3 src in
  Alcotest.(check int) "one call inlined" 1 stats.inline.calls_inlined;
  Alcotest.(check string) "result" "13\n" (interp_output prog);
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  check_not_contains "no call left" ~needle:"add3(" il;
  check_contains "folded to 13" ~needle:"13" il

let daxpy_guard_folding () =
  (* §8: daxpy(x, y, 0.0, z): the whole body folds away *)
  let src =
    {|float gx;
      void daxpy(float *x, float y, float a, float z) {
        if (a == 0.0) return;
        *x = y + a * z;
      }
      int main() {
        gx = 5.0;
        daxpy(&gx, 1.0, 0.0, 2.0);
        printf("%g\n", gx);
        return 0;
      }|}
  in
  let prog = compile ~options:o3 src in
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  (* the store to *x is unreachable and must be gone *)
  check_not_contains "dead assignment eliminated (§8)" ~needle:"+ in_a" il;
  check_not_contains "no fp multiply left" ~needle:"*" (String.concat ""
    (List.filter (fun line -> Helpers.contains ~needle:"in_" line)
       (String.split_on_char '\n' il)));
  Alcotest.(check string) "value unchanged" "5\n" (interp_output prog)

let param_shapes () =
  (* in_x = ...; body uses the copies (the §9 listing's shape) *)
  let src =
    {|int scale(int v, int k) { return v * k; }
      int main() { return scale(6, 7); }|}
  in
  let prog = compile ~options:{ o3 with Vpc.off = [ `Scalar_opt ] } src in
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  check_contains "in_v binding" ~needle:"in_v = 6;" il;
  check_contains "in_k binding" ~needle:"in_k = 7;" il;
  check_contains "exit label" ~needle:".lb_" il

let nested_inlining () =
  let src =
    {|int inner(int x) { return x + 1; }
      int middle(int x) { return inner(x) * 2; }
      int outer(int x) { return middle(x) + inner(x); }
      int main() { printf("%d\n", outer(10)); return 0; }|}
  in
  let prog, stats = compile_stats ~options:o3 src in
  Alcotest.(check string) "nested result" "33\n" (interp_output prog);
  Alcotest.(check bool) "several inlines" true (stats.inline.calls_inlined >= 3);
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  check_not_contains "no calls left" ~needle:"outer(" il

let recursion_guard () =
  let src =
    {|int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
      int main() { printf("%d\n", fact(6)); return 0; }|}
  in
  let prog, stats = compile_stats ~options:o3 src in
  Alcotest.(check string) "recursion still right" "720\n" (interp_output prog);
  Alcotest.(check bool) "recursive calls skipped" true
    (stats.inline.calls_skipped_recursive > 0)

let mutual_recursion_guard () =
  let src =
    {|int is_odd(int n);
      int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
      int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
      int main() { printf("%d %d\n", is_even(10), is_odd(7)); return 0; }|}
  in
  let prog = compile ~options:o3 src in
  Alcotest.(check string) "mutual recursion" "1 1\n" (interp_output prog)

let static_variable_single_storage () =
  (* §7: statics must keep one storage location whether the function is
     called or inlined *)
  let src =
    {|int counter() {
        static int n = 0;
        n++;
        return n;
      }
      int main() {
        int a, b, c;
        a = counter();
        b = counter();
        c = counter();
        printf("%d %d %d\n", a, b, c);
        return 0;
      }|}
  in
  List.iter
    (fun (name, options) ->
      Alcotest.(check string) name "1 2 3\n"
        (interp_output (compile ~options src)))
    [ ("without inlining", Vpc.o1); ("with inlining", o3) ]

let library_calls_untouched () =
  let src = {|int main() { printf("%d\n", abs(-4)); return 0; }|} in
  let prog, stats = compile_stats ~options:o3 src in
  Alcotest.(check string) "builtin works" "4\n" (interp_output prog);
  Alcotest.(check bool) "builtin not inlinable" true
    (stats.inline.calls_skipped_unknown >= 1)

let only_filter () =
  let src =
    {|int f(int x) { return x + 1; }
      int g(int x) { return x + 2; }
      int main() { printf("%d\n", f(1) + g(1)); return 0; }|}
  in
  let options = { Vpc.o3 with Vpc.inline_only = [ "f" ] } in
  let prog = compile ~options src in
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  check_not_contains "f inlined" ~needle:" f(" il;
  check_contains "g not inlined" ~needle:"g(1)" il;
  Alcotest.(check string) "result" "5\n" (interp_output prog)

let size_threshold () =
  (* a huge callee is refused *)
  let body = String.concat "" (List.init 300 (fun i -> Printf.sprintf "x += %d; " (i mod 7))) in
  let src =
    Printf.sprintf
      {|int big(int x) { %s return x; }
        int main() { printf("%%d\n", big(1)); return 0; }|}
      body
  in
  let prog, stats = compile_stats ~options:o3 src in
  Alcotest.(check bool) "skipped for size" true (stats.inline.calls_skipped_size > 0);
  ignore (interp_output prog)

let goto_label_renaming () =
  (* inline the same function twice: labels must not collide *)
  let src =
    {|int firstpos(int a, int b) {
        if (a > 0) goto done;
        a = b;
      done:
        return a;
      }
      int main() {
        printf("%d %d\n", firstpos(5, 9), firstpos(-1, 9));
        return 0;
      }|}
  in
  let prog = compile ~options:o3 src in
  Alcotest.(check string) "labels renamed" "5 9\n" (interp_output prog)

let enables_vectorization () =
  (* §1: calls inhibit vectorization; inlining removes the barrier *)
  let src =
    {|float a[100], b[100];
      float work(float x) { return x * 2.0f + 1.0f; }
      void loop_() {
        int i;
        for (i = 0; i < 100; i++) a[i] = work(b[i]);
      }|}
  in
  let il_no_inline = func_il ~options:Vpc.o2 src "loop_" in
  check_not_contains "call blocks vectorization" ~needle:"[0 : " il_no_inline;
  let il_inline = func_il ~options:o3 src "loop_" in
  check_contains "inlining unlocks vectorization" ~needle:"[0 : " il_inline

let catalog_roundtrip () =
  let src =
    {|float cube(float x) { return x * x * x; }
      int helper(int n) { return n * 2; }|}
  in
  let lib = compile ~options:Vpc.o0 src in
  let text = Vpc.Inline.Catalog.to_string lib in
  let back = Vpc.Inline.Catalog.of_string text in
  Alcotest.(check int) "two functions" 2 (List.length back.Vpc.Il.Prog.funcs);
  (* reserialization is stable *)
  Alcotest.(check string) "stable" text (Vpc.Inline.Catalog.to_string back)

let catalog_import_and_inline () =
  let lib_src = {|float cube(float x) { return x * x * x; }|} in
  let lib = compile ~options:Vpc.o0 lib_src in
  let file = Filename.temp_file "vpc_catalog" ".vcat" in
  Vpc.Inline.Catalog.save lib file;
  let main_src =
    {|float cube(float);
      int main() { printf("%g\n", cube(3.0f)); return 0; }|}
  in
  let options = { Vpc.o3 with Vpc.catalogs = [ file ] } in
  let prog, stats = compile_stats ~options main_src in
  Sys.remove file;
  Alcotest.(check string) "cross-file inline" "27\n" (interp_output prog);
  Alcotest.(check bool) "was inlined" true (stats.inline.calls_inlined >= 1)

let catalog_static_unified () =
  (* importing a catalog twice must not duplicate a library's globals *)
  let lib = compile ~options:Vpc.o0 "int lib_state = 5; int get() { return lib_state; }" in
  let target = compile ~options:Vpc.o0 "int main() { return 0; }" in
  Vpc.Inline.Catalog.import ~into:target lib;
  Vpc.Inline.Catalog.import ~into:target lib;
  let names =
    List.map
      (fun (g : Vpc.Il.Prog.global) -> g.gvar.Vpc.Il.Var.name)
      (Vpc.Il.Prog.globals_list target)
  in
  Alcotest.(check int) "lib_state appears once" 1
    (List.length (List.filter (( = ) "lib_state") names))

let tests =
  [
    Alcotest.test_case "basic expansion" `Quick basic_expansion;
    Alcotest.test_case "guard folding (§8)" `Quick daxpy_guard_folding;
    Alcotest.test_case "parameter shapes (§9)" `Quick param_shapes;
    Alcotest.test_case "nested inlining" `Quick nested_inlining;
    Alcotest.test_case "recursion guard" `Quick recursion_guard;
    Alcotest.test_case "mutual recursion" `Quick mutual_recursion_guard;
    Alcotest.test_case "static single storage (§7)" `Quick static_variable_single_storage;
    Alcotest.test_case "library calls" `Quick library_calls_untouched;
    Alcotest.test_case "--inline filter" `Quick only_filter;
    Alcotest.test_case "size threshold" `Quick size_threshold;
    Alcotest.test_case "label renaming" `Quick goto_label_renaming;
    Alcotest.test_case "enables vectorization (§1)" `Quick enables_vectorization;
    Alcotest.test_case "catalog roundtrip" `Quick catalog_roundtrip;
    Alcotest.test_case "catalog import+inline (§7)" `Quick catalog_import_and_inline;
    Alcotest.test_case "catalog globals unified" `Quick catalog_static_unified;
  ]
