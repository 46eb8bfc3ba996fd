(* Vectorizer tests: distribution, recurrences, strip mining, short
   vectors, aliasing conservatism, pragmas, parallel marking — and
   semantics preservation throughout. *)

open Helpers

let o2 = Vpc.o2
let o2_noalias = { Vpc.o2 with Vpc.assume_noalias = true }

let vector_add_vectorizes () =
  let src =
    {|float a[100], b[100], c[100];
      void add() {
        int i;
        for (i = 0; i < 100; i++) a[i] = b[i] + c[i];
      }|}
  in
  let il = func_il ~options:o2 src "add" in
  check_contains "vector section" ~needle:"[0 : " il;
  check_contains "do parallel strip loop" ~needle:"do parallel" il

let recurrence_stays_scalar () =
  let src =
    {|float a[100];
      void rec_() {
        int i;
        for (i = 0; i < 99; i++) a[i + 1] = a[i] + 1.0;
      }|}
  in
  let il =
    func_il
      ~options:{ o2 with Vpc.off = [ `Scalar_replacement; `Strength_reduction ] }
      src "rec_"
  in
  check_not_contains "no vector stmt for recurrence" ~needle:"[0 : " il

let reversed_copy_is_fine () =
  (* a[i] = a[i]: distance 0 only, vectorizable *)
  let src =
    {|float a[100];
      void f() {
        int i;
        for (i = 0; i < 100; i++) a[i] = a[i] * 2.0f;
      }|}
  in
  let il = func_il ~options:o2 src "f" in
  check_contains "self copy vectorizes" ~needle:"[0 : " il

let distribution_order () =
  (* S2 reads what S1 writes (loop-independent): both vectorize, S1's
     loop first *)
  let src =
    {|float a[100], b[100], c[100];
      void f() {
        int i;
        for (i = 0; i < 100; i++) {
          a[i] = b[i] + 1.0f;
          c[i] = a[i] * 2.0f;
        }
      }|}
  in
  let il = func_il ~options:o2 src "f" in
  (* both statements vectorized: two sections assigned *)
  let first = String.index il '[' in
  ignore first;
  check_contains "a vectorized" ~needle:"(&a" il;
  check_contains "c vectorized" ~needle:"(&c" il;
  assert_all_configs_agree "distribution semantics"
    {|float a[100], b[100], c[100];
      int main() {
        int i;
        float s;
        for (i = 0; i < 100; i++) b[i] = i;
        for (i = 0; i < 100; i++) {
          a[i] = b[i] + 1.0f;
          c[i] = a[i] * 2.0f;
        }
        s = 0;
        for (i = 0; i < 100; i++) s += c[i];
        printf("%g\n", s);
        return 0;
      }|}

let backward_dep_ordering () =
  (* S1 reads a[i+1], S2 writes a[i]: anti dependence forces the read
     loop to run before the write loop when distributed *)
  assert_all_configs_agree "anti-dep distribution"
    {|float a[101], b[100];
      int main() {
        int i;
        float s;
        for (i = 0; i < 101; i++) a[i] = i;
        for (i = 0; i < 100; i++) {
          b[i] = a[i + 1];
          a[i] = 0.0f;
        }
        s = 0;
        for (i = 0; i < 100; i++) s += b[i] + a[i];
        printf("%g\n", s);
        return 0;
      }|}

let short_vector_no_strip_loop () =
  (* trip 4 <= vlen: a bare vector statement, no strip loop (the graphics
     case §5.2 calls out) *)
  let src =
    {|float v[4], w[4];
      void f() {
        int i;
        for (i = 0; i < 4; i++) v[i] = w[i] * 2.0f;
      }|}
  in
  let il = func_il ~options:o2 src "f" in
  check_contains "vector stmt" ~needle:"[0 : 4 : 4]" il;
  check_not_contains "no strip loop" ~needle:"do parallel" il

let pointer_params_block_vectorization () =
  let src =
    {|void f(float *x, float *y, int n) {
        int i;
        for (i = 0; i < n; i++) x[i] = y[i] + 1.0f;
      }|}
  in
  let il =
    func_il
      ~options:{ o2 with Vpc.off = [ `Scalar_replacement; `Strength_reduction ] }
      src "f"
  in
  check_not_contains "may-alias blocks" ~needle:"[0 : " il;
  (* the paper's escape hatches *)
  let il2 = func_il ~options:o2_noalias src "f" in
  check_contains "noalias option vectorizes" ~needle:"[0 : " il2

let pragma_asserts_independence () =
  let src =
    {|void f(float *x, float *y, int n) {
        int i;
        #pragma vpc independent
        for (i = 0; i < n; i++) x[i] = y[i] + 1.0f;
      }|}
  in
  let il = func_il ~options:o2 src "f" in
  check_contains "pragma vectorizes" ~needle:"[0 : " il

let iota_vectorizes () =
  let src =
    {|int idx[100];
      void f() {
        int i;
        for (i = 0; i < 100; i++) idx[i] = 3 * i + 7;
      }|}
  in
  let il = func_il ~options:o2 src "f" in
  check_contains "iota" ~needle:"iota" il;
  assert_all_configs_agree "iota semantics"
    {|int idx[100];
      int main() {
        int i, s;
        for (i = 0; i < 100; i++) idx[i] = 3 * i + 7;
        s = 0;
        for (i = 0; i < 100; i++) s ^= idx[i] + i;
        printf("%d\n", s);
        return 0;
      }|}

let reduction_not_vectorized_but_correct () =
  assert_all_configs_agree "sum reduction"
    {|float a[200];
      int main() {
        int i;
        float s;
        for (i = 0; i < 200; i++) a[i] = i * 0.5f;
        s = 0;
        for (i = 0; i < 200; i++) s += a[i];
        printf("%g\n", s);
        return 0;
      }|}

let stride_and_offset_sections () =
  assert_all_configs_agree "strided and offset"
    {|float a[200], b[200];
      int main() {
        int i;
        float s;
        for (i = 0; i < 200; i++) b[i] = i;
        for (i = 0; i < 99; i++) a[2 * i] = b[i + 1] * 2.0f;
        s = 0;
        for (i = 0; i < 200; i++) s += a[i];
        printf("%g\n", s);
        return 0;
      }|}

let parallel_scalar_loop () =
  (* not vector-expressible rhs (non-affine subscript) but independent:
     can still go parallel *)
  let src =
    {|float a[128], b[128];
      void f() {
        int i;
        for (i = 0; i < 128; i++)
          a[i] = b[(i * i) & 127];
      }|}
  in
  let il = func_il ~options:o2 src "f" in
  (* i*i is not affine: statement can't become a vector op; the whole
     loop may or may not be marked parallel depending on dependence on b;
     at minimum the result must be correct *)
  ignore il;
  assert_all_configs_agree "non-affine subscript"
    {|float a[128], b[128];
      int main() {
        int i;
        float s;
        for (i = 0; i < 128; i++) b[i] = i;
        for (i = 0; i < 128; i++) a[i] = b[(i * i) & 127];
        s = 0;
        for (i = 0; i < 128; i++) s += a[i];
        printf("%g\n", s);
        return 0;
      }|}

let remainder_strips () =
  (* trip not a multiple of vlen: remainder strip must be exact *)
  assert_all_configs_agree "n=67 remainder"
    {|float a[67], b[67];
      int main() {
        int i;
        float s;
        for (i = 0; i < 67; i++) b[i] = i + 1;
        for (i = 0; i < 67; i++) a[i] = b[i] * 3.0f;
        s = 0;
        for (i = 0; i < 67; i++) s += a[i];
        printf("%g\n", s);
        return 0;
      }|}

let vectorize_stats () =
  let src =
    {|float a[100], b[100];
      void f() {
        int i;
        for (i = 0; i < 100; i++) a[i] = b[i] + 1.0f;   /* vectorizes */
        for (i = 0; i < 99; i++) a[i + 1] = a[i];        /* recurrence */
      }|}
  in
  let prog = compile ~options:{ Vpc.o1 with Vpc.off = [ `Strength_reduction ] } src in
  let stats = Vpc.Vectorize.Vectorize.new_stats () in
  List.iter
    (fun f ->
      ignore (Vpc.Vectorize.Vectorize.run ~stats (Vpc.decide Vpc.o2) prog f))
    prog.Vpc.Il.Prog.funcs;
  Alcotest.(check int) "examined 2" 2 stats.loops_examined;
  Alcotest.(check int) "one vectorized" 1 stats.loops_vectorized;
  Alcotest.(check int) "one rejected on deps" 1 stats.loops_rejected_dependence

let vector_unops () =
  assert_all_configs_agree "vector ! and ~"
    {|int a[96], b[96], c[96];
      float f[96];
      int main() {
        int i, s;
        for (i = 0; i < 96; i++) { a[i] = (i % 3 == 0) ? 0 : i; f[i] = (i & 7) ? 1.5f : 0.0f; }
        for (i = 0; i < 96; i++) b[i] = !a[i];
        for (i = 0; i < 96; i++) c[i] = ~a[i];
        for (i = 0; i < 96; i++) b[i] += !f[i];
        s = 0;
        for (i = 0; i < 96; i++) s += b[i] * 3 + (c[i] & 255);
        printf("%d\n", s);
        return 0;
      }|}

let vector_conversions () =
  (* float <-> int element conversions inside vector statements *)
  assert_all_configs_agree "vector conversions"
    {|float f[80];
      int n[80];
      double d[80];
      int main() {
        int i, si;
        double sd;
        for (i = 0; i < 80; i++) f[i] = i * 0.75f;
        for (i = 0; i < 80; i++) n[i] = (int)f[i];       /* f32 -> i32 */
        for (i = 0; i < 80; i++) d[i] = f[i] + 0.25f;    /* f32 -> f64 store */
        si = 0; sd = 0;
        for (i = 0; i < 80; i++) { si += n[i]; sd += d[i]; }
        printf("%d %g\n", si, sd);
        return 0;
      }|}

let double_vectors () =
  (* stride-8 sections for doubles *)
  let src =
    {|double a[64], b[64];
      void f() { int i; for (i = 0; i < 64; i++) a[i] = b[i] * 2.0 + 1.0; }|}
  in
  let il = func_il ~options:o2 src "f" in
  check_contains "8-byte stride section" ~needle:": 8]" il;
  assert_all_configs_agree "double semantics"
    {|double a[64], b[64];
      int main() {
        int i;
        double s;
        for (i = 0; i < 64; i++) b[i] = i * 0.1;
        for (i = 0; i < 64; i++) a[i] = b[i] * 2.0 + 1.0;
        s = 0;
        for (i = 0; i < 64; i++) s += a[i];
        printf("%.10g\n", s);
        return 0;
      }|}

let tests =
  [
    Alcotest.test_case "vector add" `Quick vector_add_vectorizes;
    Alcotest.test_case "recurrence scalar" `Quick recurrence_stays_scalar;
    Alcotest.test_case "in-place update" `Quick reversed_copy_is_fine;
    Alcotest.test_case "distribution" `Quick distribution_order;
    Alcotest.test_case "anti-dep ordering" `Quick backward_dep_ordering;
    Alcotest.test_case "short vector (graphics)" `Quick short_vector_no_strip_loop;
    Alcotest.test_case "pointer aliasing" `Quick pointer_params_block_vectorization;
    Alcotest.test_case "pragma independent" `Quick pragma_asserts_independence;
    Alcotest.test_case "iota" `Quick iota_vectorizes;
    Alcotest.test_case "reduction correct" `Quick reduction_not_vectorized_but_correct;
    Alcotest.test_case "stride/offset sections" `Quick stride_and_offset_sections;
    Alcotest.test_case "non-affine subscript" `Quick parallel_scalar_loop;
    Alcotest.test_case "remainder strips" `Quick remainder_strips;
    Alcotest.test_case "stats" `Quick vectorize_stats;
    Alcotest.test_case "vector unary ops" `Quick vector_unops;
    Alcotest.test_case "vector conversions" `Quick vector_conversions;
    Alcotest.test_case "double vectors" `Quick double_vectors;
  ]
