(* Induction-variable substitution tests (paper §5.3, experiment E5):
   temp chains collapse to closed forms, the blocking/backtracking
   heuristic converges, and semantics are preserved. *)

open Helpers

let o1 = { Vpc.o1 with Vpc.off = [ `Strength_reduction ] }

let star_copy_becomes_subscript () =
  (* §5.3's *a++ = *b++ example *)
  let src =
    {|void copy(float *a, float *b, int n) {
        while (n) {
          *a++ = *b++;
          n--;
        }
      }|}
  in
  let il = func_il ~options:o1 src "copy" in
  (* the key assignment in *(a + 4*i) = *(b + 4*i) form *)
  check_contains "closed-form store" ~needle:"a_init" il;
  check_contains "loop index form" ~needle:"4 * dummy" il;
  (* temp chains and updates are dead-coded away *)
  check_not_contains "no pointer updates left" ~needle:"a = " il

let explicit_aux_induction () =
  (* the classic IV = N; A(IV) = ...; IV = IV - 1 pattern *)
  let src =
    {|float a[100], b[100];
      void f(int n) {
        int i, iv;
        iv = n;
        for (i = 0; i < n; i++) {
          a[iv - 1] = a[iv - 1] + b[i];
          iv = iv - 1;
        }
      }|}
  in
  let il = func_il ~options:o1 src "f" in
  check_contains "iv_init copy" ~needle:"iv_init" il

let multiple_updates_sum () =
  let src =
    {|void f(float *p, int n) {
        int i;
        for (i = 0; i < n; i++) {
          *p++ = 1.0;
          *p++ = 2.0;
        }
      }|}
  in
  (* p advances by 8 bytes per iteration; both stores get closed forms *)
  let il = func_il ~options:o1 src "f" in
  check_contains "8-byte stride" ~needle:"8 * dummy" il

let reduction_not_an_iv () =
  (* s += a[i]: delta is not invariant, s must stay untouched *)
  let src =
    {|float a[50];
      float f(int n) {
        float s;
        int i;
        s = 0.0;
        for (i = 0; i < n; i++) s += a[i];
        return s;
      }|}
  in
  let il = func_il ~options:o1 src "f" in
  check_not_contains "no s_init" ~needle:"s_init" il;
  check_contains "reduction stays" ~needle:"s = s +" il

let blocking_chain_passes () =
  (* a chain t1 = p; p = t1 + 4; use t1 — recognized within bounded
     passes; stats expose the §5.3 pass behaviour *)
  let src =
    {|void f(float *p, float *q, int n) {
        while (n) {
          *p++ = *q++;
          n--;
        }
      }|}
  in
  let prog = compile src in
  List.iter
    (fun f -> ignore (Vpc.Transform.While_to_do.run prog f))
    prog.Vpc.Il.Prog.funcs;
  let stats = Vpc.Transform.Indvar.new_stats () in
  List.iter
    (fun f -> ignore (Vpc.Transform.Indvar.run ~stats prog f))
    prog.Vpc.Il.Prog.funcs;
  Alcotest.(check int) "three IVs (p, q, n)" 3 stats.ivs_found;
  Alcotest.(check bool) "a couple of passes at most" true
    (stats.max_passes_one_loop <= 3);
  Alcotest.(check bool) "substitutions happened" true (stats.substitutions > 0)

let volatile_not_substituted () =
  let src =
    {|volatile int vcount;
      void f(float *a, int n) {
        int i;
        for (i = 0; i < n; i++) {
          a[i] = vcount;   /* volatile read must stay in the loop */
        }
      }|}
  in
  let il = func_il ~options:o1 src "f" in
  check_contains "volatile read survives" ~needle:"vcount" il

let nested_loops () =
  assert_all_configs_agree "nested loop ivs"
    {|float m[8][8];
      int main() {
        int i, j;
        float *p;
        p = &m[0][0];
        for (i = 0; i < 8; i++)
          for (j = 0; j < 8; j++)
            *p++ = i * 10 + j;
        printf("%g %g %g\n", m[0][0], m[3][5], m[7][7]);
        return 0;
      }|}

let semantics_preserved () =
  List.iter
    (fun (name, src) -> assert_all_configs_agree name src)
    [
      ( "pointer copy",
        {|float a[64], b[64];
          int main() {
            float *p, *q;
            int n, k;
            float s;
            for (k = 0; k < 64; k++) b[k] = k * 1.5f;
            p = a; q = b; n = 64;
            while (n) { *p++ = *q++; n--; }
            s = 0;
            for (k = 0; k < 64; k++) s += a[k];
            printf("%g\n", s);
            return 0;
          }|} );
      ( "live-out induction variable",
        {|int main() {
            int i, n;
            char *p;
            char buf[16];
            p = buf;
            for (i = 0; i < 10; i++) *p++ = 'a' + i;
            *p = 0;
            n = p - buf;     /* p's final value is observable */
            printf("%s %d\n", buf, n);
            return 0;
          }|} );
      ( "iv used after loop",
        {|int main() {
            int i, iv;
            iv = 100;
            for (i = 0; i < 10; i++) iv = iv - 3;
            printf("%d\n", iv);
            return 0;
          }|} );
      ( "downward access",
        {|float a[32];
          int main() {
            int i, iv;
            float s;
            iv = 32;
            for (i = 0; i < 32; i++) { a[iv - 1] = i; iv--; }
            s = 0;
            for (i = 0; i < 32; i++) s += a[i] * (i + 1);
            printf("%g\n", s);
            return 0;
          }|} );
    ]

(* generated k-deep temp chains: t0 = p; t1 = t0; ...; p = tk + 4 *)
let deep_chain_generated () =
  let make_chain depth =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "float a[40];\nint main() {\n  float *p;\n  int n, k;\n  float s;\n";
    Buffer.add_string buf "  p = a; n = 40;\n  while (n) {\n";
    Buffer.add_string buf "    float *t0;\n";
    for i = 1 to depth do
      Buffer.add_string buf (Printf.sprintf "    float *t%d;\n" i)
    done;
    Buffer.add_string buf "    t0 = p;\n";
    for i = 1 to depth do
      Buffer.add_string buf (Printf.sprintf "    t%d = t%d;\n" i (i - 1))
    done;
    Buffer.add_string buf
      (Printf.sprintf "    *t%d = 40 - n;\n    p = t%d + 4;\n    n--;\n  }\n"
         depth depth);
    Buffer.add_string buf
      "  s = 0;\n  for (k = 0; k < 40; k++) s += a[k];\n  printf(\"%g\\n\", s);\n  return 0;\n}\n";
    Buffer.contents buf
  in
  List.iter
    (fun depth ->
      let src = make_chain depth in
      let reference = interp_output (compile ~options:Vpc.o0 src) in
      let out = interp_output (compile ~options:Vpc.o1 src) in
      Alcotest.(check string)
        (Printf.sprintf "chain depth %d" depth)
        reference out)
    [ 0; 1; 2; 4 ]

let interleaved_blocking_chain () =
  (* recognition of p_j requires p_(j-1): the blocking bookkeeping defers
     and re-examines; semantics must survive any number of passes *)
  let make depth =
    let buf = Buffer.create 512 in
    Buffer.add_string buf "float out[64];\nint main()\n{\n  int n, k;\n  float s;\n";
    for j = 0 to depth do
      Buffer.add_string buf (Printf.sprintf "  int p%d; int t%d;\n" j (max j 1))
    done;
    for j = 0 to depth do
      Buffer.add_string buf (Printf.sprintf "  p%d = %d;\n" j j)
    done;
    Buffer.add_string buf "  n = 40;\n  while (n) {\n";
    for j = 1 to depth do
      Buffer.add_string buf (Printf.sprintf "    t%d = p%d + p%d;\n" j j (j - 1))
    done;
    Buffer.add_string buf "    p0 = p0 + 4;\n";
    for j = 1 to depth do
      Buffer.add_string buf (Printf.sprintf "    p%d = t%d + 8 - p%d;\n" j j (j - 1))
    done;
    Buffer.add_string buf
      (Printf.sprintf "    out[p%d & 63] += 1.0f;\n    n--;\n  }\n" depth);
    Buffer.add_string buf
      "  s = 0;\n  for (k = 0; k < 64; k++) s += out[k] * (k + 1);\n\
      \  printf(\"%g\\n\", s);\n  return 0;\n}\n";
    Buffer.contents buf
  in
  List.iter
    (fun depth ->
      let src = make depth in
      let reference = interp_output (compile ~options:Vpc.o0 src) in
      List.iter
        (fun (lname, options) ->
          Alcotest.(check string)
            (Printf.sprintf "depth %d at %s" depth lname)
            reference
            (interp_output (compile ~options src)))
        all_levels)
    [ 1; 3; 6 ]

let tests =
  [
    Alcotest.test_case "*a++ = *b++ (§5.3)" `Quick star_copy_becomes_subscript;
    Alcotest.test_case "explicit auxiliary IV" `Quick explicit_aux_induction;
    Alcotest.test_case "multiple updates" `Quick multiple_updates_sum;
    Alcotest.test_case "reduction untouched" `Quick reduction_not_an_iv;
    Alcotest.test_case "blocking/backtracking stats" `Quick blocking_chain_passes;
    Alcotest.test_case "volatile not substituted" `Quick volatile_not_substituted;
    Alcotest.test_case "nested loops" `Quick nested_loops;
    Alcotest.test_case "semantics preserved" `Quick semantics_preserved;
    Alcotest.test_case "deep temp chains" `Quick deep_chain_generated;
    Alcotest.test_case "interleaved blocking chains" `Quick interleaved_blocking_chain;
  ]
