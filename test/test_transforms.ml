(* Scalar replacement and strength reduction tests (paper §6). *)

open Helpers

let backsolve_src =
  {|float x[501], y[500], z[500];
    void backsolve(int n) {
      float *p, *q;
      int i;
      p = &x[1];
      q = &x[0];
      for (i = 0; i < n - 2; i++)
        p[i] = z[i] * (y[i] - q[i]);
    }
    int main() {
      int i;
      for (i = 0; i < 500; i++) { y[i] = i * 0.25f; z[i] = 0.5f; }
      x[0] = 2.0f;
      backsolve(500);
      printf("%g %g %g\n", x[1], x[10], x[498]);
      return 0;
    }|}

let backsolve_scalar_replaced () =
  (* the §6 listing: f_reg carries the recurrence, one load removed *)
  let prog, stats = compile_stats ~options:Vpc.o3 backsolve_src in
  Alcotest.(check bool) "scalar replacement fired" true
    (stats.scalar_replace.loops_transformed >= 1);
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  check_contains "f_reg register" ~needle:"f_reg" il

let backsolve_strength_reduced () =
  let prog, stats = compile_stats ~options:Vpc.o3 backsolve_src in
  Alcotest.(check bool) "strength reduction fired" true
    (stats.strength_reduction.loops_reduced >= 1);
  Alcotest.(check bool) "multiplies removed" true
    (stats.strength_reduction.multiplies_removed >= 3);
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  check_contains "pointer temps" ~needle:"sr_ptr" il;
  (* inside the reduced loop there is no multiplication by the index *)
  check_not_contains "no index multiply in body" ~needle:"4 * dummy" il

let backsolve_semantics () = assert_all_configs_agree "backsolve" backsolve_src

let scalar_replace_requires_distance_one () =
  (* distance 2 recurrence: scalar replacement must not fire *)
  let src =
    {|float x[502];
      void f(int n) {
        float *p, *q;
        int i;
        p = &x[2];
        q = &x[0];
        for (i = 0; i < n; i++)
          p[i] = q[i] + 1.0f;
      }|}
  in
  let prog, stats =
    compile_stats ~options:{ Vpc.o3 with Vpc.off = [ `Strength_reduction ] } src
  in
  ignore prog;
  Alcotest.(check int) "not transformed" 0 stats.scalar_replace.loops_transformed

let scalar_replace_semantics_distance2 () =
  assert_all_configs_agree "distance 2 recurrence"
    {|float x[502];
      int main() {
        float *p, *q;
        int i;
        x[0] = 1.0f; x[1] = 2.0f;
        p = &x[2];
        q = &x[0];
        for (i = 0; i < 500; i++) p[i] = q[i] + 1.0f;
        printf("%g %g %g\n", x[2], x[3], x[501]);
        return 0;
      }|}

let strength_reduction_shares_pointers () =
  (* two references with the same base and stride share one pointer (the
     CSE part of §6) *)
  let src =
    {|float a[100], b[100];
      void f(int n) {
        int i;
        for (i = 0; i < n - 1; i++)
          a[i] = b[i] * b[i] + 1.0f;   /* b[i] appears twice */
      }|}
  in
  let prog, stats = compile_stats ~options:Vpc.o1 src in
  ignore prog;
  Alcotest.(check bool) "pointer shared" true
    (stats.strength_reduction.pointers_shared >= 1)

let invariant_hoisting () =
  let src =
    {|float a[100];
      void f(int n, float s, float t) {
        int i;
        for (i = 0; i < n; i++)
          a[i] = a[i] * (s * t + 1.0f);   /* s*t+1 is invariant *)
      }|}
  in
  (* note: * inside the comment above closes it; use a clean source *)
  ignore src;
  let src =
    {|float a[100];
      void f(int n, float s, float t) {
        int i;
        for (i = 0; i < n; i++)
          a[i] = a[i] * (s * t + 1.0f);
      }|}
  in
  let prog, stats = compile_stats ~options:Vpc.o1 src in
  ignore prog;
  Alcotest.(check bool) "invariant hoisted" true
    (stats.strength_reduction.invariants_hoisted >= 1)

let strength_reduction_not_on_vector_loops () =
  (* vectorized loops must not be de-optimized back to pointers *)
  let src =
    {|float a[100], b[100];
      void f() {
        int i;
        for (i = 0; i < 100; i++) a[i] = b[i] + 1.0f;
      }|}
  in
  let il = func_il ~options:Vpc.o2 src "f" in
  check_contains "still vector" ~needle:"[0 : " il;
  check_not_contains "no sr pointers in vector loop" ~needle:"sr_ptr" il

let reduction_loop_strength_reduced () =
  (* the classic sum loop keeps its reduction but the subscript multiply
     goes away *)
  let src =
    {|float a[200];
      float sum(int n) {
        float s;
        int i;
        s = 0.0;
        for (i = 0; i < n; i++) s += a[i];
        return s;
      }|}
  in
  let il = func_il ~options:Vpc.o2 src "sum" in
  check_contains "reduced to pointer walk" ~needle:"sr_ptr" il;
  assert_all_configs_agree "sum semantics"
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

(* ---- loop-nest restructuring: interchange and fusion (§7) ---- *)

(* A 128x4 nest: the inner trip (4) is far below the strip length, so
   vectorizing along the 128-trip outer level is worth the stride-32
   access and the cost model interchanges.  Legal: the only dependence
   is loop-independent (=,=). *)
let interchange_src =
  {|double m[128][4];
    int main() {
      int i, j;
      for (i = 0; i < 128; i = i + 1)
        for (j = 0; j < 4; j = j + 1)
          m[i][j] = m[i][j] * 2.0 + 1.0;
      printf("%g\n", m[100][2]);
      return 0;
    }|}

let interchange_fires () =
  let _, stats =
    compile_stats ~options:{ Vpc.o3 with Vpc.verify = `Each_stage }
      interchange_src
  in
  Alcotest.(check int) "nest interchanged" 1
    stats.Vpc.interchange.nests_interchanged;
  Alcotest.(check bool) "inner level vectorized" true
    (stats.Vpc.vectorize.loops_vectorized >= 1)

let interchange_semantics () =
  assert_all_configs_agree "interchange 128x4" interchange_src

(* Same profitable shape, but the body reads a[i-1][j+1]: the (<,>)
   direction vector makes the swap lexicographically negative, so the
   pass must refuse it. *)
let interchange_blocked_src =
  {|double s[129][6];
    int main() {
      int i, j;
      for (i = 1; i < 128; i = i + 1)
        for (j = 0; j < 5; j = j + 1)
          s[i][j] = s[i-1][j+1] + 1.0;
      printf("%g\n", s[100][2]);
      return 0;
    }|}

let interchange_refused_on_blocker () =
  let _, stats =
    compile_stats ~options:{ Vpc.o3 with Vpc.verify = `Each_stage }
      interchange_blocked_src
  in
  Alcotest.(check int) "kept original order" 0
    stats.Vpc.interchange.nests_interchanged;
  Alcotest.(check bool) "swap rejected as illegal" true
    (stats.Vpc.interchange.orders_rejected_legality >= 1)

let interchange_blocked_semantics () =
  assert_all_configs_agree "interchange blocker" interchange_blocked_src

(* Two conformable loops over the same range with only an (=) dependence
   between them: fusable, and the fused statements share one strip loop. *)
let fuse_src =
  {|double x[256], y[256], z[256];
    int main() {
      int i;
      for (i = 0; i < 256; i = i + 1)
        y[i] = x[i] * 2.0 + 1.0;
      for (i = 0; i < 256; i = i + 1)
        z[i] = y[i] + x[i];
      printf("%g\n", z[100]);
      return 0;
    }|}

let fuse_fires () =
  let _, stats =
    compile_stats ~options:{ Vpc.o3 with Vpc.verify = `Each_stage } fuse_src
  in
  Alcotest.(check bool) "loops fused" true (stats.Vpc.fuse.loops_fused >= 1)

let fuse_semantics () = assert_all_configs_agree "fusion pair" fuse_src

(* The second loop reads x[i+1], written by the first loop one iteration
   later: fused, iteration i of the second body would run before the
   write it depends on (a lexicographically negative cross-nest
   dependence), so fusion must refuse. *)
let fuse_blocked_src =
  {|double x[64], z[64];
    int main() {
      int i;
      for (i = 0; i < 63; i = i + 1)
        x[i] = (double)i * 0.5;
      for (i = 0; i < 63; i = i + 1)
        z[i] = x[i+1] + 1.0;
      printf("%g\n", z[40]);
      return 0;
    }|}

let fuse_refused_on_blocker () =
  let _, stats =
    compile_stats ~options:{ Vpc.o3 with Vpc.verify = `Each_stage }
      fuse_blocked_src
  in
  Alcotest.(check int) "fusion refused" 0 stats.Vpc.fuse.loops_fused;
  Alcotest.(check bool) "refusal was the dependence" true
    (stats.Vpc.fuse.rejected_dependence >= 1)

let fuse_blocked_semantics () =
  assert_all_configs_agree "fusion blocker" fuse_blocked_src

(* Off-switches: with both passes disabled the stats stay zero. *)
let nest_passes_off () =
  let _, stats =
    compile_stats
      ~options:{ Vpc.o3 with Vpc.off = [ `Interchange; `Fuse ] }
      interchange_src
  in
  Alcotest.(check int) "no interchange" 0
    stats.Vpc.interchange.nests_interchanged;
  let _, fstats =
    compile_stats
      ~options:{ Vpc.o3 with Vpc.off = [ `Interchange; `Fuse ] }
      fuse_src
  in
  Alcotest.(check int) "no fusion" 0 fstats.Vpc.fuse.loops_fused;
  Alcotest.(check int) "no strip sharing" 0
    fstats.Vpc.vectorize.strip_loops_shared

let tests =
  [
    Alcotest.test_case "backsolve scalar replaced (§6)" `Quick backsolve_scalar_replaced;
    Alcotest.test_case "backsolve strength reduced (§6)" `Quick backsolve_strength_reduced;
    Alcotest.test_case "backsolve semantics" `Quick backsolve_semantics;
    Alcotest.test_case "distance-1 requirement" `Quick scalar_replace_requires_distance_one;
    Alcotest.test_case "distance-2 semantics" `Quick scalar_replace_semantics_distance2;
    Alcotest.test_case "pointer sharing (CSE)" `Quick strength_reduction_shares_pointers;
    Alcotest.test_case "invariant hoisting" `Quick invariant_hoisting;
    Alcotest.test_case "vector loops untouched" `Quick strength_reduction_not_on_vector_loops;
    Alcotest.test_case "reduction loop" `Quick reduction_loop_strength_reduced;
    Alcotest.test_case "interchange fires (§7)" `Quick interchange_fires;
    Alcotest.test_case "interchange semantics" `Quick interchange_semantics;
    Alcotest.test_case "interchange refused on (<,>)" `Quick
      interchange_refused_on_blocker;
    Alcotest.test_case "interchange blocker semantics" `Quick
      interchange_blocked_semantics;
    Alcotest.test_case "fusion fires (§7)" `Quick fuse_fires;
    Alcotest.test_case "fusion semantics" `Quick fuse_semantics;
    Alcotest.test_case "fusion refused on x[i+1]" `Quick
      fuse_refused_on_blocker;
    Alcotest.test_case "fusion blocker semantics" `Quick
      fuse_blocked_semantics;
    Alcotest.test_case "nest passes off" `Quick nest_passes_off;
  ]
