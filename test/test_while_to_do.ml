(* While→DO conversion tests (paper §5.2, experiment E4): the conversion
   matrix — which loop shapes convert and which must be rejected. *)

open Helpers

let o1 = Vpc.o1

let converts name src fname =
  let il = func_il ~options:o1 src fname in
  check_contains (name ^ " converts") ~needle:"do fortran" il

let rejects name src fname =
  let il = func_il ~options:o1 src fname in
  check_not_contains (name ^ " must not convert") ~needle:"do fortran" il

let count_up () =
  converts "for up"
    "void f(float *a, int n) { int i; for (i = 0; i < n; i++) a[i] = i; }" "f"

let count_up_le () =
  converts "for <="
    "void f(float *a, int n) { int i; for (i = 1; i <= n; i++) a[i] = i; }" "f"

let count_down () =
  converts "for down"
    "void f(float *a, int n) { int i; for (i = n; i > 0; i--) a[i] = i; }" "f"

let count_down_ge () =
  converts "for >="
    "void f(float *a, int n) { int i; for (i = n; i >= 0; i--) a[i] = i; }" "f"

let nonzero_condition () =
  (* the paper's i = n; while (i) { ... i = temp - s; } with constant s *)
  converts "while (i) i -= 1"
    "void f(float *a, int n) { while (n) { a[n] = 1.0; n--; } }" "f"

let ne_condition () =
  converts "i != bound"
    "void f(float *a, int n) { int i; for (i = 0; i != n; i++) a[i] = 2.0; }" "f"

let symbolic_stride () =
  (* the paper's own §5.2 example: i = n; while (i) { ... i = temp - s; }
     with s a loop-invariant VARIABLE ("DO dummy = n, 1, -s") *)
  converts "symbolic stride"
    {|float a[100];
      void f(int n, int s) {
        int i, temp;
        i = n;
        while (i) {
          a[i - 1] = 1.0f;
          temp = i;
          i = temp - s;
        }
      }|}
    "f";
  List.iter
    (fun stride ->
      assert_all_configs_agree
        (Printf.sprintf "symbolic stride s=%d" stride)
        (Printf.sprintf
           {|float a[512];
             void fill(int n, int s) {
               int i, temp;
               i = n;
               while (i) {
                 a[i - 1] = (float)i;
                 temp = i;
                 i = temp - s;
               }
             }
             int main() {
               int k; float sum;
               fill(504, %d);
               sum = 0;
               for (k = 0; k < 512; k++) sum += a[k];
               printf("%%g
", sum);
               return 0;
             }|}
           stride))
    [ 1; 3; 4; 7 ]

let temp_chain_update () =
  (* update through the front end's temp chain is recognized *)
  converts "n-- through temps"
    "void f(float *p, int n) { for (; n; n--) *p++ = 0.0; }" "f"

let stride_2 () =
  converts "stride 2"
    "void f(float *a, int n) { int i; for (i = 0; i < n; i += 2) a[i] = 1.0; }"
    "f"

let reject_break () =
  rejects "break"
    {|void f(float *a, int n) {
        int i;
        for (i = 0; i < n; i++) {
          if (a[i] < 0.0) break;
          a[i] = 1.0;
        }
      }|}
    "f"

let reject_return_inside () =
  rejects "return inside"
    {|int f(float *a, int n) {
        int i;
        for (i = 0; i < n; i++) {
          if (a[i] < 0.0) return i;
          a[i] = 1.0;
        }
        return -1;
      }|}
    "f"

let reject_goto_in () =
  rejects "goto into loop"
    {|void f(float *a, int n) {
        int i;
        i = 0;
        if (n > 100) goto mid;
        for (i = 0; i < n; i++) {
        mid:
          a[i] = 1.0;
        }
      }|}
    "f"

let reject_varying_bound () =
  (* the bound changes inside the loop *)
  rejects "varying bound"
    {|void f(float *a, int n) {
        int i;
        for (i = 0; i < n; i++) {
          a[i] = 1.0;
          if (a[i] > 0.0) n--;
        }
      }|}
    "f"

let reject_conditional_update () =
  rejects "conditional update"
    {|void f(float *a, int n) {
        int i;
        i = 0;
        while (i < n) {
          a[i] = 1.0;
          if (a[i] > 0.0) i++;
        }
      }|}
    "f"

let reject_volatile_condition () =
  rejects "volatile condition"
    {|volatile int stop;
      void f(float *a) {
        int i;
        i = 0;
        while (i < stop) {
          a[i] = 1.0;
          i++;
        }
      }|}
    "f"

let reject_two_updates_is_ok_if_summed () =
  (* two updates to i per iteration: net step is not a single top-level
     assign, so the conversion refuses (C's flexibility at work) *)
  rejects "double update"
    {|void f(float *a, int n) {
        int i;
        i = 0;
        while (i < n) {
          a[i] = 1.0;
          i++;
          i++;
        }
      }|}
    "f"

let reject_address_taken_induction () =
  rejects "address-taken induction variable"
    {|void g(int *p);
      void f(float *a, int n) {
        int i;
        i = 0;
        while (i < n) {
          a[i] = 1.0;
          g(&i);
          i++;
        }
      }|}
    "f"

let semantics_suite () =
  (* conversions preserve results across every config *)
  List.iter
    (fun (name, src) -> assert_all_configs_agree name src)
    [
      ( "count up",
        {|float a[40];
          int main() {
            int i, s100;
            for (i = 0; i < 40; i++) a[i] = i * 2;
            s100 = 0;
            for (i = 0; i < 40; i++) s100 += (int)a[i];
            printf("%d\n", s100);
            return 0;
          }|} );
      ( "count down with while",
        {|float a[40];
          int main() {
            int n, s;
            n = 40;
            while (n) { a[n - 1] = n; n--; }
            s = 0;
            for (n = 0; n < 40; n++) s += (int)a[n];
            printf("%d\n", s);
            return 0;
          }|} );
      ( "early termination values",
        {|int main() {
            int i, n;
            n = 10;
            for (i = 0; i < n; i += 3);
            printf("%d\n", i);   /* 12: first value >= 10 by 3s */
            return 0;
          }|} );
      ( "zero trip",
        {|int main() {
            int i, s;
            s = 7;
            for (i = 5; i < 5; i++) s = 0;
            printf("%d %d\n", s, i);
            return 0;
          }|} );
    ]

let conversion_stats () =
  let prog =
    compile
      {|void f(float *a, int n) {
          int i;
          for (i = 0; i < n; i++) a[i] = 1.0;   /* converts */
          i = 0;
          while (i < n) {                        /* converts */
            a[i] = 2.0;
            i++;
          }
          for (i = 0; i < n; i++) {              /* rejected: break */
            if (a[i] > 1.5) break;
          }
        }|}
  in
  let stats = Vpc.Transform.While_to_do.new_stats () in
  List.iter
    (fun f -> ignore (Vpc.Transform.While_to_do.run ~stats prog f))
    prog.Vpc.Il.Prog.funcs;
  Alcotest.(check int) "converted" 2 stats.converted;
  (* one walk examines each loop exactly once *)
  Alcotest.(check int) "rejected for branching out" 1 stats.rejected_branch_out

(* A function with more loops than any fixed round budget: every one of
   them converts, in one pass, and the program still computes the same. *)
let many_loops () =
  let n = 60 in
  let loops =
    List.init n (fun k ->
        Printf.sprintf "  for (i = 0; i < n; i++) b[i] = b[i] * 3 + %d;" k)
  in
  let src =
    String.concat "\n"
      ([ "int b[64];"; "void f(int n) {"; "  int i;" ]
      @ loops
      @ [
          "}";
          "int main() {";
          "  int i, s;";
          "  f(64);";
          "  s = 0;";
          "  for (i = 0; i < 64; i++) s = s ^ (b[i] + i);";
          "  printf(\"%d\\n\", s);";
          "  return 0;";
          "}";
        ])
  in
  let prog = compile src in
  let f = Vpc.Il.Prog.func_exn prog "f" in
  let stats = Vpc.Transform.While_to_do.new_stats () in
  Alcotest.(check bool) "changed" true
    (Vpc.Transform.While_to_do.run ~stats prog f);
  Alcotest.(check int) "every loop converted" n stats.converted;
  let whiles = ref 0 in
  Vpc.Il.Stmt.iter_list
    (fun s ->
      match s.Vpc.Il.Stmt.desc with
      | Vpc.Il.Stmt.While _ -> incr whiles
      | _ -> ())
    f.Vpc.Il.Func.body;
  Alcotest.(check int) "no while left" 0 !whiles;
  let reference = interp_output (compile src) in
  List.iter
    (fun (lname, options) ->
      Alcotest.(check string)
        ("interpreter output at " ^ lname)
        reference
        (interp_output (compile ~options src)))
    [ ("O1", Vpc.o1); ("O3", Vpc.o3) ]

(* Fresh temporaries are numbered else arm first; the numbering shows in
   the optimized IL, so it must not drift. *)
let if_arms_numbering () =
  let prog =
    compile
      {|float a[100];
        void f(int n, int c) {
          int i, j;
          if (c) { for (i = 0; i < n; i++) a[i] = 1.0f; }
          else { for (j = 0; j < n + 1; j++) a[j] = 2.0f; }
        }|}
  in
  let f = Vpc.Il.Prog.func_exn prog "f" in
  ignore (Vpc.Transform.While_to_do.run prog f);
  let dummy_of arm =
    List.find_map
      (fun (s : Vpc.Il.Stmt.t) ->
        match s.desc with Vpc.Il.Stmt.Do_loop d -> Some d.index | _ -> None)
      arm
  in
  match
    List.find_map
      (fun (s : Vpc.Il.Stmt.t) ->
        match s.desc with
        | Vpc.Il.Stmt.If (_, t, e) -> Some (dummy_of t, dummy_of e)
        | _ -> None)
      f.Vpc.Il.Func.body
  with
  | Some (Some then_dummy, Some else_dummy) ->
      Alcotest.(check bool) "else arm numbered first" true
        (else_dummy < then_dummy)
  | _ -> Alcotest.fail "expected a DO loop in each arm"

let tests =
  [
    Alcotest.test_case "count up <" `Quick count_up;
    Alcotest.test_case "count up <=" `Quick count_up_le;
    Alcotest.test_case "count down >" `Quick count_down;
    Alcotest.test_case "count down >=" `Quick count_down_ge;
    Alcotest.test_case "while (i) (§5.2)" `Quick nonzero_condition;
    Alcotest.test_case "!= bound" `Quick ne_condition;
    Alcotest.test_case "symbolic stride (§5.2)" `Quick symbolic_stride;
    Alcotest.test_case "temp-chain update" `Quick temp_chain_update;
    Alcotest.test_case "stride 2" `Quick stride_2;
    Alcotest.test_case "reject break" `Quick reject_break;
    Alcotest.test_case "reject return" `Quick reject_return_inside;
    Alcotest.test_case "reject goto-in" `Quick reject_goto_in;
    Alcotest.test_case "reject varying bound" `Quick reject_varying_bound;
    Alcotest.test_case "reject conditional update" `Quick reject_conditional_update;
    Alcotest.test_case "reject volatile cond" `Quick reject_volatile_condition;
    Alcotest.test_case "reject double update" `Quick reject_two_updates_is_ok_if_summed;
    Alcotest.test_case "reject &induction" `Quick reject_address_taken_induction;
    Alcotest.test_case "conversion semantics" `Quick semantics_suite;
    Alcotest.test_case "conversion stats" `Quick conversion_stats;
    Alcotest.test_case "60 loops in one function" `Quick many_loops;
    Alcotest.test_case "if arms numbered else first" `Quick if_arms_numbering;
  ]
