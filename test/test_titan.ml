(* Titan simulator tests: value agreement with the IL interpreter, timing
   model sanity (scheduling modes are ordered, vectors beat scalars,
   processors help parallel loops), volatile handling, metrics. *)

open Helpers
open Vpc.Titan

let cfg ?(procs = 1) ?(sched = Machine.Overlap_full) () =
  { Machine.default_config with procs; sched }

let cycles ?procs ?sched prog =
  (Vpc.run_titan ~config:(cfg ?procs ?sched ()) prog).Machine.metrics.cycles

let values_agree_with_interp () =
  List.iter
    (fun (name, src) -> assert_all_configs_agree name src)
    [
      ( "scalar program",
        {|int main() {
            int i, s;
            float f;
            s = 0; f = 1.0;
            for (i = 1; i <= 10; i++) { s += i * i; f = f * 1.1f; }
            printf("%d %g\n", s, f);
            return 0;
          }|} );
      ( "calls and memory",
        {|int sq(int x) { return x * x; }
          int buf[8];
          int main() {
            int i;
            for (i = 0; i < 8; i++) buf[i] = sq(i + 1);
            printf("%d %d\n", buf[0], buf[7]);
            return 0;
          }|} );
      ( "char and double",
        {|char s[12];
          int main() {
            double d;
            int i;
            d = 1.0;
            for (i = 0; i < 10; i++) { s[i] = 'a' + i; d = d * 2.0; }
            s[10] = 0;
            printf("%s %g\n", s, d);
            return 0;
          }|} );
    ]

let sched_modes_are_ordered () =
  (* more scheduling freedom can only reduce cycles *)
  let src =
    {|float a[256], b[256], c[256];
      int main() {
        int i;
        for (i = 0; i < 256; i++) { b[i] = i; c[i] = 2 * i; }
        for (i = 0; i < 256; i++) a[i] = b[i] * 1.5f + c[i];
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o0 src in
  let seq = cycles ~sched:Machine.Sequential prog in
  let cons = cycles ~sched:Machine.Overlap_conservative prog in
  let full = cycles ~sched:Machine.Overlap_full prog in
  Alcotest.(check bool)
    (Printf.sprintf "seq(%d) >= conservative(%d)" seq cons)
    true (seq >= cons);
  Alcotest.(check bool)
    (Printf.sprintf "conservative(%d) >= full(%d)" cons full)
    true (cons >= full)

let vector_beats_scalar () =
  let src =
    {|float a[512], b[512], c[512];
      int main() {
        int i;
        for (i = 0; i < 512; i++) a[i] = b[i] + c[i] * 2.0f;
        return 0;
      }|}
  in
  let scalar = compile ~options:Vpc.o0 src in
  let vector = compile ~options:Vpc.o2 src in
  (* the paper's own comparison: naive scalar code vs the vector
     compilation (running O0 code under the full-overlap schedule would
     presume dependence information the compiler never produced) *)
  let sc = cycles ~sched:Machine.Sequential scalar and vc = cycles vector in
  Alcotest.(check bool)
    (Printf.sprintf "vector (%d) at least 3x faster than scalar (%d)" vc sc)
    true (vc * 3 < sc)

let processors_help_parallel_loops () =
  let src =
    {|float a[1024], b[1024];
      int main() {
        int i;
        for (i = 0; i < 1024; i++) a[i] = b[i] * 3.0f + 1.0f;
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o2 src in
  let c1 = cycles ~procs:1 prog in
  let c2 = cycles ~procs:2 prog in
  let c4 = cycles ~procs:4 prog in
  Alcotest.(check bool) (Printf.sprintf "2 procs help (%d -> %d)" c1 c2) true
    (c2 < c1);
  Alcotest.(check bool) (Printf.sprintf "4 procs help more (%d -> %d)" c2 c4)
    true (c4 <= c2)

let processors_do_not_help_serial_code () =
  let src =
    {|int main() {
        int i, s;
        s = 1;
        for (i = 0; i < 100; i++) s = s * 3 + 1;
        printf("%d\n", s);
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o1 src in
  let c1 = cycles ~procs:1 prog in
  let c4 = cycles ~procs:4 prog in
  Alcotest.(check int) "serial code unchanged by procs" c1 c4

let fp_op_counting () =
  let src =
    {|float a[100], b[100];
      int main() {
        int i;
        for (i = 0; i < 100; i++) a[i] = b[i] * 2.0f + 1.0f;
        return 0;
      }|}
  in
  (* 2 fp ops per element, whatever the compilation strategy *)
  List.iter
    (fun options ->
      let prog = compile ~options src in
      let r = Vpc.run_titan ~config:(cfg ()) prog in
      Alcotest.(check int) "200 fp ops" 200 r.Machine.metrics.fp_ops)
    [ Vpc.o0; Vpc.o2 ]

let vector_metrics () =
  let src =
    {|float a[100], b[100];
      int main() {
        int i;
        for (i = 0; i < 100; i++) a[i] = b[i] + 1.0f;
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o2 src in
  let r = Vpc.run_titan ~config:(cfg ()) prog in
  Alcotest.(check bool) "vector instructions issued" true
    (r.Machine.metrics.vector_insts > 0);
  Alcotest.(check bool) "vector elements counted" true
    (r.Machine.metrics.vector_elems >= 200);
  Alcotest.(check bool) "parallel region seen" true
    (r.Machine.metrics.parallel_regions >= 1)

let volatile_not_cached_in_registers () =
  (* a volatile variable read twice must issue two loads *)
  let src =
    {|volatile int v;
      int main() {
        int a, b;
        v = 3;
        a = v;
        b = v;
        printf("%d\n", a + b);
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o3 src in
  let r = Vpc.run_titan ~config:(cfg ()) prog in
  Alcotest.(check string) "value" "6\n" r.Machine.stdout_text;
  (* at least 2 loads + 1 store on v, plus printf string accesses *)
  Alcotest.(check bool) "memory traffic for volatile" true
    (r.Machine.metrics.mem_ops >= 3)

let frame_reuse_recursion () =
  let src =
    {|int depth(int n) { return n == 0 ? 0 : 1 + depth(n - 1); }
      int main() { printf("%d\n", depth(200)); return 0; }|}
  in
  let prog = compile ~options:Vpc.o1 src in
  Alcotest.(check string) "deep recursion" "200\n"
    (titan_output ~config:(cfg ()) prog)

let mflops_sanity () =
  let src =
    {|float a[4096], b[4096], c[4096];
      int main() {
        int i;
        for (i = 0; i < 4096; i++) a[i] = b[i] + c[i];
        return 0;
      }|}
  in
  let scalar = Vpc.run_titan ~config:(cfg ~sched:Machine.Sequential ())
      (compile ~options:Vpc.o0 src) in
  let vec = Vpc.run_titan ~config:(cfg ~procs:2 ())
      (compile ~options:Vpc.o2 src) in
  Alcotest.(check bool)
    (Printf.sprintf "scalar %.2f < vector %.2f mflops" scalar.Machine.mflops_rate
       vec.Machine.mflops_rate)
    true
    (scalar.Machine.mflops_rate < vec.Machine.mflops_rate);
  Alcotest.(check bool) "mflops below peak (16 per proc)" true
    (vec.Machine.mflops_rate < 33.0)

let runtime_error ?(options = Vpc.o0) ?(config = cfg ()) src =
  match Vpc.run_titan ~config (compile ~options src) with
  | exception Machine.Runtime_error m -> m
  | _ -> Alcotest.failf "expected a runtime error from:\n%s" src

let infinite_loop_guard () =
  List.iter
    (fun options ->
      check_contains "runaway loop" ~needle:"instruction budget"
        (runtime_error ~options
           ~config:{ (cfg ()) with max_insts = 10_000 }
           "int main() { for (;;); return 0; }"))
    [ Vpc.o0; Vpc.o3 ]

let float_branch_conditions () =
  (* a float condition is true iff it is not 0.0, as in C: 0.5 and -0.25
     must not truncate to 0 on the way into bz/bnz *)
  let src =
    {|int main() {
        double x, y, z;
        float h;
        int n, k;
        x = 0.5; y = -0.25; z = 0.0; h = 0.5f;
        n = 0;
        if (x) n = n + 1;
        if (y) n = n + 10;
        if (z) n = n + 100;
        if (!z) n = n + 1000;
        k = 0;
        while (x) { k = k + 1; x = x - 0.25; }
        while (h) { k = k + 10; h = h - 0.25f; }
        printf("%d %d\n", n, k);
        return 0;
      }|}
  in
  let reference = interp_output (compile ~options:Vpc.o0 src) in
  Alcotest.(check string) "interpreter" "1011 22\n" reference;
  List.iter
    (fun (lname, options) ->
      let prog = compile ~options src in
      List.iter
        (fun sched ->
          Alcotest.(check string)
            (Printf.sprintf "titan %s at %s" (Machine.sched_name sched) lname)
            reference
            (titan_output ~config:(cfg ~sched ()) prog))
        [ Machine.Sequential; Machine.Overlap_conservative; Machine.Overlap_full ])
    [ ("O0", Vpc.o0); ("O3", Vpc.o3) ]

let memory_edges () =
  (* the address space is 4 MB however little of it the backing store
     covers: untouched memory near the top reads as zero, the last byte
     is writable, an access reaching past it is out of bounds, and the
     stack still overflows at its end (the budget guard is tested
     above) *)
  let top =
    {|int main() {
        int *p;
        char *q;
        p = (int *) 4194296;
        q = (char *) 4194303;
        printf("%d\n", *p);
        *q = 7;
        printf("%d %d\n", *q, *p);
        return 0;
      }|}
  in
  let past_top =
    [
      "char *q; q = (char *) 4194304; return *q;";
      "char *q; q = (char *) 4194304; *q = 1; return 0;";
      "int *p; p = (int *) 4194302; return *p;";
      "double *d; d = (double *) 4194300; *d = 1.0; return 0;";
    ]
  in
  List.iter
    (fun (lname, options) ->
      Alcotest.(check string)
        (lname ^ ": top of memory") "0\n7 0\n"
        (titan_output (compile ~options top));
      List.iter
        (fun body ->
          check_contains
            (Printf.sprintf "%s: %s" lname body)
            ~needle:"out of bounds"
            (runtime_error ~options (Printf.sprintf "int main() { %s }" body)))
        past_top;
      check_contains (lname ^ ": unbounded recursion") ~needle:"stack overflow"
        (runtime_error ~options
           {|int deep(int n) { int pad[64]; pad[n & 63] = n; return deep(n + 1) + pad[0]; }
             int main() { printf("%d\n", deep(0)); return 0; }|}))
    [ ("O0", Vpc.o0); ("O3", Vpc.o3) ]

(* ----------------------------------------------------------------- *)
(* Golden simulator-invariance table                                 *)
(* ----------------------------------------------------------------- *)

(* Every example except device_poll (it busy-waits on a device register),
   compiled at -O0 and -O3 and simulated at 1 and 4 processors under each
   schedule.  A row holds the whole metrics record, an MD5 of stdout and
   the return value.  The committed table was recorded from the simulator
   before its execution core was rewritten for speed: any drift here is a
   change to the timing model or to program semantics, never a
   speed-up. *)
let golden_path = "fixtures/sim_golden.txt"

let golden_header =
  [
    "# Titan simulator invariance table, checked by test/test_titan.ml";
    "# (\"golden invariance\").  One row per example (device_poll excluded)";
    "# x -O0/-O3 x -p 1/4 x seq/conservative/full: the Machine.metrics";
    "# record, the MD5 of stdout and the return value.  On a mismatch the";
    "# test writes the table it computed to sim_golden.actual in its";
    "# working directory.";
  ]

let golden_rows () =
  let examples =
    Sys.readdir "../examples" |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".c" && f <> "device_poll.c")
    |> List.sort compare
  in
  List.concat_map
    (fun file ->
      let src = read_file (Filename.concat "../examples" file) in
      let name = Filename.chop_suffix file ".c" in
      List.concat_map
        (fun (oname, options) ->
          let prog, _ = Vpc.compile ~options src in
          List.concat_map
            (fun procs ->
              List.map
                (fun sched ->
                  let r =
                    Vpc.run_titan ~config:(cfg ~procs ~sched ())
                      ~vreuse:options.Vpc.vreuse prog
                  in
                  let m = r.Machine.metrics in
                  Printf.sprintf
                    "%s %s p%d %s cycles=%d insts=%d fp_ops=%d mem_ops=%d \
                     vector_insts=%d vector_elems=%d parallel_regions=%d \
                     calls=%d post_wait_stalls=%d posts=%d waits=%d \
                     vector_mem_elems_avoided=%d busy_iu=%d busy_fpu=%d \
                     busy_mem=%d stdout=%s ret=%s"
                    name oname procs (Machine.sched_name sched) m.cycles
                    m.insts m.fp_ops m.mem_ops m.vector_insts m.vector_elems
                    m.parallel_regions m.calls m.post_wait_stalls m.posts
                    m.waits m.vector_mem_elems_avoided m.busy_iu m.busy_fpu
                    m.busy_mem
                    (Digest.to_hex (Digest.string r.Machine.stdout_text))
                    (match r.Machine.return_value with
                    | Machine.Vi n -> string_of_int n
                    | Machine.Vf f -> Printf.sprintf "%h" f))
                [ Machine.Sequential; Machine.Overlap_conservative;
                  Machine.Overlap_full ])
            [ 1; 4 ])
        [ ("O0", Vpc.o0); ("O3", Vpc.o3) ])
    examples

let golden_invariance () =
  let expected =
    read_file golden_path
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let actual = golden_rows () in
  if actual <> expected then begin
    let out = "sim_golden.actual" in
    let oc = open_out_bin out in
    List.iter (fun l -> output_string oc (l ^ "\n")) (golden_header @ actual);
    close_out oc;
    let rec first_diff = function
      | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else (e, a)
      | e :: _, [] -> (e, "<missing>")
      | [], a :: _ -> ("<missing>", a)
      | [], [] -> ("", "")
    in
    let e, a = first_diff (expected, actual) in
    Alcotest.failf
      "simulator diverges from %s (%d rows expected, %d computed)\n\
       expected: %s\n\
       computed: %s\n\
       computed table written to %s" golden_path (List.length expected)
      (List.length actual) e a
      (Filename.concat (Sys.getcwd ()) out)
  end

let tests =
  [
    Alcotest.test_case "values agree with interp" `Quick values_agree_with_interp;
    Alcotest.test_case "sched modes ordered" `Quick sched_modes_are_ordered;
    Alcotest.test_case "vector beats scalar" `Quick vector_beats_scalar;
    Alcotest.test_case "processors help" `Quick processors_help_parallel_loops;
    Alcotest.test_case "serial unaffected by procs" `Quick processors_do_not_help_serial_code;
    Alcotest.test_case "fp op counting" `Quick fp_op_counting;
    Alcotest.test_case "vector metrics" `Quick vector_metrics;
    Alcotest.test_case "volatile loads" `Quick volatile_not_cached_in_registers;
    Alcotest.test_case "recursion frames" `Quick frame_reuse_recursion;
    Alcotest.test_case "mflops sanity" `Quick mflops_sanity;
    Alcotest.test_case "instruction budget" `Quick infinite_loop_guard;
    Alcotest.test_case "float branch conditions" `Quick float_branch_conditions;
    Alcotest.test_case "memory edges" `Quick memory_edges;
    Alcotest.test_case "golden invariance" `Quick golden_invariance;
  ]
