(* Titan code generator tests: instruction selection shapes, frame
   layout, volatile markers, parallel region markers. *)

open Helpers
open Vpc.Titan

let gen src fname =
  let prog = compile ~options:Vpc.o0 src in
  let layout = Machine.layout_globals prog in
  let tprog =
    Codegen.gen_program prog ~global_addr:(fun id ->
        Hashtbl.find layout.Machine.addr_of id)
  in
  (prog, Hashtbl.find tprog.Isa.funcs fname)

let asm_text (f : Isa.func) = Fmt.str "%a" Isa.pp_func f

let scalar_selection () =
  let _, f =
    gen
      {|float g;
        float f(float x, int n) { g = x * 2.0f; return x + (float)(n / 3); }|}
      "f"
  in
  let asm = asm_text f in
  check_contains "float multiply" ~needle:"fmul.s" asm;
  check_contains "float add" ~needle:"fadd" asm;
  check_contains "int divide" ~needle:"div " asm;
  check_contains "int to float" ~needle:"cvtif" asm;
  check_contains "store to the global" ~needle:"store[float]" asm

let volatile_marked () =
  let _, f =
    gen
      {|volatile int port;
        int f() { port = 1; return port + port; }|}
      "f"
  in
  let asm = asm_text f in
  check_contains "volatile store marker" ~needle:"store.v" asm;
  check_contains "volatile load marker" ~needle:"load.v" asm;
  (* two reads, two volatile loads *)
  let count needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i acc =
      if i + n > h then acc
      else go (i + 1) (acc + if String.sub hay i n = needle then 1 else 0)
    in
    go 0 0
  in
  Alcotest.(check int) "two volatile loads" 2 (count "load.v" asm)

let frame_for_addressed_locals () =
  let _, f =
    gen
      {|void use(int *p);
        int f() { int x; int arr[4]; use(&x); use(arr); return x + arr[0]; }|}
      "f"
  in
  (* x (4) aligned + arr (16): frame covers both *)
  Alcotest.(check bool)
    (Printf.sprintf "frame size %d >= 20" f.Isa.frame_size)
    true
    (f.Isa.frame_size >= 20);
  let asm = asm_text f in
  (* frame addresses are computed off the frame base register r0 *)
  check_contains "frame base arithmetic" ~needle:"add r" asm

let registers_for_plain_locals () =
  let _, f = gen {|int f(int a, int b) { int t; t = a * b; return t + 1; }|} "f" in
  Alcotest.(check int) "no frame needed" 0 f.Isa.frame_size

let vector_instructions () =
  let prog = compile ~options:Vpc.o2
      {|float a[100], b[100];
        void f() { int i; for (i = 0; i < 100; i++) a[i] = b[i] * 2.0f; }|}
  in
  let layout = Machine.layout_globals prog in
  let tprog =
    Codegen.gen_program prog ~global_addr:(fun id ->
        Hashtbl.find layout.Machine.addr_of id)
  in
  let asm = asm_text (Hashtbl.find tprog.Isa.funcs "f") in
  check_contains "vector load" ~needle:"vload" asm;
  check_contains "vector multiply" ~needle:"vfmul" asm;
  check_contains "vector store" ~needle:"vstore" asm;
  check_contains "parallel region enter" ~needle:"par.enter" asm;
  check_contains "iteration marker" ~needle:"par.iter" asm;
  check_contains "parallel region exit" ~needle:"par.exit" asm

let doacross_markers () =
  let prog = compile ~options:Vpc.o2
      {|struct node { float v; int next; };
        struct node pool[32];
        float out[32];
        void walk() {
          int p, k;
          p = 0; k = 0;
          #pragma vpc independent
          while (p != -1) {
            out[k] = pool[p].v;
            p = pool[p].next;
            k++;
          }
        }|}
  in
  let layout = Machine.layout_globals prog in
  let tprog =
    Codegen.gen_program prog ~global_addr:(fun id ->
        Hashtbl.find layout.Machine.addr_of id)
  in
  let asm = asm_text (Hashtbl.find tprog.Isa.funcs "walk") in
  check_contains "serial prefix marker" ~needle:"par.serial_end" asm

let labels_resolve () =
  let _, f =
    gen
      {|int f(int n) {
          int s;
          s = 0;
          while (n > 0) { if (n & 1) s += n; n--; }
          return s;
        }|}
      "f"
  in
  (* every jump/branch target must be a defined label *)
  Array.iter
    (fun inst ->
      match inst with
      | Isa.Jump l | Isa.Branch_zero (_, l) | Isa.Branch_nonzero (_, l) ->
          if not (Hashtbl.mem f.Isa.labels l) then
            Alcotest.failf "unresolved label %s" l
      | _ -> ())
    f.Isa.code

let char_truncation_insts () =
  let _, f = gen {|char f(int n) { return (char)n; }|} "f" in
  let asm = asm_text f in
  (* sign extension via shl/shr pair *)
  check_contains "shift left" ~needle:"shl" asm;
  check_contains "arithmetic shift right" ~needle:"shr" asm

(* Golden --dump-asm digests: every example, plus the many-procedure
   fixture (call chains passing swapped pointer arguments, which no
   example exercises; it is stress01_p17.c of
   `perf/main.exe --workload stress --seed 1 --dump-corpus DIR`), at
   -O0..-O3 must emit the listing whose MD5
   test/fixtures/asm_golden.txt records, so a compile-time change cannot
   silently change emitted code. *)
let asm_golden_path = "fixtures/asm_golden.txt"

let asm_golden_rows () =
  let examples =
    Sys.readdir "../examples" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (Filename.concat "../examples")
  in
  examples @ [ "fixtures/multiproc17.c" ]
  |> List.concat_map (fun path ->
         List.map
           (fun level ->
             let ic =
               Unix.open_process_args_in "../bin/titancc.exe"
                 [|
                   "titancc"; path; "-O"; string_of_int level; "--dump-asm";
                   "--no-run"; "-q";
                 |]
             in
             let asm = In_channel.input_all ic in
             (match Unix.close_process_in ic with
             | Unix.WEXITED 0 -> ()
             | _ -> Alcotest.failf "titancc %s -O %d failed" path level);
             Printf.sprintf "%s O%d %s"
               (Filename.chop_suffix (Filename.basename path) ".c")
               level
               (Digest.to_hex (Digest.string asm)))
           [ 0; 1; 2; 3 ])

let asm_golden () =
  check_golden ~path:asm_golden_path ~actual:"asm_golden.actual"
    (asm_golden_rows ())

let tests =
  [
    Alcotest.test_case "scalar selection" `Quick scalar_selection;
    Alcotest.test_case "asm golden" `Quick asm_golden;
    Alcotest.test_case "volatile markers" `Quick volatile_marked;
    Alcotest.test_case "frame layout" `Quick frame_for_addressed_locals;
    Alcotest.test_case "register locals" `Quick registers_for_plain_locals;
    Alcotest.test_case "vector instructions" `Quick vector_instructions;
    Alcotest.test_case "doacross markers" `Quick doacross_markers;
    Alcotest.test_case "labels resolve" `Quick labels_resolve;
    Alcotest.test_case "char truncation" `Quick char_truncation_insts;
  ]
