(* Doacross (§10) tests: pointer-chasing loops split into a serialized
   advance and a parallel body, gated on the independence pragma. *)

open Helpers

let list_walk_src =
  {|struct node { float val; int next; };
    struct node pool[128];
    float out[128];
    int main()
    {
      int p, k;
      float s;
      for (k = 0; k < 128; k++) {
        pool[k].val = k * 0.5f;
        pool[k].next = (k < 127) ? k + 1 : -1;
      }
      k = 0;
      p = 0;
      #pragma vpc independent
      while (p != -1) {
        out[k] = pool[p].val * 2.0f + 1.0f;
        p = pool[p].next;
        k++;
      }
      s = 0;
      for (k = 0; k < 128; k++) s += out[k];
      printf("%g %d\n", s, k);
      return 0;
    }|}

let transforms_with_pragma () =
  let prog, stats = compile_stats ~options:Vpc.o2 list_walk_src in
  Alcotest.(check int) "one loop transformed" 1
    stats.doacross.loops_transformed;
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  check_contains "marked doacross" ~needle:"doacross" il;
  (* the copies capture the pre-advance values *)
  check_contains "pointer copy" ~needle:"p_cur" il

let not_without_pragma () =
  (* the same program with the pragma line stripped *)
  let src =
    String.concat ""
      (String.split_on_char '#' list_walk_src |> function
       | before :: after :: rest ->
           let after =
             match String.index_opt after '\n' with
             | Some i -> String.sub after i (String.length after - i)
             | None -> after
           in
           before :: after :: rest
       | l -> l)
  in
  let prog, stats = compile_stats ~options:Vpc.o2 src in
  ignore prog;
  Alcotest.(check int) "no pragma, no transform" 0
    stats.doacross.loops_transformed

let semantics_preserved () = assert_all_configs_agree "list walk" list_walk_src

let semantics_with_branches () =
  assert_all_configs_agree "list walk with conditional body"
    {|struct node { float val; int next; };
      struct node pool[64];
      float pos[64], neg[64];
      int main()
      {
        int p, k;
        float sp, sn;
        for (k = 0; k < 64; k++) {
          pool[k].val = (k & 1) ? (0.0f - k) : (float)k;
          pool[k].next = (k < 63) ? k + 1 : -1;
        }
        k = 0;
        p = 0;
        #pragma vpc independent
        while (p != -1) {
          if (pool[p].val < 0.0f) neg[k] = pool[p].val;
          else pos[k] = pool[p].val;
          p = pool[p].next;
          k++;
        }
        sp = 0; sn = 0;
        for (k = 0; k < 64; k++) { sp += pos[k]; sn += neg[k]; }
        printf("%g %g\n", sp, sn);
        return 0;
      }|}

let processors_reduce_cycles () =
  let prog = compile ~options:Vpc.o2 list_walk_src in
  let cyc procs =
    (Vpc.run_titan
       ~config:{ Vpc.Titan.Machine.default_config with procs }
       prog)
      .metrics
      .cycles
  in
  let c1 = cyc 1 and c4 = cyc 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 procs reduce cycles (%d -> %d)" c1 c4)
    true (c4 < c1)

let rejects_body_feeding_advance () =
  (* the advance reads a value the parallel body computes: must reject *)
  let src =
    {|int pool[64];
      float out[64];
      int main()
      {
        int p, k, t;
        p = 0; k = 0;
        #pragma vpc independent
        while (p != -1 && k < 64) {
          t = pool[p] & 63;
          out[k] = (float)t;
          p = (t > 32) ? -1 : k;   /* p depends on t from the body */
          k++;
        }
        printf("%d\n", k);
        return 0;
      }|}
  in
  (* whether or not the shape is recognized, results must be preserved *)
  assert_all_configs_agree "body feeds advance" src

(* ---- DO-loop post/wait pipelining ---- *)

(* Carried distance 8 through a[], heavy polynomial body: one sync
   channel, clear pipeline win at 4 processors. *)
let recurrence_src =
  {|double a[4200];
    int main() {
      int i;
      double t, p;
      for (i = 0; i < 8; i = i + 1)
        a[i] = 0.25 + (double)i * 0.0625;
      for (i = 0; i < 4096; i++) {
        t = a[i];
        p = (t * 0.5 + 1.0) * (t - 0.25) + (t * t) * 0.125;
        p = p * (t * 0.0625 - 2.0) + (t + 3.0) * 0.75;
        a[i + 8] = p * 0.125 + t * 0.875;
      }
      printf("a[2048]=%g a[4103]=%g\n", a[2048], a[4103]);
      return 0;
    }|}

(* Two carried distances (63 and 64): sync elimination must keep the
   chain minimal while the exact-sum rule still covers every edge. *)
let wavefront_src =
  {|double u[8400];
    int main() {
      int k;
      double s, q, r, w;
      for (k = 0; k < 64; k = k + 1)
        u[k] = 0.25 + (double)k * 0.015625;
      for (k = 0; k < 8192; k++) {
        s = u[k] * 0.3 + u[k + 1] * 0.3;
        q = u[k] * u[k + 1];
        r = q * (1.0 - q * 0.5) * 0.02 + s;
        w = q * (0.5 + q * 0.25) * 0.015625;
        u[k + 64] = u[k + 64] * 0.35 + r + w + 0.05;
      }
      printf("u[4096]=%.15g u[8255]=%.15g\n", u[4096], u[8255]);
      return 0;
    }|}

let titan_metrics ?(procs = 4) prog =
  (Vpc.run_titan
     ~config:{ Vpc.Titan.Machine.default_config with procs }
     prog)
    .Vpc.Titan.Machine.metrics

let do_sync_pipelines_recurrence () =
  let prog, stats = compile_stats ~options:Vpc.o2 recurrence_src in
  Alcotest.(check int) "one loop pipelined" 1 stats.doacross.do_pipelined;
  Alcotest.(check int) "one sync channel" 1 stats.doacross.syncs_placed;
  let m = titan_metrics prog in
  Alcotest.(check int) "one post per iteration" 4096 m.posts;
  Alcotest.(check int) "one wait per iteration" 4096 m.waits;
  let off =
    compile ~options:{ Vpc.o2 with Vpc.off = [ `Doacross_sync ] } recurrence_src
  in
  let m_off = titan_metrics off in
  Alcotest.(check bool)
    (Printf.sprintf "pipelining wins at 4 procs (%d -> %d)" m_off.cycles
       m.cycles)
    true
    (m.cycles * 3 < m_off.cycles * 2)

let do_sync_eliminates_redundant () =
  let prog, stats = compile_stats ~options:Vpc.o2 wavefront_src in
  Alcotest.(check int) "one loop pipelined" 1 stats.doacross.do_pipelined;
  Alcotest.(check int) "two sync channels kept" 2 stats.doacross.syncs_placed;
  Alcotest.(check bool) "some syncs eliminated" true
    (stats.doacross.syncs_eliminated > 0);
  let m = titan_metrics prog in
  Alcotest.(check int) "two posts per iteration" (2 * 8192) m.posts

let do_sync_off_by_option () =
  let prog, stats =
    compile_stats
      ~options:{ Vpc.o2 with Vpc.off = [ `Doacross_sync ] }
      recurrence_src
  in
  Alcotest.(check int) "nothing pipelined" 0 stats.doacross.do_pipelined;
  let m = titan_metrics prog in
  Alcotest.(check int) "no posts" 0 m.posts;
  Alcotest.(check int) "no stalls" 0 m.post_wait_stalls

let do_sync_differential () =
  assert_all_configs_agree "recurrence" recurrence_src;
  assert_all_configs_agree "wavefront" wavefront_src

(* The machine must terminate and agree for processor counts that do not
   divide the trip count or the carried distance. *)
let do_sync_any_proc_count () =
  let prog = compile ~options:Vpc.o2 recurrence_src in
  let reference = interp_output prog in
  List.iter
    (fun procs ->
      let out =
        titan_output
          ~config:{ Vpc.Titan.Machine.default_config with procs }
          prog
      in
      Alcotest.(check string)
        (Printf.sprintf "titan at %d procs" procs)
        reference out)
    [ 1; 2; 3; 5; 8 ]

(* Distance 3 with a heavy body: the producing iteration is still
   running when the consumer reaches its wait, so the stall counter must
   move — and the result must still be right. *)
let do_sync_counts_stalls () =
  let src =
    {|double a[4200];
      int main() {
        int i;
        double t, p;
        a[0] = 0.5;
        a[1] = 0.625;
        a[2] = 0.75;
        for (i = 0; i < 1024; i++) {
          t = a[i];
          p = (t * 0.5 + 1.0) * (t - 0.25) + (t * t) * 0.125;
          p = p * (t * 0.0625 - 2.0) + (t + 3.0) * 0.75;
          a[i + 3] = p * 0.125 + t * 0.875;
        }
        printf("a[1000]=%g\n", a[1000]);
        return 0;
      }|}
  in
  let prog, stats = compile_stats ~options:Vpc.o2 src in
  Alcotest.(check int) "pipelined" 1 stats.doacross.do_pipelined;
  let m = titan_metrics prog in
  Alcotest.(check bool) "waits stall" true (m.post_wait_stalls > 0);
  Alcotest.(check string) "output right" (interp_output prog)
    (titan_output
       ~config:{ Vpc.Titan.Machine.default_config with procs = 4 }
       prog)

let do_sync_rejects_call () =
  let src =
    {|double a[300];
      double f(double x) { return x * 0.5 + 1.0; }
      int main() {
        int i;
        for (i = 0; i < 128; i++)
          a[i + 8] = f(a[i]);
        printf("%g %g\n", a[100], a[200]);
        return 0;
      }|}
  in
  let prog, stats =
    compile_stats ~options:{ Vpc.o2 with Vpc.off = [ `Inline ] } src
  in
  Alcotest.(check int) "not pipelined" 0 stats.doacross.do_pipelined;
  Alcotest.(check int) "no posts" 0 (titan_metrics prog).posts;
  assert_all_configs_agree "call in body" src

let asm_text prog =
  let layout = Vpc.Titan.Machine.layout_globals prog in
  let tprog =
    Vpc.Titan.Codegen.gen_program prog ~global_addr:(fun id ->
        Hashtbl.find layout.Vpc.Titan.Machine.addr_of id)
  in
  Hashtbl.fold (fun name f acc -> (name, f) :: acc)
    tprog.Vpc.Titan.Isa.funcs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (_, f) -> Fmt.str "%a" Vpc.Titan.Isa.pp_func f)
  |> String.concat "\n"

let do_sync_pipelines_bounded_distance () =
  (* n is only known to lie in [7, 9]: no constant carried distance, but
     the range bound proves every carried distance >= 7, so the loop
     pipelines behind a cumulative wait (block until every iteration
     <= i - 7 has posted) — sound for n = 7, 8, or 9 alike.  Exact-sum
     chains alone left this loop serial. *)
  let src =
    {|double a[1100];
      int n;
      int main() {
        int i;
        if (a[0] < 0.5) n = 7; else n = 9;
        for (i = 0; i < 1024; i++)
          a[i + n] = (a[i] * 0.5 + 1.0) * (a[i] * 0.25 + 2.0)
                   + (a[i] * 0.125 + 3.0) * (a[i] * 0.0625 + 4.0);
        printf("%g %g\n", a[100], a[1000]);
        return 0;
      }|}
  in
  let prog, stats = compile_stats ~options:Vpc.o2 src in
  Alcotest.(check int) "pipelined" 1 stats.doacross.do_pipelined;
  Alcotest.(check int) "posts once per iteration" 1024
    (titan_metrics prog).posts;
  check_contains "cumulative wait emitted" ~needle:"cwait"
    (asm_text prog);
  assert_all_configs_agree "bounded symbolic distance" src

let do_sync_rejects_unbounded_distance () =
  (* n may be 7 or -9: the carried distance has no usable lower bound
     (it is not even directionally consistent), so the loop must stay
     serial with no sync instructions emitted *)
  let src =
    {|double a[300];
      int n;
      int main() {
        int i;
        if (a[0] < 0.5) n = 7; else n = -9;
        for (i = 9; i < 128; i++)
          a[i + n] = a[i] * 0.5 + 1.0;
        printf("%g %g\n", a[100], a[20]);
        return 0;
      }|}
  in
  let prog, stats = compile_stats ~options:Vpc.o2 src in
  Alcotest.(check int) "not pipelined" 0 stats.doacross.do_pipelined;
  Alcotest.(check bool) "rejected for distance" true
    (stats.doacross.do_rejected_distance > 0);
  Alcotest.(check int) "no posts" 0 (titan_metrics prog).posts;
  assert_all_configs_agree "unbounded distance" src

let do_sync_rejects_scalar_recurrence () =
  (* s carries a register recurrence: post/wait order memory, not
     registers, so the loop must stay serial *)
  let src =
    {|double a[300];
      int main() {
        int i;
        double s;
        s = 1.0;
        for (i = 0; i < 128; i++) {
          s = s * 0.5 + a[i];
          a[i + 4] = s;
        }
        printf("%g %g\n", a[100], s);
        return 0;
      }|}
  in
  let prog, stats = compile_stats ~options:Vpc.o2 src in
  Alcotest.(check int) "not pipelined" 0 stats.doacross.do_pipelined;
  Alcotest.(check bool) "rejected for scalar state" true
    (stats.doacross.do_rejected_scalar > 0);
  Alcotest.(check int) "no posts" 0 (titan_metrics prog).posts;
  assert_all_configs_agree "scalar recurrence" src

(* ---- the exact-sum coverage rule, directly ---- *)

let sync ?(cum = false) chan distance post_after wait_before :
    Vpc.Il.Stmt.dsync =
  { Vpc.Il.Stmt.chan; distance; post_after; wait_before; cum }

let covers syncs ~src ~dst ~dist =
  Vpc.Transform.Doacross.covers syncs ~src ~dst ~dist ~cum:false

let covers_exact_sum () =
  let s1 = sync 0 1 2 0 in
  (* post after stmt 2, wait before stmt 0, distance 1 *)
  Alcotest.(check bool) "direct edge covered" true
    (covers [ s1 ] ~src:1 ~dst:3 ~dist:1);
  Alcotest.(check bool) "source after the post" false
    (covers [ s1 ] ~src:3 ~dst:3 ~dist:1);
  Alcotest.(check bool) "sink before the wait" true
    (covers [ s1 ] ~src:0 ~dst:0 ~dist:1);
  Alcotest.(check bool) "self-chain sums to 2"
    (* wait at 0 precedes the post at 2, so the d=1 channel composes
       with itself through the intermediate iteration *)
    true
    (covers [ s1 ] ~src:1 ~dst:3 ~dist:2);
  let far = sync 1 2 3 1 in
  Alcotest.(check bool) "longer sync overshoots a shorter edge" false
    (covers [ far ] ~src:0 ~dst:3 ~dist:1);
  Alcotest.(check bool) "self-chain multiples miss odd distances" false
    (* far self-chains to 2, 4, 6, ... — never exactly 3 *)
    (covers [ far ] ~src:1 ~dst:1 ~dist:3);
  Alcotest.(check bool) "mixed chain sums 1+2" true
    (covers [ s1; far ] ~src:1 ~dst:3 ~dist:3);
  Alcotest.(check bool) "empty chain covers nothing" false
    (covers [] ~src:0 ~dst:3 ~dist:1)

let covers_respects_order () =
  (* wait lands after the next post: the chain cannot compose *)
  let early = sync 0 1 0 3 in
  Alcotest.(check bool) "broken chain rejected" false
    (covers [ early; early ] ~src:0 ~dst:3 ~dist:2);
  Alcotest.(check bool) "single link still fine" true
    (covers [ early ] ~src:0 ~dst:3 ~dist:1)

let dsync_sexp_roundtrip () =
  let d = sync 2 63 4 1 in
  let d' = Vpc.Il.Stmt.dsync_of_sexp (Vpc.Il.Stmt.dsync_to_sexp d) in
  Alcotest.(check bool) "dsync round-trips" true (d = d');
  (* a pipelined function round-trips through the catalog serialization
     with its sync chain intact *)
  let prog = compile ~options:Vpc.o2 wavefront_src in
  let f = Vpc.Il.Prog.func_exn prog "main" in
  let f' = Vpc.Il.Func.of_sexp (Vpc.Il.Func.to_sexp f) in
  Alcotest.(check string) "function round-trips"
    (Vpc.Il.Pp.func_to_string prog f)
    (Vpc.Il.Pp.func_to_string prog f')

let tests =
  [
    Alcotest.test_case "transforms with pragma" `Quick transforms_with_pragma;
    Alcotest.test_case "needs the pragma" `Quick not_without_pragma;
    Alcotest.test_case "semantics" `Quick semantics_preserved;
    Alcotest.test_case "conditional bodies" `Quick semantics_with_branches;
    Alcotest.test_case "processors help" `Quick processors_reduce_cycles;
    Alcotest.test_case "rejects dependent advance" `Quick rejects_body_feeding_advance;
    Alcotest.test_case "sync: pipelines recurrence" `Quick do_sync_pipelines_recurrence;
    Alcotest.test_case "sync: eliminates redundant" `Quick do_sync_eliminates_redundant;
    Alcotest.test_case "sync: off by option" `Quick do_sync_off_by_option;
    Alcotest.test_case "sync: differential" `Quick do_sync_differential;
    Alcotest.test_case "sync: any proc count" `Quick do_sync_any_proc_count;
    Alcotest.test_case "sync: counts stalls" `Quick do_sync_counts_stalls;
    Alcotest.test_case "sync: rejects call" `Quick do_sync_rejects_call;
    Alcotest.test_case "sync: pipelines bounded symbolic distance" `Quick
      do_sync_pipelines_bounded_distance;
    Alcotest.test_case "sync: rejects unbounded distance" `Quick
      do_sync_rejects_unbounded_distance;
    Alcotest.test_case "sync: rejects scalar recurrence" `Quick do_sync_rejects_scalar_recurrence;
    Alcotest.test_case "sync: exact-sum coverage" `Quick covers_exact_sum;
    Alcotest.test_case "sync: chain order" `Quick covers_respects_order;
    Alcotest.test_case "sync: sexp round-trip" `Quick dsync_sexp_roundtrip;
  ]
