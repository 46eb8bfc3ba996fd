(* The interprocedural points-to and mod/ref analysis (lib/pointsto).

   Positive direction: constraint generation binds arguments to
   parameters at known call sites, the inclusion solver reaches a
   fixpoint through copy chains and cycles, and mod/ref summaries
   propagate effects up the call graph.

   Negative direction (legality): an escaping pointer, an address taken
   at a symbolic offset into an array, and a pointer minted by an
   unknown callee must each defeat the disjointness proof — the oracle
   answers "cannot decide", never a wrong "no alias". *)

open Helpers
module Il = Vpc.Il
module Expr = Il.Expr
module Stmt = Il.Stmt
module Var = Il.Var
module Func = Il.Func
module Prog = Il.Prog
module P = Vpc.Pointsto.Pointsto

let var_id (f : Func.t) name =
  let found = ref None in
  Hashtbl.iter
    (fun id (v : Var.t) -> if v.Var.name = name then found := Some id)
    f.Func.vars;
  match !found with
  | Some id -> id
  | None -> Alcotest.failf "no variable %s in %s" name f.Func.name

let global_id (prog : Prog.t) name =
  let found = ref None in
  Hashtbl.iter
    (fun id (g : Prog.global) ->
      if g.Prog.gvar.Var.name = name then found := Some id)
    prog.Prog.globals;
  match !found with
  | Some id -> id
  | None -> Alcotest.failf "no global %s" name

(* the value of pointer variable [v] used as an address *)
let pval (f : Func.t) name =
  let id = var_id f name in
  Expr.var (Func.var_exn f id)

let names pt resolved =
  List.sort_uniq compare (List.map (fun (o, _) -> P.obj_name pt o) resolved)

(* ----------------------------------------------------------------- *)
(* constraint generation: call-site argument/parameter binding        *)
(* ----------------------------------------------------------------- *)

let param_binding () =
  let prog =
    compile
      {|float a[64], b[64];
        void k(float *p, float *q, int n) {
          int i;
          for (i = 0; i < n; i++) p[i] = q[i];
        }
        int main() { k(a, b, 64); return 0; }|}
  in
  let pt = P.analyze prog in
  let k = Prog.func_exn prog "k" in
  Alcotest.(check (list string))
    "p points only at a" [ "a" ]
    (names pt (P.points_to pt (var_id k "p")));
  Alcotest.(check (list string))
    "q points only at b" [ "b" ]
    (names pt (P.points_to pt (var_id k "q")));
  (match P.verdict pt (pval k "p") (pval k "q") with
  | Some `No_alias -> ()
  | Some (`Must_alias _) | None ->
      Alcotest.fail "p and q bound to disjoint arrays must get No_alias");
  Alcotest.(check bool)
    "disjoint agrees" true
    (P.disjoint pt (pval k "p") (pval k "q"))

let multi_site_union () =
  (* two call sites: d in {a, c}, s in {b} — still disjoint, while d
     from the two sites unioned with itself must not confuse the solver *)
  let prog =
    compile
      {|float a[64], b[64], c[64];
        void k(float *d, float *s, int n) {
          int i;
          for (i = 0; i < n; i++) d[i] = s[i];
        }
        int main() { k(a, b, 64); k(c, b, 64); return 0; }|}
  in
  let pt = P.analyze prog in
  let k = Prog.func_exn prog "k" in
  Alcotest.(check (list string))
    "d points at both destinations" [ "a"; "c" ]
    (names pt (P.points_to pt (var_id k "d")));
  match P.verdict pt (pval k "d") (pval k "s") with
  | Some `No_alias -> ()
  | Some (`Must_alias _) | None ->
      Alcotest.fail "{a,c} vs {b} must still be disjoint"

let aliased_site_defeats () =
  (* one call site passes the same array for both parameters: the proof
     must collapse to "cannot decide" *)
  let prog =
    compile
      {|float a[64], b[64];
        void k(float *d, float *s, int n) {
          int i;
          for (i = 0; i < n; i++) d[i] = s[i];
        }
        int main() { k(a, b, 64); k(b, b, 64); return 0; }|}
  in
  let pt = P.analyze prog in
  let k = Prog.func_exn prog "k" in
  Alcotest.(check bool)
    "overlapping argument sets are not disjoint" false
    (P.disjoint pt (pval k "d") (pval k "s"))

(* ----------------------------------------------------------------- *)
(* solver: copy chains, cycles, offset joins                          *)
(* ----------------------------------------------------------------- *)

let copy_chain_fixpoint () =
  let prog =
    compile
      {|float a[64];
        int main() {
          float *p, *q, *r;
          p = a;
          q = p;
          r = q;
          q = r;       /* cycle q <-> r */
          *r = 1.0f;
          return 0;
        }|}
  in
  let pt = P.analyze prog in
  let m = Prog.func_exn prog "main" in
  List.iter
    (fun v ->
      Alcotest.(check (list string))
        (v ^ " reaches a through the chain")
        [ "a" ]
        (names pt (P.points_to pt (var_id m v))))
    [ "p"; "q"; "r" ];
  (* r and the array base must-alias at distance 0 *)
  let base = Expr.addr_of (Il.Prog.var_exn prog None (global_id prog "a")) in
  match P.verdict pt (pval m "r") base with
  | Some (`Must_alias 0) -> ()
  | Some (`Must_alias d) ->
      Alcotest.failf "expected distance 0, got %d" d
  | Some `No_alias | None ->
      Alcotest.fail "r = a copy chain must give Must_alias 0"

let offset_join_to_any () =
  (* p = a and p = p + 8: flow-insensitively p holds both offsets, so
     the offset lattice must join to Any and Must_alias must vanish *)
  let prog =
    compile
      {|float a[64];
        int main() {
          float *p;
          p = a;
          p = p + 2;
          *p = 1.0f;
          return 0;
        }|}
  in
  let pt = P.analyze prog in
  let m = Prog.func_exn prog "main" in
  Alcotest.(check (list string))
    "p still points only at a" [ "a" ]
    (names pt (P.points_to pt (var_id m "p")));
  let base = Expr.addr_of (Il.Prog.var_exn prog None (global_id prog "a")) in
  (match P.verdict pt (pval m "p") base with
  | None -> ()
  | Some (`Must_alias _) ->
      Alcotest.fail "joined offsets must not claim a constant distance"
  | Some `No_alias -> Alcotest.fail "same object can never be No_alias")

(* ----------------------------------------------------------------- *)
(* mod/ref summaries                                                  *)
(* ----------------------------------------------------------------- *)

let get_summary pt name =
  match P.summary pt name with
  | Some s -> s
  | None -> Alcotest.failf "no summary for %s" name

let summary_names pt set =
  List.sort_uniq compare
    (List.map (P.obj_name pt) (P.Objset.elements set))

let modref_summaries () =
  let prog =
    compile
      {|float a[64], b[64];
        void writer(float *p) { p[0] = 1.0f; }
        float reader(float *p) { return p[0]; }
        float outer() { writer(a); return reader(b); }
        int main() { printf("%g\n", outer()); return 0; }|}
  in
  let pt = P.analyze prog in
  let w = get_summary pt "writer" in
  Alcotest.(check (list string)) "writer mods a" [ "a" ] (summary_names pt w.P.mods);
  Alcotest.(check bool) "writer has no io" false w.P.io;
  let r = get_summary pt "reader" in
  Alcotest.(check (list string)) "reader refs b" [ "b" ] (summary_names pt r.P.refs);
  Alcotest.(check (list string)) "reader mods nothing" [] (summary_names pt r.P.mods);
  (* callee effects fold into the caller *)
  let o = get_summary pt "outer" in
  Alcotest.(check (list string)) "outer mods a" [ "a" ] (summary_names pt o.P.mods);
  Alcotest.(check (list string)) "outer refs b" [ "b" ] (summary_names pt o.P.refs);
  Alcotest.(check bool) "outer has no io" false o.P.io;
  (* printf marks main as io *)
  let m = get_summary pt "main" in
  Alcotest.(check bool) "main does io" true m.P.io

let private_locals_pruned () =
  (* a callee hammering its own locals must export an empty mod set *)
  let prog =
    compile
      {|float scratchpad(int n) {
          float t[8];
          int i;
          for (i = 0; i < 8; i++) t[i] = i * 1.0f;
          return t[n];
        }
        float g;
        int main() { g = scratchpad(3); return 0; }|}
  in
  let pt = P.analyze prog in
  let s = get_summary pt "scratchpad" in
  Alcotest.(check (list string))
    "activation-local array pruned from mods" []
    (summary_names pt s.P.mods);
  Alcotest.(check bool) "not blocking vectorization" false
    (P.blocks_vectorization pt "scratchpad")

(* ----------------------------------------------------------------- *)
(* legality negatives                                                 *)
(* ----------------------------------------------------------------- *)

let negative_escaping_pointer () =
  (* storing a to a global pointer publishes it; the unknown callee may
     then write through it, so a is not provably disjoint from storage
     the callee touches *)
  let prog =
    compile
      {|float a[64];
        float *published;
        void mystery();
        int main() {
          float *p;
          published = a;
          mystery();
          p = published;
          *p = 1.0f;
          return 0;
        }|}
  in
  let pt = P.analyze prog in
  let m = Prog.func_exn prog "main" in
  let base = Expr.addr_of (Il.Prog.var_exn prog None (global_id prog "a")) in
  Alcotest.(check bool)
    "escaped object stays reachable through the global" false
    (P.disjoint pt (pval m "p") base);
  (* the unknown callee's summary must admit arbitrary effects *)
  let s = get_summary pt "main" in
  Alcotest.(check bool) "unknown callee forces io" true s.P.io;
  Alcotest.(check bool) "unknown callee may write the escaped array" true
    (P.Objset.mem P.Unknown s.P.mods || P.Objset.exists (fun o -> P.obj_name pt o = "a") s.P.mods)

let negative_address_taken_overlap () =
  (* p = &a[4*k]: symbolic offset into a — p overlaps a but at no
     provable constant distance, so neither No_alias nor Must_alias *)
  let prog =
    compile
      {|float a[64];
        int main(int k) {
          float *p;
          p = &a[4 * k];
          *p = 2.0f;
          return 0;
        }|}
  in
  let pt = P.analyze prog in
  let m = Prog.func_exn prog "main" in
  let base = Expr.addr_of (Il.Prog.var_exn prog None (global_id prog "a")) in
  Alcotest.(check bool) "not disjoint from its own array" false
    (P.disjoint pt (pval m "p") base);
  match P.verdict pt (pval m "p") base with
  | None -> ()
  | Some `No_alias -> Alcotest.fail "symbolic offset claimed No_alias"
  | Some (`Must_alias _) -> Alcotest.fail "symbolic offset claimed Must_alias"

let negative_unknown_callee_result () =
  (* a pointer minted by a bodyless callee may point anywhere, even at a
     global array it was never told about *)
  let prog =
    compile
      {|float a[64];
        float *mint();
        int main() {
          float *p, *q;
          p = a;
          q = mint();
          *q = 3.0f;
          return 0;
        }|}
  in
  let pt = P.analyze prog in
  let m = Prog.func_exn prog "main" in
  Alcotest.(check bool) "minted pointer may alias anything" false
    (P.disjoint pt (pval m "p") (pval m "q"));
  match P.verdict pt (pval m "p") (pval m "q") with
  | None -> ()
  | Some v ->
      Alcotest.failf "unknown-provenance pointer got a verdict %s"
        (match v with `No_alias -> "No_alias" | `Must_alias _ -> "Must_alias")

(* ----------------------------------------------------------------- *)
(* the race checker accepts calls the summaries bound                 *)
(* ----------------------------------------------------------------- *)

let mark_loops_parallel (f : Func.t) =
  f.Func.body <-
    Stmt.map_list
      (fun s ->
        match s.Stmt.desc with
        | Stmt.Do_loop d ->
            [ { s with Stmt.desc = Stmt.Do_loop { d with Stmt.parallel = true } } ]
        | _ -> [ s ])
      f.Func.body

let races_bounded_call () =
  let src =
    {|float a[256], b[256];
      float getb(int i) { return b[i]; }
      int main() {
        int i;
        for (i = 0; i < 256; i++)
          a[i] = getb(i);
        return 0;
      }|}
  in
  let check with_pointsto =
    (* compile scalar, then assert the loop parallel by hand: the
       validator must prove the call safe from the summaries alone *)
    let prog = compile ~options:Vpc.o1 src in
    let main = Prog.func_exn prog "main" in
    mark_loops_parallel main;
    let pointsto = if with_pointsto then Some (P.analyze prog) else None in
    Vpc.Check.Races.check_func ?pointsto prog main
  in
  (match check false with
  | [] ->
      Alcotest.fail
        "without summaries a call in a parallel body must be flagged"
  | v :: _ ->
      Alcotest.(check string) "flagged as shape" "parallel-shape"
        v.Vpc.Check.Report.rule);
  match check true with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf
        "read-only callee disjoint from the body's writes still flagged: %s"
        (Vpc.Check.Report.to_string v)

let races_mutating_call_still_flagged () =
  (* same shape, but the callee writes the array the loop also writes:
     the summary must NOT unlock this one *)
  let src =
    {|float a[256];
      void seta(int i) { a[i] = 0.0f; }
      int main() {
        int i;
        for (i = 0; i < 256; i++) {
          a[i] = 1.0f;
          seta(i);
        }
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o1 src in
  let main = Prog.func_exn prog "main" in
  mark_loops_parallel main;
  let pointsto = Some (P.analyze prog) in
  match Vpc.Check.Races.check_func ?pointsto prog main with
  | [] -> Alcotest.fail "callee that writes shared memory must stay flagged"
  | _ -> ()

(* ----------------------------------------------------------------- *)
(* --why-scalar                                                       *)
(* ----------------------------------------------------------------- *)

let why_scalar_reports_alias_pair () =
  (* k has no call site, so its parameters stay unknown and the loop
     must stay scalar — and the report must name the unresolved pair *)
  let src =
    {|void k(float *p, float *q, int n) {
        int i;
        for (i = 0; i < n; i++) p[i] = q[i];
      }|}
  in
  let lines = ref [] in
  let options =
    { Vpc.o2 with Vpc.why_scalar = Some (fun l -> lines := l :: !lines) }
  in
  ignore (Vpc.compile ~options src);
  match List.filter (fun l -> contains ~needle:"k:" l) !lines with
  | [] -> Alcotest.fail "expected a why-scalar line for k's loop"
  | l :: _ ->
      check_contains "names the loop" ~needle:"stays scalar" l;
      check_contains "names the unresolved pair" ~needle:"cannot prove" l

let why_scalar_silent_when_vectorized () =
  let src =
    {|float a[64], b[64];
      int main() {
        int i;
        for (i = 0; i < 64; i++) a[i] = b[i] + 1.0f;
        return 0;
      }|}
  in
  let lines = ref [] in
  let options =
    { Vpc.o2 with Vpc.why_scalar = Some (fun l -> lines := l :: !lines) }
  in
  ignore (Vpc.compile ~options src);
  Alcotest.(check (list string)) "no why-scalar lines" [] !lines

(* ----------------------------------------------------------------- *)
(* end to end: the analysis licenses vectorization, identical output  *)
(* ----------------------------------------------------------------- *)

let ptrkernels_src =
  {|void saxpy(float *d, float *s, float alpha, int n) {
      int i;
      for (i = 0; i < n; i++) d[i] = d[i] + alpha * s[i];
    }
    float a[512], b[512], c[512];
    int main() {
      int i;
      for (i = 0; i < 512; i++) { a[i] = i * 0.5f; b[i] = 512 - i; c[i] = 1.0f; }
      saxpy(a, b, 0.25f, 512);
      saxpy(c, b, 2.0f, 512);
      printf("%g %g %g\n", a[0], a[511], c[256]);
      return 0;
    }|}

let end_to_end_vectorizes () =
  let build pointsto =
    compile_stats
      ~options:
        {
          Vpc.o2 with
          Vpc.off = (if pointsto then [] else [ `Pointsto ]);
          verify = `Each_stage;
        }
      ptrkernels_src
  in
  let prog_off, s_off = build false in
  let prog_on, s_on = build true in
  Alcotest.(check bool) "analysis unlocks the saxpy loop" true
    (s_on.Vpc.vectorize.loops_vectorized > s_off.Vpc.vectorize.loops_vectorized);
  Alcotest.(check string) "identical interpreter output"
    (interp_output prog_off) (interp_output prog_on);
  Alcotest.(check string) "identical simulator output"
    (titan_output prog_off) (titan_output prog_on)

let all_levels_agree () =
  assert_all_configs_agree "ptrkernels" ptrkernels_src

let tests =
  [
    Alcotest.test_case "call-site parameter binding" `Quick param_binding;
    Alcotest.test_case "multi-site argument union" `Quick multi_site_union;
    Alcotest.test_case "overlapping site defeats the proof" `Quick
      aliased_site_defeats;
    Alcotest.test_case "copy chain and cycle fixpoint" `Quick
      copy_chain_fixpoint;
    Alcotest.test_case "offset join to Any" `Quick offset_join_to_any;
    Alcotest.test_case "mod/ref summaries up the call graph" `Quick
      modref_summaries;
    Alcotest.test_case "activation-local effects pruned" `Quick
      private_locals_pruned;
    Alcotest.test_case "negative: escaping pointer" `Quick
      negative_escaping_pointer;
    Alcotest.test_case "negative: symbolic address-taken overlap" `Quick
      negative_address_taken_overlap;
    Alcotest.test_case "negative: unknown callee result" `Quick
      negative_unknown_callee_result;
    Alcotest.test_case "race checker accepts bounded call" `Quick
      races_bounded_call;
    Alcotest.test_case "race checker keeps mutating call flagged" `Quick
      races_mutating_call_still_flagged;
    Alcotest.test_case "why-scalar names the alias pair" `Quick
      why_scalar_reports_alias_pair;
    Alcotest.test_case "why-scalar silent on vector loops" `Quick
      why_scalar_silent_when_vectorized;
    Alcotest.test_case "end to end: vectorizes with identical output" `Quick
      end_to_end_vectorizes;
    Alcotest.test_case "ptrkernels agrees at every level/config" `Quick
      all_levels_agree;
  ]
