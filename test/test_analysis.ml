(* Scalar analysis tests: CFG construction, reaching definitions,
   liveness, constant propagation with unreachable-code elimination (§8),
   dead-code elimination. *)

open Helpers
open Vpc

let prog_func src name =
  let prog = Helpers.compile src in
  (prog, Il.Prog.func_exn prog name)

let cfg_structure () =
  let _, f =
    prog_func
      "int f(int n) { int s; s = 0; if (n > 0) s = 1; else s = 2; return s; }"
      "f"
  in
  let cfg = Analysis.Cfg.build f in
  (* entry has one successor; exit has at least one predecessor *)
  Alcotest.(check int) "entry out-degree" 1
    (List.length (Analysis.Cfg.succs cfg Analysis.Cfg.entry_id));
  Alcotest.(check bool) "exit reachable" true
    (Analysis.Cfg.preds cfg Analysis.Cfg.exit_id <> []);
  (* the If node must have two successors *)
  let if_node =
    List.find_map
      (fun (s : Il.Stmt.t) ->
        match s.desc with Il.Stmt.If _ -> Some s.id | _ -> None)
      (Il.Func.all_stmts f)
  in
  match if_node with
  | Some id ->
      Alcotest.(check int) "if out-degree" 2
        (List.length (Analysis.Cfg.succs cfg id))
  | None -> Alcotest.fail "no if statement found"

let cfg_loop_back_edge () =
  let _, f =
    prog_func "int f(int n) { int s; s = 0; while (n > 0) { s++; n--; } return s; }" "f"
  in
  let cfg = Analysis.Cfg.build f in
  let while_id =
    List.find_map
      (fun (s : Il.Stmt.t) ->
        match s.desc with Il.Stmt.While _ -> Some s.id | _ -> None)
      (Il.Func.all_stmts f)
  in
  match while_id with
  | Some id ->
      (* the loop header has (at least) two predecessors: entry path and
         back edge *)
      Alcotest.(check bool) "back edge" true
        (List.length (Analysis.Cfg.preds cfg id) >= 2)
  | None -> Alcotest.fail "no while loop"

let branch_into_detection () =
  let _, f =
    prog_func
      {|int f(int n) {
          int s;
          s = 0;
          if (n > 10) goto inside;
          while (n > 0) {
          inside:
            s++;
            n--;
          }
          return s;
        }|}
      "f"
  in
  let body =
    List.find_map
      (fun (s : Il.Stmt.t) ->
        match s.desc with Il.Stmt.While (_, _, b) -> Some b | _ -> None)
      (Il.Func.all_stmts f)
  in
  match body with
  | Some b ->
      Alcotest.(check bool) "branch into loop detected" true
        (Analysis.Cfg.has_branch_into f b)
  | None -> Alcotest.fail "no while loop"

let reaching_unique_def () =
  let prog, f =
    prog_func "int f(int a) { int x; x = a + 1; return x; }" "f"
  in
  let ud = Analysis.Reaching.build ~prog f in
  let ret =
    List.find
      (fun (s : Il.Stmt.t) ->
        match s.desc with Il.Stmt.Return _ -> true | _ -> false)
      (Il.Func.all_stmts f)
  in
  let x_id =
    List.find_map
      (fun (v : Il.Var.t) -> if v.name = "x" then Some v.id else None)
      (Il.Func.locals f)
    |> Option.get
  in
  match Analysis.Reaching.unique_def ud ~stmt_id:ret.id ~var:x_id with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a unique reaching def for x"

let reaching_merge () =
  let prog, f =
    prog_func
      "int f(int a) { int x; if (a) x = 1; else x = 2; return x; }" "f"
  in
  let ud = Analysis.Reaching.build ~prog f in
  let ret =
    List.find
      (fun (s : Il.Stmt.t) ->
        match s.desc with Il.Stmt.Return _ -> true | _ -> false)
      (Il.Func.all_stmts f)
  in
  let x_id =
    List.find_map
      (fun (v : Il.Var.t) -> if v.name = "x" then Some v.id else None)
      (Il.Func.locals f)
    |> Option.get
  in
  (match Analysis.Reaching.reaching ud ~stmt_id:ret.id ~var:x_id with
  | Analysis.Reaching.Defs ds ->
      Alcotest.(check int) "two defs reach the return" 2
        (List.length
           (List.filter
              (fun d -> d.Analysis.Reaching.d_stmt <> Analysis.Reaching.entry_def_stmt)
              ds))
  | Analysis.Reaching.Unknown -> Alcotest.fail "unexpected Unknown");
  Alcotest.(check bool) "not unique" true
    (Analysis.Reaching.unique_def ud ~stmt_id:ret.id ~var:x_id = None)

let reaching_memory_weak_def () =
  (* a store through a pointer clobbers address-taken variables *)
  let prog, f =
    prog_func
      "int f(int *p) { int x; x = 5; *p = 9; return x + (int)&x; }" "f"
  in
  let ud = Analysis.Reaching.build ~prog f in
  let ret =
    List.find
      (fun (s : Il.Stmt.t) ->
        match s.desc with Il.Stmt.Return _ -> true | _ -> false)
      (Il.Func.all_stmts f)
  in
  let x_id =
    List.find_map
      (fun (v : Il.Var.t) -> if v.name = "x" then Some v.id else None)
      (Il.Func.locals f)
    |> Option.get
  in
  Alcotest.(check bool) "x is unknown after *p store" true
    (Analysis.Reaching.reaching ud ~stmt_id:ret.id ~var:x_id
     = Analysis.Reaching.Unknown)

let const_prop_basic () =
  let src = "int f() { int a, b; a = 5; b = a + 2; return b * a; }" in
  let il = func_il ~options:Vpc.o1 src "f" in
  check_contains "fully folded" ~needle:"return 35;" il

let const_prop_through_branches () =
  let src =
    {|int f() {
        int a, b;
        a = 1;
        if (a) b = 10; else b = 20;
        return b;
      }|}
  in
  let il = func_il ~options:Vpc.o1 src "f" in
  check_contains "branch folded" ~needle:"return 10;" il;
  check_not_contains "no if left" ~needle:"if" il

let const_prop_address_constants () =
  (* §9: "the vectorizer is safe in propagating address constants" *)
  let src =
    {|float arr[10];
      float *f() { float *p; p = &arr[2]; return p; }|}
  in
  let il = func_il ~options:Vpc.o1 src "f" in
  check_contains "address constant propagated" ~needle:"return &arr + 8;" il

let unreachable_after_constant_branch () =
  (* §8's inlined daxpy(α=0) pattern *)
  let src =
    {|float x;
      int f() {
        float a;
        a = 0.0;
        if (a == 0.0) return 1;
        x = x + 3.0;   /* unreachable */
        return 2;
      }|}
  in
  let il = func_il ~options:Vpc.o1 src "f" in
  check_contains "kept the taken arm" ~needle:"return 1;" il;
  check_not_contains "dead float add removed" ~needle:"3.0" il

let zero_trip_loop_removed () =
  let src =
    {|int f() {
        int i, s;
        s = 0;
        for (i = 0; i < 0; i++) s += i;
        return s;
      }|}
  in
  let il = func_il ~options:Vpc.o1 src "f" in
  check_not_contains "loop deleted" ~needle:"while" il;
  check_not_contains "no do loop" ~needle:"do fortran" il

let dce_removes_dead_assign () =
  let src = "int f(int a) { int dead; dead = a * 99; return a; }" in
  let il = func_il ~options:Vpc.o1 src "f" in
  check_not_contains "dead assign removed" ~needle:"99" il

let dce_keeps_volatile_and_memory () =
  let src =
    {|volatile int port;
      int f(int *p) {
        port = 1;     /* volatile store: must stay */
        *p = 2;       /* memory store: must stay */
        return 0;
      }|}
  in
  let il = func_il ~options:Vpc.o1 src "f" in
  check_contains "volatile store kept" ~needle:"port = 1;" il;
  check_contains "memory store kept" ~needle:"*p = 2;" il

let dce_semantics_preserved () =
  Helpers.assert_all_configs_agree "dce program"
    {|int g;
      int f(int n) {
        int unused, acc;
        unused = n * n;
        acc = 0;
        while (n > 0) { acc += n; n--; unused = acc; }
        g = acc;
        return acc;
      }
      int main() { printf("%d %d\n", f(10), g); return 0; }|}

let liveness_loop_carried () =
  let _, f =
    prog_func "int f(int n) { int s; s = 0; while (n) { s = s + n; n--; } return s; }"
      "f"
  in
  let live = Analysis.Liveness.build f in
  (* s is live out of its update inside the loop (read next iteration) *)
  let s_update =
    List.find_map
      (fun (st : Il.Stmt.t) ->
        match st.desc with
        | Il.Stmt.Assign (Il.Stmt.Lvar _, rhs)
          when List.length (Il.Expr.read_vars rhs) = 2 ->
            Some st.id
        | _ -> None)
      (Il.Func.all_stmts f)
  in
  let s_id =
    List.find_map
      (fun (v : Il.Var.t) -> if v.name = "s" then Some v.id else None)
      (Il.Func.locals f)
    |> Option.get
  in
  match s_update with
  | Some id ->
      Alcotest.(check bool) "s live out of its loop update" true
        (Analysis.Liveness.live_out_of live ~stmt_id:id ~var:s_id)
  | None -> Alcotest.fail "did not find the s update"

let unreachable_postpass () =
  let src =
    {|int f(int n) {
        if (n) goto out;
        return 1;
      out:
        return 2;
      }|}
  in
  (* code after 'return 1' up to the label is live; code after a goto is
     dead — construct one via goto chain *)
  let src2 =
    {|int g() {
        goto skip;
        return 111;
      skip:
        return 222;
      }
      int main() { printf("%d\n", g()); return 0; }|}
  in
  ignore src;
  let il = func_il ~options:Vpc.o1 src2 "g" in
  check_not_contains "dead return dropped" ~needle:"111" il;
  Alcotest.(check string) "semantics" "222\n" (interp_output (Helpers.compile src2))

let unreachable_exit_liveness () =
  (* no path reaches the exit: liveness must still build and answer *)
  let src = read_file "fixtures/unreachable_exit.c" in
  let _, f = prog_func src "main" in
  let live = Analysis.Liveness.build f in
  let x_id =
    List.find_map
      (fun (v : Il.Var.t) -> if v.name = "x" then Some v.id else None)
      (Il.Func.locals f)
    |> Option.get
  in
  let stmt_where p = (List.find p (Il.Func.all_stmts f)).Il.Stmt.id in
  let init =
    stmt_where (fun s ->
        match s.desc with
        | Il.Stmt.Assign (Il.Stmt.Lvar v, { desc = Il.Expr.Const_int _; _ }) ->
            v = x_id
        | _ -> false)
  in
  let back_edge =
    stmt_where (fun s ->
        match s.desc with Il.Stmt.Goto _ -> true | _ -> false)
  in
  Alcotest.(check bool) "x live after x = 0" true
    (Analysis.Liveness.live_out_of live ~stmt_id:init ~var:x_id);
  Alcotest.(check bool) "x live around the back edge" true
    (Analysis.Liveness.live_out_of live ~stmt_id:back_edge ~var:x_id)

(* Every answer of the dense-array solvers equals the reference
   list/Hashtbl solvers' ([Dataflow_reference]) for every (statement,
   variable) pair of every function, after every pass of the -O3
   pipeline over each example and a few generated programs. *)
(* Every variable a function mentions: parameters, locals, and each
   variable a statement reads, addresses or defines. *)
let mentioned_vars (f : Il.Func.t) =
  let vars = Hashtbl.create 64 in
  let note v = Hashtbl.replace vars v () in
  List.iter note f.Il.Func.params;
  List.iter (fun (v : Il.Var.t) -> note v.id) (Il.Func.locals f);
  List.iter
    (fun (s : Il.Stmt.t) ->
      List.iter
        (fun e ->
          List.iter note (Il.Expr.read_vars e);
          List.iter note (Il.Expr.vars_addressed [] e))
        (Il.Stmt.shallow_exprs s);
      Option.iter note (Analysis.Liveness.def_of s))
    (Il.Func.all_stmts f);
  vars

let solvers_match_reference () =
  let module Ref = Dataflow_reference in
  let check_func prog stage (f : Il.Func.t) =
    let ud = Analysis.Reaching.build ~prog f in
    let ref_ud = Ref.reaching_build ~prog f in
    let live = Analysis.Liveness.build f in
    let ref_live = Ref.liveness_build f in
    let vars = mentioned_vars f in
    let stmts = Il.Func.all_stmts f in
    let where (s : Il.Stmt.t) v what =
      Printf.sprintf "%s: %s stmt %d var %d %s" stage f.Il.Func.name s.id v what
    in
    List.iter
      (fun (s : Il.Stmt.t) ->
        Hashtbl.iter
          (fun v () ->
            let stmt_id = s.id and var = v in
            if
              Analysis.Reaching.reaching ud ~stmt_id ~var
              <> Ref.reaching ref_ud ~stmt_id ~var
            then Alcotest.fail (where s v "reaching");
            if
              Analysis.Reaching.unique_def ud ~stmt_id ~var
              <> Ref.unique_def ref_ud ~stmt_id ~var
            then Alcotest.fail (where s v "unique_def");
            if
              Analysis.Liveness.live_out_of live ~stmt_id ~var
              <> Ref.live_out_of ref_live ~stmt_id ~var
            then Alcotest.fail (where s v "live_out_of"))
          vars)
      stmts
  in
  let sources =
    ("unreachable_exit", read_file "fixtures/unreachable_exit.c")
    :: (Sys.readdir "../examples" |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".c")
       |> List.sort compare
       |> List.map (fun f -> (f, read_file (Filename.concat "../examples" f))))
    @ List.init 8 (fun seed ->
          (Printf.sprintf "generated %d" seed, Gen_c.program (seed + 1)))
  in
  List.iter
    (fun (name, src) ->
      let prog = Vpc.parse src in
      let checked = ref 0 in
      let dump stage _text =
        incr checked;
        List.iter
          (check_func prog (name ^ " after " ^ stage))
          prog.Il.Prog.funcs
      in
      ignore (Vpc.optimize ~options:{ Vpc.o3 with dump = Some dump } prog);
      Alcotest.(check bool) (name ^ ": passes checked") true (!checked > 0))
    sources

(* Const-prop rounds that fold nothing reuse their use-def chains through
   [Reaching.refresh]; it must answer exactly as a fresh build.  Every
   example, fixture and a few generated programs, as parsed, go through
   rounds of unique-def constant substitution plus [Simplify.expr] in
   place (what such a round does); after each, a refresh that returns
   [Some] must report for every (statement, variable) pair the same def
   sites, with [Expr.equal] values, as [build].  refresh_guard.c
   simplifies away the only [&a], so some refresh must also decline. *)
let refresh_matches_build () =
  let module R = Analysis.Reaching in
  let same_site (x : R.def) (y : R.def) =
    x.d_stmt = y.d_stmt && x.d_var = y.d_var && x.d_weak = y.d_weak
    && Option.equal Il.Expr.equal x.d_value y.d_value
  in
  let same_reach a b =
    match a, b with
    | R.Unknown, R.Unknown -> true
    | R.Defs xs, R.Defs ys ->
        List.length xs = List.length ys && List.for_all2 same_site xs ys
    | _ -> false
  in
  let refreshed = ref 0 and declined = ref 0 in
  let check_func prog name (f : Il.Func.t) =
    let substitute ud (s : Il.Stmt.t) =
      let value (e : Il.Expr.t) =
        match e.desc with
        | Il.Expr.Var v -> (
            match R.unique_def ud ~stmt_id:s.id ~var:v with
            | Some { d_value = Some c; _ }
              when Analysis.Simplify.is_propagation_constant c ->
                Il.Expr.cast e.ty c
            | _ -> e)
        | _ -> e
      in
      [ Il.Stmt.map_exprs_shallow
          (fun e -> Analysis.Simplify.expr (Il.Expr.map value e))
          s ]
    in
    let rec round k ud =
      if k < 4 then begin
        f.Il.Func.body <- Il.Stmt.map_list (substitute ud) f.Il.Func.body;
        match R.refresh ud with
        | None -> incr declined
        | Some r ->
            incr refreshed;
            let fresh = R.build ~prog f in
            let vars = mentioned_vars f in
            List.iter
              (fun (s : Il.Stmt.t) ->
                Hashtbl.iter
                  (fun var () ->
                    if
                      not
                        (same_reach
                           (R.reaching r ~stmt_id:s.id ~var)
                           (R.reaching fresh ~stmt_id:s.id ~var))
                    then
                      Alcotest.failf "%s: %s round %d stmt %d var %d" name
                        f.Il.Func.name k s.id var)
                  vars)
              (Il.Func.all_stmts f);
            round (k + 1) r
      end
    in
    round 0 (R.build ~prog f)
  in
  let c_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
  in
  List.iter
    (fun (name, src) ->
      let prog = Vpc.parse src in
      List.iter (check_func prog name) prog.Il.Prog.funcs)
    (c_files "../examples" @ c_files "fixtures"
    @ List.init 8 (fun seed ->
          (Printf.sprintf "generated %d" seed, Gen_c.program (seed + 1))));
  Alcotest.(check bool) "some refresh reused its build" true (!refreshed > 0);
  Alcotest.(check bool) "some refresh declined" true (!declined > 0)

(* IL of [fname] right after the first [pass] over it at [options]. *)
let il_after_first ~options src pass fname =
  let prog = Vpc.parse src in
  let stage = Printf.sprintf "%s(%s)" pass fname in
  let seen = ref None in
  let dump st _text =
    if st = stage && !seen = None then
      seen := Some (Il.Pp.func_to_string prog (Il.Prog.func_exn prog fname))
  in
  ignore (Vpc.optimize ~options:{ options with dump = Some dump } prog);
  match !seen with
  | Some il -> il
  | None -> Alcotest.failf "no %s stage" stage

(* Simplifying [((int)&a) * 0] deletes the only [&a]: [a] stops being
   unsafe, so the use-def chains of the next const-prop round must be
   rebuilt, not refreshed, for [a]'s constant to reach the return. *)
let refresh_guard_rebuilds () =
  let il =
    il_after_first ~options:Vpc.o1 (read_file "fixtures/refresh_guard.c")
      "scalar-cleanup" "main"
  in
  check_contains "a + y + k folds" ~needle:"return 5;" il

(* A 40-deep dead chain needs 40 DCE rounds: the first DCE stops at its
   25-round cap, so scalar-cleanup must run the second even though the
   unreachable-code postpass changes nothing. *)
let dce_cap_reruns () =
  let il =
    il_after_first ~options:Vpc.o1 (read_file "fixtures/dce_chain.c")
      "scalar-cleanup" "f"
  in
  check_not_contains "head of the chain" ~needle:"a1 =" il;
  check_not_contains "tail of the chain" ~needle:"a40 =" il;
  check_contains "the return stays" ~needle:"return p;" il

let tests =
  [
    Alcotest.test_case "cfg if structure" `Quick cfg_structure;
    Alcotest.test_case "cfg loop back edge" `Quick cfg_loop_back_edge;
    Alcotest.test_case "branch-into detection" `Quick branch_into_detection;
    Alcotest.test_case "reaching unique def" `Quick reaching_unique_def;
    Alcotest.test_case "reaching merge" `Quick reaching_merge;
    Alcotest.test_case "weak defs via memory" `Quick reaching_memory_weak_def;
    Alcotest.test_case "const prop basic" `Quick const_prop_basic;
    Alcotest.test_case "const prop branch folding" `Quick const_prop_through_branches;
    Alcotest.test_case "address constants (§9)" `Quick const_prop_address_constants;
    Alcotest.test_case "unreachable after fold (§8)" `Quick unreachable_after_constant_branch;
    Alcotest.test_case "zero-trip loop removed" `Quick zero_trip_loop_removed;
    Alcotest.test_case "dce dead assign" `Quick dce_removes_dead_assign;
    Alcotest.test_case "dce volatile/memory" `Quick dce_keeps_volatile_and_memory;
    Alcotest.test_case "dce semantics" `Quick dce_semantics_preserved;
    Alcotest.test_case "liveness loop carried" `Quick liveness_loop_carried;
    Alcotest.test_case "unreachable postpass (§8)" `Quick unreachable_postpass;
    Alcotest.test_case "liveness with unreachable exit" `Quick
      unreachable_exit_liveness;
    Alcotest.test_case "solvers match reference" `Quick solvers_match_reference;
    Alcotest.test_case "refresh matches build" `Quick refresh_matches_build;
    Alcotest.test_case "refresh guard rebuilds" `Quick refresh_guard_rebuilds;
    Alcotest.test_case "dce cap reruns" `Quick dce_cap_reruns;
  ]
