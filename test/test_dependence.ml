(* Dependence analysis tests: ZIV/SIV/GCD/Banerjee units, alias rules,
   and a qcheck soundness property against brute-force conflict checking. *)

open Vpc.Dependence

let check_verdict name expected got =
  let show = function
    | Test.Independent -> "independent"
    | Test.Dependent { distance = Some d; _ } -> Printf.sprintf "dep(%d)" d
    | Test.Dependent { distance = None; _ } -> "dep(?)"
  in
  Alcotest.(check string) name (show expected) (show got)

let ziv_tests () =
  check_verdict "same location" (Test.dep (Some 0))
    (Test.affine ~c1:0 ~c2:0 ~delta:0 ~trip:(Some 100));
  check_verdict "different locations" Test.Independent
    (Test.affine ~c1:0 ~c2:0 ~delta:8 ~trip:(Some 100))

let strong_siv () =
  (* backsolve: write base+4, read base+0, both stride 4: distance 1 *)
  check_verdict "distance 1" (Test.dep (Some 1))
    (Test.affine ~c1:4 ~c2:4 ~delta:(-4) ~trip:(Some 100));
  check_verdict "distance -2" (Test.dep (Some (-2)))
    (Test.affine ~c1:4 ~c2:4 ~delta:8 ~trip:(Some 100));
  check_verdict "not divisible" Test.Independent
    (Test.affine ~c1:4 ~c2:4 ~delta:2 ~trip:(Some 100));
  check_verdict "beyond trip count" Test.Independent
    (Test.affine ~c1:4 ~c2:4 ~delta:(-400) ~trip:(Some 100));
  check_verdict "unknown trip keeps dep" (Test.dep (Some 100))
    (Test.affine ~c1:4 ~c2:4 ~delta:(-400) ~trip:None)

let weak_zero_siv_cases () =
  (* write a[i], read a[5]: conflict only when 5 < trip *)
  check_verdict "invariant read hit" (Test.dep None)
    (Test.affine ~c1:4 ~c2:0 ~delta:20 ~trip:(Some 100));
  check_verdict "invariant read beyond trip" Test.Independent
    (Test.affine ~c1:4 ~c2:0 ~delta:20 ~trip:(Some 5));
  check_verdict "invariant read unaligned" Test.Independent
    (Test.affine ~c1:4 ~c2:0 ~delta:18 ~trip:(Some 100));
  check_verdict "invariant read before array" Test.Independent
    (Test.affine ~c1:4 ~c2:0 ~delta:(-8) ~trip:(Some 100));
  check_verdict "symmetric case" (Test.dep None)
    (Test.affine ~c1:0 ~c2:4 ~delta:(-20) ~trip:(Some 100))

let gcd_test_cases () =
  (* 2i vs 2j+1 never meet: gcd 2 does not divide 1 *)
  check_verdict "odd/even" Test.Independent
    (Test.affine ~c1:2 ~c2:2 ~delta:1 ~trip:(Some 100));
  (* 4i vs 6j, delta 2: gcd 2 divides 2: may depend *)
  check_verdict "gcd passes" (Test.dep None)
    (Test.affine ~c1:4 ~c2:6 ~delta:2 ~trip:(Some 100))

let banerjee_bounds () =
  (* 4i vs 4j+delta with tiny trip: delta outside reachable range *)
  check_verdict "out of range" Test.Independent
    (Test.affine ~c1:4 ~c2:8 ~delta:1000 ~trip:(Some 4));
  check_verdict "in range" (Test.dep None)
    (Test.affine ~c1:4 ~c2:8 ~delta:12 ~trip:(Some 10))

(* brute force: does c1*i = delta + c2*j have a solution with
   0 <= i, j < trip? *)
let brute_force ~c1 ~c2 ~delta ~trip =
  let found = ref false in
  for i = 0 to trip - 1 do
    for j = 0 to trip - 1 do
      if (c1 * i) - (c2 * j) = delta then found := true
    done
  done;
  !found

let soundness_prop =
  let gen =
    QCheck.Gen.(
      map
        (fun (c1, c2, delta, trip) -> (c1, c2, delta, trip))
        (quad (int_range (-8) 8) (int_range (-8) 8) (int_range (-40) 40)
           (int_range 1 12)))
  in
  QCheck.Test.make ~count:500
    ~name:"dependence test is sound vs brute force"
    (QCheck.make gen ~print:(fun (c1, c2, d, t) ->
         Printf.sprintf "c1=%d c2=%d delta=%d trip=%d" c1 c2 d t))
    (fun (c1, c2, delta, trip) ->
      let verdict = Test.affine ~c1 ~c2 ~delta ~trip:(Some trip) in
      let actual = brute_force ~c1 ~c2 ~delta ~trip in
      match verdict with
      | Test.Independent -> not actual  (* must never miss a conflict *)
      | Test.Dependent _ -> true)

let strong_siv_exact_prop =
  (* for equal strides the reported distance must be exactly right *)
  let gen =
    QCheck.Gen.(
      map
        (fun (c, d, trip) -> (c, d, trip))
        (triple (int_range 1 8) (int_range (-30) 30) (int_range 2 12)))
  in
  QCheck.Test.make ~count:300 ~name:"strong SIV distance is exact"
    (QCheck.make gen ~print:(fun (c, d, t) ->
         Printf.sprintf "c=%d delta=%d trip=%d" c d t))
    (fun (c, delta, trip) ->
      match Test.affine ~c1:c ~c2:c ~delta ~trip:(Some trip) with
      | Test.Dependent { distance = Some d; _ } ->
          delta mod c = 0 && d = -(delta / c) && abs d < trip
      | Test.Dependent { distance = None; _ } -> false
      | Test.Independent -> delta mod c <> 0 || abs (delta / c) >= trip)

let alias_rules () =
  let open Vpc.Il in
  let arr v ty = Var.make ~id:v ~name:(Printf.sprintf "a%d" v) ~ty () in
  let a = arr 1 (Ty.Array (Ty.Float, Some 10)) in
  let b = arr 2 (Ty.Array (Ty.Float, Some 10)) in
  let p = Var.make ~id:3 ~name:"p" ~ty:(Ty.Ptr Ty.Float) () in
  let q = Var.make ~id:4 ~name:"q" ~ty:(Ty.Ptr Ty.Float) () in
  let addr v = Expr.addr_of v in
  let plus e n = Expr.binop Expr.Add e (Expr.int_const n) e.Expr.ty in
  Alcotest.(check bool) "distinct arrays" true
    (Alias.bases (addr a) (addr b) = Alias.No_alias);
  Alcotest.(check bool) "same array offset" true
    (Alias.bases (addr a) (plus (addr a) 4) = Alias.Must_alias 4);
  Alcotest.(check bool) "two pointers may alias" true
    (Alias.bases (Expr.var p) (Expr.var q) = Alias.May_alias);
  Alcotest.(check bool) "noalias option separates them" true
    (Alias.bases ~assume_noalias:true (Expr.var p) (Expr.var q)
     = Alias.No_alias);
  Alcotest.(check bool) "same pointer must-aliases" true
    (Alias.bases (Expr.var p) (plus (Expr.var p) 8) = Alias.Must_alias 8);
  Alcotest.(check bool) "pointer vs array may alias" true
    (Alias.bases (Expr.var p) (addr a) = Alias.May_alias)

let alias_variant_pointer () =
  (* a pointer redefined inside the analyzed loop has no single value:
     [p] vs [p + 8] must-alias at distance 8 only while p is invariant;
     with p marked variant the canonical root is gone and the verdict
     must fall back to may-alias (a bumped pointer's two occurrences can
     be any distance apart across iterations) *)
  let open Vpc.Il in
  let p = Var.make ~id:3 ~name:"p" ~ty:(Ty.Ptr Ty.Float) () in
  let plus e n = Expr.binop Expr.Add e (Expr.int_const n) e.Expr.ty in
  let variant v = v = 3 in
  Alcotest.(check bool) "invariant pointer must-aliases" true
    (Alias.bases (Expr.var p) (plus (Expr.var p) 8) = Alias.Must_alias 8);
  Alcotest.(check bool) "bumped pointer falls to may-alias" true
    (Alias.bases ~variant (Expr.var p) (plus (Expr.var p) 8)
     = Alias.May_alias);
  Alcotest.(check bool) "variant root does not canonicalize" true
    (Alias.canonicalize ~variant (Expr.var p) = None);
  (* even the assume_noalias escape hatch must not claim a distance *)
  Alcotest.(check bool) "noalias does not resurrect the distance" true
    (Alias.bases ~assume_noalias:true ~variant (Expr.var p)
       (plus (Expr.var p) 8)
    <> Alias.Must_alias 8)

let alias_canonical_edges () =
  let open Vpc.Il in
  let a = Var.make ~id:1 ~name:"a" ~ty:(Ty.Array (Ty.Float, Some 10)) () in
  let k = Var.make ~id:5 ~name:"k" ~ty:Ty.Int () in
  let j = Var.make ~id:6 ~name:"j" ~ty:Ty.Int () in
  let addr v = Expr.addr_of v in
  let plus e n = Expr.binop Expr.Add e (Expr.int_const n) e.Expr.ty in
  let add e1 e2 = Expr.binop Expr.Add e1 e2 e1.Expr.ty in
  let scaled v n =
    Expr.binop Expr.Mul (Expr.int_const n) (Expr.var v) Ty.Int
  in
  (* negative constant offsets: &a - 8 sits 8 bytes before &a *)
  Alcotest.(check bool) "negative offset distance" true
    (Alias.bases (plus (addr a) (-8)) (addr a) = Alias.Must_alias 8);
  Alcotest.(check bool) "negative vs positive offset" true
    (Alias.bases (plus (addr a) (-4)) (plus (addr a) 4) = Alias.Must_alias 8);
  (* nested field chains fold: (&a + 8) + 4 is &a + 12 *)
  Alcotest.(check bool) "nested constant chain folds" true
    (Alias.bases (plus (plus (addr a) 8) 4) (plus (addr a) 12)
     = Alias.Must_alias 0);
  Alcotest.(check bool) "nested chain distance" true
    (Alias.bases (plus (plus (addr a) 8) 4) (plus (addr a) 20)
     = Alias.Must_alias 8);
  (* symbolic addends differing only by commutativity canonicalize
     equal: &a + 4k + 8j vs &a + 8j + 4k *)
  let e1 = add (add (addr a) (scaled k 4)) (scaled j 8) in
  let e2 = add (add (addr a) (scaled j 8)) (scaled k 4) in
  Alcotest.(check bool) "commuted symbolic addends" true
    (Alias.bases e1 e2 = Alias.Must_alias 0);
  let e3 = add (add (plus (addr a) 16) (scaled k 4)) (scaled j 8) in
  let e4 = add (add (addr a) (scaled j 8)) (scaled k 4) in
  Alcotest.(check bool) "commuted symbolic addends with offset" true
    (Alias.bases e3 e4 = Alias.Must_alias (-16));
  (* different symbolic addends stay may-alias *)
  let e5 = add (addr a) (scaled k 4) in
  let e6 = add (addr a) (scaled j 4) in
  Alcotest.(check bool) "different symbols undecided" true
    (Alias.bases e5 e6 = Alias.May_alias)

let subscript_extraction () =
  (* *(base + 4*i) and explicit a[i] decompose identically *)
  let src =
    {|float a[100];
      void f(float *p, int n) {
        int i;
        for (i = 0; i < n; i++)
          a[i + 2] = p[2 * i];
      }|}
  in
  let prog =
    Helpers.compile ~options:{ Vpc.o1 with Vpc.off = [ `Strength_reduction ] } src
  in
  let f = Vpc.Il.Prog.func_exn prog "f" in
  let found = ref [] in
  Vpc.Il.Stmt.iter_list
    (fun s ->
      match s.Vpc.Il.Stmt.desc with
      | Vpc.Il.Stmt.Do_loop d ->
          let invariant e =
            Vpc.Il.Expr.read_vars e = []
            || List.for_all (fun v -> v <> d.index) (Vpc.Il.Expr.read_vars e)
          in
          (match Subscript.references ~index:d.index ~invariant d.body with
          | Some refs ->
              found :=
                List.filter_map (fun r -> r.Subscript.affine) refs @ !found
          | None -> ())
      | _ -> ())
    f.Vpc.Il.Func.body;
  let coeffs = List.sort compare (List.map (fun a -> a.Subscript.coeff) !found) in
  Alcotest.(check (list int)) "byte strides" [ 4; 8 ] coeffs

let graph_backsolve_carried () =
  (* the §6 loop has a carried flow dependence of distance 1 *)
  let src =
    {|float x[101], y[100], z[100];
      void backsolve(int n) {
        float *p, *q;
        int i;
        p = &x[1];
        q = &x[0];
        for (i = 0; i < n - 2; i++)
          p[i] = z[i] * (y[i] - q[i]);
      }|}
  in
  let prog =
    Helpers.compile
      ~options:{ Vpc.o1 with Vpc.off = [ `Strength_reduction ] }
      src
  in
  let f = Vpc.Il.Prog.func_exn prog "backsolve" in
  let carried = ref [] in
  Vpc.Il.Stmt.iter_list
    (fun s ->
      match s.Vpc.Il.Stmt.desc with
      | Vpc.Il.Stmt.Do_loop d ->
          let defined, mem_written =
            Vpc.Analysis.Reaching.vars_defined_in d.body
          in
          let invariant e =
            ((not (Vpc.Il.Expr.contains_load e)) || not mem_written)
            && List.for_all
                 (fun v -> v <> d.index && not (Hashtbl.mem defined v))
                 (Vpc.Il.Expr.read_vars e)
          in
          let g = Graph.build ~trip:None d.body ~index:d.index ~invariant in
          carried := Graph.carried_edges g @ !carried
      | _ -> ())
    f.Vpc.Il.Func.body;
  Alcotest.(check bool) "has a carried distance-1 flow" true
    (List.exists
       (fun (e : Graph.edge) ->
         e.kind = Graph.Flow && e.distance = Some 1)
       !carried)

(* ---- direction vectors (nest-level dependence, §7) ---- *)

let show_dirs vectors =
  String.concat ","
    (List.map
       (fun v ->
         "("
         ^ String.concat ""
             (List.map
                (function Test.Lt -> "<" | Test.Eq -> "=" | Test.Gt -> ">")
                v)
         ^ ")")
       vectors)

let check_dirs name expected vectors =
  Alcotest.(check string) name expected (show_dirs vectors)

(* A 16x16 nest over an array with 1024-byte rows and 8-byte elements:
   the row stride dwarfs any in-row distance (8 * 15 = 120 bytes), so
   each case below has exactly the vectors listed. *)
let direction_vector_cases () =
  let dv = Test.direction_vectors ~c1:[| 1024; 8 |] ~c2:[| 1024; 8 |] in
  let t16 = [| Some 16; Some 16 |] in
  (* a[i][j] = a[i-1][j]: flow carried by the outer level.  The
     per-level interval sum cannot see that the outer contribution must
     be a whole row, so the sound over-approximation also keeps (<,>) —
     what matters for legality is that no spurious leading-> appears and
     the true (<,=) is never dropped *)
  check_dirs "outer-carried flow" "(<=),(<>)" (dv ~delta:(-1024) ~trips:t16);
  (* a[i][j] = a[i+1][j]: the same pair read top-down; the raw > leader
     means the edge runs the other way *)
  check_dirs "reversed edge" "(><),(>=)" (dv ~delta:1024 ~trips:t16);
  (* a[i][j] = a[i][j]: loop-independent *)
  check_dirs "loop-independent" "(==)" (dv ~delta:0 ~trips:t16);
  (* a[i][j] = a[i][j-1]: inner-carried only *)
  check_dirs "inner-carried" "(=<)" (dv ~delta:(-8) ~trips:t16);
  (* a[i][j] = a[i-1][j+1]: exactly the (<,>) vector that forbids
     interchange, and nothing else *)
  check_dirs "interchange blocker" "(<>)" (dv ~delta:(-1016) ~trips:t16);
  (* even coefficients cannot bridge an odd distance (GCD) *)
  check_dirs "gcd filters all" "" (dv ~delta:3 ~trips:t16);
  (* single level: a distance of 32 elements needs 32 iterations; with
     16 the trip bound leaves nothing *)
  check_dirs "trip bound kills"
    ""
    (Test.direction_vectors ~c1:[| 8 |] ~c2:[| 8 |] ~delta:(-256)
       ~trips:[| Some 16 |]);
  (* unknown outer trip: the outer-carried solution survives *)
  check_dirs "unknown outer trip" "(<=),(<>)"
    (dv ~delta:(-1024) ~trips:[| None; Some 16 |])

let direction_vector_depth3 () =
  (* a[i][j][k] = a[i][j-1][k+1] in an 8x8x8 nest: carried at the middle
     level with an opposing inner direction *)
  check_dirs "3-level (=,<,>)" "(=<>)"
    (Test.direction_vectors
       ~c1:[| 65536; 1024; 8 |]
       ~c2:[| 65536; 1024; 8 |]
       ~delta:(-1016)
       ~trips:[| Some 8; Some 8; Some 8 |]);
  (* all-= at depth 3 *)
  check_dirs "3-level independent" "(===)"
    (Test.direction_vectors
       ~c1:[| 65536; 1024; 8 |]
       ~c2:[| 65536; 1024; 8 |]
       ~delta:0
       ~trips:[| Some 8; Some 8; Some 8 |])

(* Nest.analyze on real IL: the interchange blocker's edge carries the
   normalized (<,>) vector. *)
let nest_edge_extraction () =
  let src =
    {|double s[129][6];
      int main() {
        int i, j;
        for (i = 1; i < 128; i = i + 1)
          for (j = 0; j < 5; j = j + 1)
            s[i][j] = s[i-1][j+1] + 1.0;
        return 0;
      }|}
  in
  let prog =
    Helpers.compile
      ~options:{ Vpc.o1 with Vpc.off = [ `Strength_reduction ] }
      src
  in
  let f = Vpc.Il.Prog.func_exn prog "main" in
  let nests = ref [] in
  Vpc.Il.Stmt.iter_list
    (fun s ->
      match s.Vpc.Il.Stmt.desc with
      | Vpc.Il.Stmt.Do_loop _ -> (
          match Nest.analyze ~prog ~func:f s with
          | Some n -> nests := n :: !nests
          | None -> ())
      | _ -> ())
    f.Vpc.Il.Func.body;
  match !nests with
  | [ n ] ->
      Alcotest.(check int) "depth" 2 (Nest.depth n);
      Alcotest.(check bool) "has (<,>) edge" true
        (List.exists
           (fun (e : Nest.edge) -> e.dirs = [ Test.Lt; Test.Gt ])
           n.Nest.edges);
      Alcotest.(check bool) "identity legal" true
        (Nest.legal_permutation [| 0; 1 |] n);
      Alcotest.(check bool) "swap illegal" false
        (Nest.legal_permutation [| 1; 0 |] n)
  | l -> Alcotest.failf "expected exactly one analyzable nest, got %d"
           (List.length l)

let tests =
  [
    Alcotest.test_case "ZIV" `Quick ziv_tests;
    Alcotest.test_case "strong SIV" `Quick strong_siv;
    Alcotest.test_case "weak-zero SIV" `Quick weak_zero_siv_cases;
    Alcotest.test_case "GCD test" `Quick gcd_test_cases;
    Alcotest.test_case "Banerjee bounds" `Quick banerjee_bounds;
    QCheck_alcotest.to_alcotest soundness_prop;
    QCheck_alcotest.to_alcotest strong_siv_exact_prop;
    Alcotest.test_case "alias rules" `Quick alias_rules;
    Alcotest.test_case "alias: pointer bumped in loop" `Quick
      alias_variant_pointer;
    Alcotest.test_case "alias: canonicalize edge cases" `Quick
      alias_canonical_edges;
    Alcotest.test_case "subscript extraction" `Quick subscript_extraction;
    Alcotest.test_case "backsolve carried dep (§6)" `Quick graph_backsolve_carried;
    Alcotest.test_case "direction vectors" `Quick direction_vector_cases;
    Alcotest.test_case "direction vectors depth 3" `Quick direction_vector_depth3;
    Alcotest.test_case "nest edge extraction" `Quick nest_edge_extraction;
  ]
