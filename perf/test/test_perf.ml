(* Tests for the benchmark itself: generators, order statistics, span
   arithmetic, the metric sets against BENCHMARK.json, and a quick
   traced run of every workload. *)

open Vpc_perf

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let srcs (ps : Gen.program list) = List.map (fun (p : Gen.program) -> (p.Gen.name, p.Gen.src)) ps

let units seed =
  List.init 12 (fun i -> Gen.monorepo_src (Gen.monorepo_unit ~seed i))

let corpora seed =
  [
    ("kernels", srcs (Gen.kernels ~seed));
    ("tune", srcs (Gen.tune ~seed));
    ("stress", srcs (Gen.stress ~seed ~units:4));
    ("serve", List.map (fun s -> ("", s)) (units seed));
  ]

let generator_determinism () =
  List.iter2
    (fun (w, a) (_, b) -> if a <> b then Alcotest.failf "%s: seed 7 twice differs" w)
    (corpora 7) (corpora 7);
  List.iter2
    (fun (w, a) (_, b) ->
      if a = b then Alcotest.failf "%s: seeds 7 and 8 give the same corpus" w;
      (* the seed draws values, never the shape: same names, same count *)
      if List.map fst a <> List.map fst b then Alcotest.failf "%s: program set depends on the seed" w)
    (corpora 7) (corpora 8)

let edits_always_miss () =
  let u = Gen.monorepo_unit ~seed:3 0 and r = Gen.rng 3 "t" in
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen (Gen.monorepo_src u) ();
  for _ = 1 to 30 do
    Gen.edit r u;
    let s = Gen.monorepo_src u in
    if Hashtbl.mem seen s then Alcotest.fail "an edit reproduced an earlier version";
    Hashtbl.replace seen s ()
  done

let stress_sizes () =
  let units = Bench.stress_units in
  let n = List.init units (Gen.stress_procs ~units) in
  Alcotest.(check (list int)) "stratified log-uniform over 8..96" [ 10; 17; 28; 46; 75 ] n;
  List.iteri
    (fun t (p : Gen.program) ->
      (* count definitions: one per line opening a procedure body *)
      let defs =
        List.length
          (List.filter
             (fun l ->
               List.exists (fun pre -> String.length l > String.length pre
                 && String.sub l 0 (String.length pre) = pre)
                 [ "float leaf"; "void kern"; "void chain"; "int main" ])
             (String.split_on_char '\n' p.Gen.src))
      in
      Alcotest.(check int) p.Gen.name (List.nth n t) defs)
    (Gen.stress ~seed:1 ~units)

let percentiles () =
  let xs = List.map float_of_int [ 7; 1; 10; 3; 2; 9; 4; 8; 6; 5 ] in
  Alcotest.(check (float 0.0)) "p50" 5.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 0.0)) "p90" 9.0 (Stats.percentile 90.0 xs);
  Alcotest.(check (float 0.0)) "p100" 10.0 (Stats.percentile 100.0 xs);
  Alcotest.(check (float 0.0)) "p1" 1.0 (Stats.percentile 1.0 xs);
  Alcotest.(check (float 0.0)) "median even" 5.5 (Stats.median xs);
  (* a percentile is reported only with ten samples beyond it *)
  Alcotest.(check int) "100 samples" 10 (Stats.beyond 90.0 100);
  Alcotest.(check int) "99 samples" 9 (Stats.beyond 90.0 99);
  Alcotest.(check int) "1000 samples" 100 (Stats.beyond 90.0 1000);
  (* statistics.quantiles(data, n=4) *)
  let q (a, b, c) = [ a; b; c ] in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] (q (Stats.quartiles xs));
  Alcotest.(check (list (float 1e-12))) "two samples" [ 0.0; 3.0; 6.0 ]
    (q (Stats.quartiles [ 5.0; 1.0 ]))

let geomean () =
  Alcotest.(check (float 1e-9)) "1 4 16" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.(check (float 1e-9)) "single" 7.5 (Stats.geomean [ 7.5 ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: x <= 0") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let self_times () =
  let span id parent name t0 t1 =
    { Trace.id; parent; req = 1; name; t0; t1; attrs = [] }
  in
  (* the two children overlap each other, and the last one runs past
     its parent's end: covered time is the clipped union, 1..5 and 8..10 *)
  let spans =
    [
      span 1 None "request" 0.0 10.0;
      span 2 (Some 1) "a" 1.0 3.0;
      span 3 (Some 1) "b" 2.0 5.0;
      span 4 (Some 1) "a" 8.0 12.0;
      span 5 (Some 3) "c" 2.5 3.5;
    ]
  in
  let st = Trace.self_times spans in
  let get n = List.assoc n st in
  Alcotest.(check (float 1e-9)) "request" 4.0 (get "request");
  Alcotest.(check (float 1e-9)) "a" 6.0 (get "a");
  Alcotest.(check (float 1e-9)) "b" 2.0 (get "b");
  Alcotest.(check (float 1e-9)) "c" 1.0 (get "c");
  Alcotest.(check (list string)) "first-seen order" [ "request"; "a"; "b"; "c" ] (List.map fst st)

let spans_nest () =
  let t = Trace.create () in
  let tr = Some t in
  Trace.set_request tr 3;
  Trace.with_span tr "outer" (fun () ->
      Trace.attr tr "k" 2.0;
      Trace.with_span tr "inner" (fun () -> ()));
  match Trace.spans t with
  | [ o; i ] ->
      Alcotest.(check string) "outer first" "outer" o.Trace.name;
      Alcotest.(check (option int)) "parent" (Some o.Trace.id) i.Trace.parent;
      Alcotest.(check int) "request id" 3 i.Trace.req;
      Alcotest.(check (list (pair string (float 0.0)))) "attrs" [ ("k", 2.0) ] o.Trace.attrs
  | _ -> Alcotest.fail "expected two spans"

let json_roundtrip () =
  let v =
    Json.Obj
      [ ("a", Json.Arr [ Json.Num 1.0; Json.Num 0.1; Json.Null ]); ("b\"q", Json.Str "x\ny"); ("c", Json.Bool true) ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check string) "integral" "12" (Json.num_to_string 12.0)

let benchmark = lazy (Json.of_string (read "../../BENCHMARK.json"))

let declared key =
  List.map
    (fun e -> Json.to_str (Json.member "name" e))
    (Json.to_list (Json.member key (Lazy.force benchmark)))

(* every workload, quick and traced: no failures, and exactly the
   metrics BENCHMARK.json declares *)
let smoke w () =
  let o = Bench.run ~quick:true ~workload:w ~seed:1 ~seconds:0.0 ~trace:true () in
  Alcotest.(check int) "failed" 0 o.Bench.failed;
  Alcotest.(check bool) "attempted" true (o.Bench.attempted > 0);
  let names ms = List.map (fun (m : Bench.metric) -> m.Bench.name) ms in
  Alcotest.(check (list string)) "end-to-end metrics" (declared "end_to_end") (names o.Bench.e2e);
  Alcotest.(check (list string)) "per-layer metrics" (declared "per_layer") (names o.Bench.layers);
  List.iter
    (fun (m : Bench.metric) ->
      if not (Float.is_finite m.Bench.value) then Alcotest.failf "%s is not finite" m.Bench.name)
    (o.Bench.e2e @ o.Bench.layers);
  List.iter
    (fun (m : Bench.metric) ->
      if m.Bench.value <= 0.0 then Alcotest.failf "end-to-end %s is not positive" m.Bench.name)
    o.Bench.e2e;
  Alcotest.(check (float 0.0)) "ok_frac" 1.0
    (List.find (fun (m : Bench.metric) -> m.Bench.name = "ok_frac") o.Bench.e2e).Bench.value;
  Alcotest.(check bool) "workload declared" true
    (List.mem w
       (List.map (fun e -> Json.to_str (Json.member "name" e))
          (Json.to_list (Json.member "workloads" (Lazy.force benchmark)))))

(* The dumped corpus compiles under titancc exactly as the benchmark
   compiles it: matmul's example-sized row is the known 1,815,064
   cycles at 4 processors. *)
let matmul_row () =
  let dir = Printf.sprintf "corpus-%d" (Unix.getpid ()) in
  let run cmd = if Sys.command cmd <> 0 then Alcotest.failf "command failed: %s" cmd in
  run (Printf.sprintf "../main.exe --workload kernels --seed 5 --dump-corpus %s > /dev/null" (Filename.quote dir));
  let log = Filename.concat dir "titan.txt" in
  run
    (Printf.sprintf "../../bin/titancc.exe %s -O 3 -p 4 > /dev/null 2> %s"
       (Filename.quote (Filename.concat dir "matmul_ijk_a.c"))
       (Filename.quote log));
  let cli =
    List.find_map
      (fun l -> try Some (Scanf.sscanf l "[titan] cycles=%d " Fun.id) with _ -> None)
      (String.split_on_char '\n' (read log))
  in
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  let p = List.find (fun (p : Gen.program) -> p.Gen.name = "matmul_ijk_a") (Gen.kernels ~seed:5) in
  let prog, _ = Bench.compile None p in
  let r = Bench.simulate None prog 4 in
  Alcotest.(check int) "benchmark" 1815064 r.Vpc.Titan.Machine.metrics.Vpc.Titan.Machine.cycles;
  Alcotest.(check (option int)) "titancc" (Some 1815064) cli

let () =
  Alcotest.run "perf"
    [
      ( "perf",
        [
          Alcotest.test_case "generators are seed-deterministic" `Quick generator_determinism;
          Alcotest.test_case "every monorepo edit is new source" `Quick edits_always_miss;
          Alcotest.test_case "stress procedure counts" `Quick stress_sizes;
          Alcotest.test_case "nearest-rank percentiles and quartiles" `Quick percentiles;
          Alcotest.test_case "geomean" `Quick geomean;
          Alcotest.test_case "span self time" `Quick self_times;
          Alcotest.test_case "span nesting and attributes" `Quick spans_nest;
          Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "matmul row matches titancc" `Quick matmul_row;
        ]
        @ List.map
            (fun w -> Alcotest.test_case ("quick traced run: " ^ w) `Quick (smoke w))
            Bench.workloads );
    ]
