(* The titancc benchmark: one workload per process.

     dune exec perf/main.exe -- --workload kernels --seed 1
     dune exec perf/main.exe -- --workload serve --seed 1 --trace 1
     dune exec perf/main.exe -- --workload stress --seed 2 --repeat 5
     dune exec perf/main.exe -- --workload kernels --dump-corpus DIR

   Prints every metric as [name value unit]; the last line of standard
   output is one JSON object with [correct], [attempted], [failed] and
   [metrics] -- the end-to-end metrics, or with [--trace 1] the
   per-layer ones.  perf/README.md describes the metrics and workloads. *)

open Vpc_perf

let usage =
  "main.exe --workload (kernels|stress|serve|tune) [--seed N] [--seconds N] \
   [--trace 0|1] [--json OUT] [--spans FILE] [--repeat N [--vary-seed]] \
   [--dump-corpus DIR] [--quick]"

let workload = ref ""
let seed = ref 1
let seconds = ref 15
let trace = ref 0
let json_out = ref ""
let spans_out = ref ""
let repeat = ref 0
let vary_seed = ref false
let dump_dir = ref ""
let quick = ref false

let specs =
  [
    ("--workload", Arg.Set_string workload, "W one of kernels, stress, serve, tune");
    ("--seed", Arg.Set_int seed, "N seed for every generated input (default 1)");
    ("--seconds", Arg.Set_int seconds, "N timed-phase budget in seconds (default 15)");
    ("--trace", Arg.Set_int trace, "0|1 1: traced run, report per-layer metrics");
    ("--json", Arg.Set_string json_out, "OUT also write metrics and per-program rows");
    ("--spans", Arg.Set_string spans_out, "FILE where a traced run writes its spans");
    ("--repeat", Arg.Set_int repeat, "N run N times, each in its own process, and summarize");
    ("--vary-seed", Arg.Set vary_seed, " with --repeat: seeds N, N+1, ...");
    ("--dump-corpus", Arg.Set_string dump_dir, "DIR write the workload's programs as DIR/*.c and exit");
    ("--quick", Arg.Set quick, " a few small requests (smoke test)");
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt

let metric_json (ms : Bench.metric list) =
  Json.Obj
    (List.map
       (fun (m : Bench.metric) ->
         (m.Bench.name, Json.Obj [ ("value", Json.Num m.Bench.value); ("unit", Json.Str m.Bench.unit_) ]))
       ms)

let print_metrics (ms : Bench.metric list) =
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "%-34s %s %s\n" m.Bench.name (Json.num_to_string m.Bench.value) m.Bench.unit_)
    ms

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path text =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let run_once () =
  let traced = !trace = 1 in
  let o =
    Bench.run ~quick:!quick ~workload:!workload ~seed:!seed
      ~seconds:(if !quick then 0.0 else float_of_int !seconds)
      ~trace:traced ()
  in
  Printf.printf "# %s seed %d%s: %d timed requests in %d passes, %d beyond p90; %d of %d attempts failed\n"
    !workload !seed (if traced then " traced" else "") o.Bench.requests o.Bench.passes
    (Stats.beyond 90.0 o.Bench.requests) o.Bench.failed o.Bench.attempted;
  let shown = if traced then o.Bench.layers else o.Bench.e2e in
  if traced then begin
    Printf.printf "# self time per span name: total ms, spans\n";
    List.iter
      (fun (name, ms, n) -> Printf.printf "#   %-22s %12.3f %7d\n" name ms n)
      o.Bench.self_times;
    let path =
      if !spans_out <> "" then !spans_out
      else Printf.sprintf "perf-out/spans-%s-%d.jsonl" !workload !seed
    in
    Option.iter
      (fun t ->
        write_file path (Trace.to_jsonl t);
        Printf.printf "# spans written to %s\n" path)
      o.Bench.trace
  end;
  print_metrics shown;
  if !json_out <> "" then
    write_file !json_out
      (Json.to_string
         (Json.Obj
            [
              ("workload", Json.Str !workload);
              ("seed", Json.Num (float_of_int !seed));
              ("metrics", metric_json (o.Bench.e2e @ o.Bench.layers));
              ("rows", Json.Arr o.Bench.rows);
            ])
      ^ "\n");
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.Bench.failed = 0));
            ("attempted", Json.Num (float_of_int o.Bench.attempted));
            ("failed", Json.Num (float_of_int o.Bench.failed));
            ("metrics", metric_json shown);
          ]))

(* One child run: its result line, parsed. *)
let child_result s =
  let args =
    [ "--workload"; !workload; "--seed"; string_of_int s; "--seconds"; string_of_int !seconds;
      "--trace"; string_of_int !trace ]
    @ if !quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let last = ref "" in
  (try
     while true do
       let l = input_line ic in
       print_endline l;
       if String.trim l <> "" then last := l
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Json.of_string !last
  | _ -> die "run with seed %d failed" s

(* Per-metric spread over [--repeat] runs, flagged against the bounds in
   BENCHMARK.json: a spread (interquartile range over median) above the
   bound, or any variation in a metric whose bound marks it exact. *)
let summarize results =
  let bounds =
    if Sys.file_exists "BENCHMARK.json" then
      let ic = open_in_bin "BENCHMARK.json" in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.map
        (fun e -> (Json.to_str (Json.member "name" e), Json.to_num (Json.member "bound" e)))
        (Json.to_list (Json.member "end_to_end" (Json.of_string text)))
    else []
  in
  let names =
    match results with
    | r :: _ -> (match Json.member "metrics" r with Json.Obj kvs -> List.map fst kvs | _ -> [])
    | [] -> []
  in
  Printf.printf "\n# %s, %d runs%s\n" !workload (List.length results)
    (if !vary_seed then Printf.sprintf ", seeds %d..%d" !seed (!seed + !repeat - 1) else "");
  Printf.printf "%-34s %14s %14s %14s %14s %14s %8s %7s\n" "metric" "min" "q1" "median" "q3" "max"
    "spread" "bound";
  let flagged = ref 0 in
  List.iter
    (fun name ->
      let vs =
        List.map (fun r -> Json.to_num (Json.member "value" (Json.member name (Json.member "metrics" r)))) results
      in
      let q1, med, q3 = Stats.quartiles vs in
      let lo = List.fold_left Float.min infinity vs and hi = List.fold_left Float.max neg_infinity vs in
      let spread = if med <> 0.0 then (q3 -. q1) /. Float.abs med else 0.0 in
      let bound = List.assoc_opt name bounds in
      let flag =
        match bound with
        | Some b when b <= 0.001 && lo <> hi -> "  NOT EXACT"
        | Some b when name <> "setup_s" && spread > b -> "  SPREAD > BOUND"
        | Some b when name <> "setup_s" && spread > b /. 3.0 -> "  spread > bound/3"
        | _ -> ""
      in
      if flag <> "" && flag <> "  spread > bound/3" then incr flagged;
      Printf.printf "%-34s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %7s%s\n" name lo q1 med q3 hi spread
        (match bound with Some b -> Printf.sprintf "%g" b | None -> "-")
        flag)
    names;
  if !flagged > 0 then Printf.printf "# %d metric(s) flagged\n" !flagged

let () =
  Arg.parse specs (fun a -> die "unexpected argument %s" a) usage;
  if not (List.mem !workload Bench.workloads) then die "--workload is required: %s" usage;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !dump_dir <> "" then begin
    List.iter
      (fun (p : Gen.program) -> write_file (Filename.concat !dump_dir (p.Gen.name ^ ".c")) p.Gen.src)
      (Bench.corpus !workload ~seed:!seed);
    Printf.printf "# %s seed %d written to %s\n" !workload !seed !dump_dir
  end
  else if !repeat > 0 then
    summarize (List.init !repeat (fun i -> child_result (if !vary_seed then !seed + i else !seed)))
  else run_once ()
