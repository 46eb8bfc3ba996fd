(* The switch table ({!Vpc.switches}) and the ablation matrix derived
   from it.

   The table fixes what each -O level turns on and what the tune scout
   compile keeps; both are pinned here as they were before the table
   replaced the hand-written option records.

   The matrix turns each switch with an off flag off, one at a time, on
   every example at -O2 and -O3.  Each compile must verify after every
   stage, and the simulated output at one and at four processors must
   equal the default's.  Where a switch only refines facts (points-to,
   ranges) it must never cost cycles at -O2; the doacross-sync and
   vreuse flags must leave no trace of their pass in the emitted code. *)

let names options =
  List.filter_map
    (fun (r : Vpc.switch_row) ->
      if Vpc.enabled options r.Vpc.switch then Some r.Vpc.name else None)
    Vpc.switches
  |> List.sort compare

let check_names what expected options =
  Alcotest.(check (list string)) what (List.sort compare expected)
    (names options)

let o1_set = [ "scalar-opt"; "while-to-do"; "indvar"; "strength-reduction" ]

let o2_set =
  o1_set
  @ [
      "vectorize"; "parallelize"; "scalar-replacement"; "doacross";
      "doacross-sync"; "pointsto"; "range";
    ]

let o3_set = o2_set @ [ "inline"; "interchange"; "fuse"; "vreuse" ]

let levels () =
  check_names "O0" [] Vpc.o0;
  check_names "O1" o1_set Vpc.o1;
  check_names "O2" o2_set Vpc.o2;
  check_names "O3" o3_set Vpc.o3;
  check_names "above O3" o3_set (Vpc.at_level 7);
  check_names "O3 without fuse"
    (List.filter (( <> ) "fuse") o3_set)
    { Vpc.o3 with Vpc.off = [ `Fuse ] };
  (* --inline NAME inlines at any level *)
  check_names "O0 --inline f" [ "inline" ]
    { Vpc.o0 with Vpc.inline_only = [ "f" ] }

let scout () =
  check_names "scout at O3"
    [ "inline"; "pointsto"; "range"; "scalar-opt"; "while-to-do"; "indvar" ]
    (Vpc.scout_options Vpc.o3)

let flags () =
  Alcotest.(check (list string))
    "off flags"
    [
      "no-doacross-sync"; "no-fuse"; "no-interchange"; "no-parallel";
      "no-pointsto"; "no-range"; "no-vectorize"; "no-vreuse";
    ]
    (List.sort compare
       (List.filter_map
          (fun (r : Vpc.switch_row) -> Option.map fst r.Vpc.flag)
          Vpc.switches))

(* ----------------------------------------------------------------- *)
(* the ablation matrix                                               *)
(* ----------------------------------------------------------------- *)

let examples =
  Sys.readdir "../examples" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare

(* busy-waits on a device register without the OCaml device model *)
let compile_only = [ "device_poll.c" ]

type build = { asm : string; stdout : string list; cycles : int }

(* Compile under [options] with the verifier after every stage, render
   the listing [--dump-asm] prints, and simulate at one and at four
   processors; [cycles] is the four-processor count. *)
let build options ex =
  let file = Filename.concat "../examples" ex in
  let options = { options with Vpc.verify = `Each_stage } in
  let prog =
    try fst (Vpc.compile ~options ~file (Helpers.read_file file))
    with Vpc.Check.Verify.Failed diags ->
      Alcotest.failf "%s: verifier rejected the pipeline output:\n%s" ex
        (String.concat "\n" (List.map Vpc.Support.Diag.to_string diags))
  in
  let layout = Vpc.Titan.Machine.layout_globals prog in
  let tprog =
    Vpc.Titan.Codegen.gen_program prog ~global_addr:(fun id ->
        Hashtbl.find layout.Vpc.Titan.Machine.addr_of id)
  in
  let asm =
    Hashtbl.fold (fun name f acc -> (name, f) :: acc)
      tprog.Vpc.Titan.Isa.funcs []
    |> List.sort compare
    |> List.map (fun (_, f) -> Format.asprintf "%a@." Vpc.Titan.Isa.pp_func f)
    |> String.concat ""
  in
  if List.mem ex compile_only then { asm; stdout = []; cycles = 0 }
  else
    let run procs =
      Vpc.run_titan
        ~config:{ Vpc.Titan.Machine.default_config with procs }
        ~vreuse:(Vpc.enabled options `Vreuse) prog
    in
    let r1 = run 1 and r4 = run 4 in
    {
      asm;
      stdout =
        [ r1.Vpc.Titan.Machine.stdout_text; r4.Vpc.Titan.Machine.stdout_text ];
      cycles = r4.Vpc.Titan.Machine.metrics.Vpc.Titan.Machine.cycles;
    }

let defaults = Hashtbl.create 32

let default_build level ex =
  match Hashtbl.find_opt defaults (level, ex) with
  | Some b -> b
  | None ->
      let b = build (Vpc.at_level level) ex in
      Hashtbl.replace defaults (level, ex) b;
      b

let ablate (r : Vpc.switch_row) flag () =
  if examples = [] then Alcotest.failf "no examples in %s" (Sys.getcwd ());
  List.iter
    (fun level ->
      List.iter
        (fun ex ->
          let what = Printf.sprintf "%s -O%d --%s" ex level flag in
          let on = default_build level ex in
          let off =
            build { (Vpc.at_level level) with Vpc.off = [ r.switch ] } ex
          in
          Alcotest.(check (list string))
            (what ^ ": output") on.stdout off.stdout;
          (match r.Vpc.switch with
          | (`Pointsto | `Range) when level = 2 && on.stdout <> [] ->
              if on.cycles > off.cycles then
                Alcotest.failf "%s: %s costs cycles (%d on, %d off)" what
                  r.Vpc.name on.cycles off.cycles
          | `Doacross_sync ->
              List.iter
                (fun needle ->
                  Helpers.check_not_contains what ~needle off.asm)
                [ "da.enter"; "post c"; "wait c" ]
          | `Vreuse ->
              Helpers.check_not_contains what ~needle:"vsaved" off.asm
          | _ -> ()))
        examples)
    [ 2; 3 ]

let tests =
  [
    Alcotest.test_case "levels" `Quick levels;
    Alcotest.test_case "scout subset" `Quick scout;
    Alcotest.test_case "off flags" `Quick flags;
  ]
  @ List.filter_map
      (fun (r : Vpc.switch_row) ->
        Option.map
          (fun (flag, _) ->
            Alcotest.test_case ("ablate --" ^ flag) `Slow (ablate r flag))
          r.Vpc.flag)
      Vpc.switches
