(* Shared test machinery: compilation helpers, differential execution
   between the IL interpreter and the Titan simulator across optimization
   levels, and a random C program generator for property tests. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Compare [rows] with the non-comment lines of the golden table at
   [path].  On a mismatch the computed table, under [path]'s own header
   comments, is written to [actual] in the working directory and the test
   fails listing the rows that differ. *)
let check_golden ~path ~actual rows =
  let lines = String.split_on_char '\n' (read_file path) in
  let header = List.filter (fun l -> l <> "" && l.[0] = '#') lines in
  let expected = List.filter (fun l -> l <> "" && l.[0] <> '#') lines in
  if rows <> expected then begin
    Out_channel.with_open_bin actual (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) (header @ rows));
    let mismatches =
      if List.length expected <> List.length rows then []
      else
        List.filter_map
          (fun (e, a) ->
            if e = a then None
            else Some (Printf.sprintf "expected %s\ncomputed %s" e a))
          (List.combine expected rows)
    in
    Alcotest.failf "%s: %d rows expected, %d computed\n%s\ncomputed table written to %s"
      path (List.length expected) (List.length rows)
      (String.concat "\n" mismatches)
      (Filename.concat (Sys.getcwd ()) actual)
  end

let compile ?(options = Vpc.o0) src : Vpc.Il.Prog.t =
  fst (Vpc.compile ~options src)

let compile_stats ?(options = Vpc.o0) src = Vpc.compile ~options src

let interp_output ?entry prog =
  (Vpc.run_interp ?entry prog).Vpc.Il.Interp.stdout_text

let titan_output ?config prog =
  (Vpc.run_titan ?config prog).Vpc.Titan.Machine.stdout_text

(* Compile [src] at every level and run on the interpreter and the Titan
   simulator in several configurations; all outputs must equal the O0
   interpreter output. *)
let all_levels = [ ("O0", Vpc.o0); ("O1", Vpc.o1); ("O2", Vpc.o2); ("O3", Vpc.o3) ]

let assert_all_configs_agree ?(levels = all_levels) name src =
  let reference = interp_output (compile ~options:Vpc.o0 src) in
  List.iter
    (fun (lname, options) ->
      let prog = compile ~options src in
      let i_out = interp_output prog in
      Alcotest.(check string)
        (Printf.sprintf "%s: interp at %s" name lname)
        reference i_out;
      List.iter
        (fun (cname, config) ->
          let t_out = titan_output ~config prog in
          Alcotest.(check string)
            (Printf.sprintf "%s: titan %s at %s" name cname lname)
            reference t_out)
        [
          ("seq", { Vpc.Titan.Machine.default_config with sched = Vpc.Titan.Machine.Sequential });
          ("cons", { Vpc.Titan.Machine.default_config with sched = Vpc.Titan.Machine.Overlap_conservative });
          ("full1", Vpc.Titan.Machine.default_config);
          ("full4", { Vpc.Titan.Machine.default_config with procs = 4 });
        ])
    levels

(* IL text of one function after compiling at [options]. *)
let func_il ?(options = Vpc.o0) src fname =
  let prog = compile ~options src in
  Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog fname)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains name ~needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: expected to find %S in:\n%s" name needle haystack

let check_not_contains name ~needle haystack =
  if contains ~needle haystack then
    Alcotest.failf "%s: did not expect %S in:\n%s" name needle haystack

(* ----------------------------------------------------------------- *)
(* Random C program generation (for differential property tests)     *)
(* ----------------------------------------------------------------- *)

(* Programs over two global float arrays and two int arrays, with nested
   counted loops, conditionals, scalar temporaries, side-effecting
   operators, and a deterministic checksum print at the end.  Division is
   avoided; int arithmetic wraps identically everywhere. *)
module Gen_c = struct
  type rng = { mutable seed : int }

  let next r =
    (* xorshift *)
    let x = r.seed in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    let x = x land 0x3FFFFFFFFFFF in
    r.seed <- (if x = 0 then 88172645463325252 else x);
    x

  let range r n = if n <= 0 then 0 else next r mod n

  let pick r l = List.nth l (range r (List.length l))

  let arr_len = 64

  (* an int expression in terms of loop var [i] and int scalars *)
  let rec int_expr r depth vars =
    if depth <= 0 || range r 3 = 0 then
      pick r
        ([ string_of_int (range r 20); "1"; "2" ]
        @ vars
        @ List.concat_map (fun v -> [ v ]) vars)
    else
      let a = int_expr r (depth - 1) vars in
      let b = int_expr r (depth - 1) vars in
      match range r 6 with
      | 0 -> Printf.sprintf "(%s + %s)" a b
      | 1 -> Printf.sprintf "(%s - %s)" a b
      | 2 -> Printf.sprintf "(%s * %s)" a b
      | 3 -> Printf.sprintf "(%s & 15)" a
      | 4 -> Printf.sprintf "(%s < %s)" a b
      | _ -> Printf.sprintf "(%s ^ %s)" a b

  let idx_expr r vars =
    (* an in-bounds index expression *)
    match range r 4 with
    | 0 -> pick r vars
    | 1 -> Printf.sprintf "(%s + %d) & 63" (pick r vars) (range r 8)
    | 2 -> Printf.sprintf "63 - %s" (pick r vars)
    | _ -> Printf.sprintf "(%s * 3) & 63" (pick r vars)

  let rec float_expr r depth ivars =
    if depth <= 0 || range r 3 = 0 then
      match range r 4 with
      | 0 -> Printf.sprintf "fa[%s]" (idx_expr r ivars)
      | 1 -> Printf.sprintf "fb[%s]" (idx_expr r ivars)
      | 2 -> Printf.sprintf "%d.5f" (range r 10)
      | _ -> Printf.sprintf "(float)%s" (pick r ivars)
    else
      let a = float_expr r (depth - 1) ivars in
      let b = float_expr r (depth - 1) ivars in
      match range r 3 with
      | 0 -> Printf.sprintf "(%s + %s)" a b
      | 1 -> Printf.sprintf "(%s - %s)" a b
      | _ -> Printf.sprintf "(%s * %s)" a b

  let stmt r ivars buf indent =
    let pad = String.make indent ' ' in
    match range r 8 with
    | 0 | 1 ->
        Buffer.add_string buf
          (Printf.sprintf "%sfa[%s] = %s;\n" pad (idx_expr r ivars)
             (float_expr r 2 ivars))
    | 2 ->
        Buffer.add_string buf
          (Printf.sprintf "%sfb[%s] = %s;\n" pad (idx_expr r ivars)
             (float_expr r 2 ivars))
    | 3 ->
        Buffer.add_string buf
          (Printf.sprintf "%sia[%s] = %s;\n" pad (idx_expr r ivars)
             (int_expr r 2 ivars))
    | 4 ->
        Buffer.add_string buf
          (Printf.sprintf "%st%d = %s;\n" pad (range r 3) (int_expr r 2 ivars))
    | 5 ->
        Buffer.add_string buf
          (Printf.sprintf "%sfa[%s] += %s;\n" pad (idx_expr r ivars)
             (float_expr r 1 ivars))
    | 6 ->
        Buffer.add_string buf
          (Printf.sprintf "%sif (%s) { fb[%s] = %s; }\n" pad
             (int_expr r 1 ivars) (idx_expr r ivars) (float_expr r 1 ivars))
    | _ ->
        Buffer.add_string buf
          (Printf.sprintf "%sia[%s] ^= %s;\n" pad (idx_expr r ivars)
             (int_expr r 1 ivars))

  let loop r ivars buf indent ~depth =
    let pad = String.make indent ' ' in
    let iv = Printf.sprintf "i%d" depth in
    let n = 8 + range r 56 in
    let style = range r 3 in
    (match style with
    | 0 ->
        Buffer.add_string buf
          (Printf.sprintf "%sfor (%s = 0; %s < %d; %s++) {\n" pad iv iv n iv)
    | 1 ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s = %d;\n%swhile (%s) {\n" pad iv n pad iv)
    | _ ->
        Buffer.add_string buf
          (Printf.sprintf "%sfor (%s = %d; %s > 0; %s -= 1) {\n" pad iv n iv iv));
    let ivars = iv :: ivars in
    let body_stmts = 1 + range r 4 in
    for _ = 1 to body_stmts do
      stmt r ivars buf (indent + 2)
    done;
    if style = 1 then
      Buffer.add_string buf (Printf.sprintf "%s  %s--;\n" pad iv);
    Buffer.add_string buf (Printf.sprintf "%s}\n" pad)

  let program seed =
    let r = { seed = (seed * 2654435761) lor 1 } in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "float fa[%d], fb[%d];\nint ia[%d];\nint t0, t1, t2;\n\nint main()\n{\n  int i0, i1, i2, k;\n"
         arr_len arr_len arr_len);
    Buffer.add_string buf
      "  for (k = 0; k < 64; k++) { fa[k] = k * 0.25f; fb[k] = 64 - k; ia[k] = k * 7; }\n";
    let nloops = 1 + range r 3 in
    for li = 0 to nloops - 1 do
      let nested = range r 2 = 0 && li < 2 in
      if nested then begin
        let pad = "  " in
        let iv = "i0" in
        let n = 4 + range r 12 in
        Buffer.add_string buf
          (Printf.sprintf "%sfor (%s = 0; %s < %d; %s++) {\n" pad iv iv n iv);
        loop r [ iv ] buf 4 ~depth:1;
        Buffer.add_string buf (Printf.sprintf "%s}\n" pad)
      end
      else loop r [] buf 2 ~depth:0
    done;
    (* deterministic checksums *)
    Buffer.add_string buf
      "  {\n\
      \    float fs; int is;\n\
      \    fs = 0; is = 0;\n\
      \    for (k = 0; k < 64; k++) { fs += fa[k] + fb[k]; is += ia[k]; }\n\
      \    printf(\"%g %d %d %d %d\\n\", fs, is, t0, t1, t2);\n\
      \  }\n\
      \  return 0;\n\
       }\n";
    Buffer.contents buf
end
