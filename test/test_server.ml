(* The compilation service (lib/server): content-addressed procedure
   cache, invalidation components, the worklist points-to solver, and
   the daemon protocol.

   The load-bearing properties:
   - fingerprints see through representation accidents (comments,
     whitespace, variable-id shifts) but never through meaning;
   - a cache hit reproduces the fresh compiler's output byte for byte;
   - an edit invalidates exactly its component's cone, not the rest of
     the unit;
   - concurrent pipelines produce the sequential results. *)

module S = Vpc_server.Service
module C = Vpc_server.Cache
module F = Vpc_server.Fingerprint
module Cm = Vpc_server.Components
module Il = Vpc.Il
module P = Vpc.Pointsto.Pointsto

let check = Alcotest.check
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let read_example name =
  let ic = open_in_bin (Filename.concat "../examples" name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A unit with a three-level call chain (top -> mid -> leaf over shared
   globals) and an unrelated kernel on its own globals: two
   invalidation components. *)
let chain_src ?(leaf_const = 1) ?(kern_const = 2) ?(comment = "") () =
  Printf.sprintf
    {|%s
static float a[32];
static float b[32];
static float ka[32];
static float kb[32];
float leaf(float x) { return x * %d.0f; }
float mid(float x) { return leaf(x) + 1.0f; }
float top(int n)
{
  int i;
  float s;
  s = 0.0f;
  for (i = 0; i < n; i++) {
    a[i] = mid(b[i]);
    s = s + a[i];
  }
  return s;
}
int kernel(int n)
{
  int i;
  for (i = 0; i < n; i++) ka[i] = kb[i] * %d.0f;
  return n;
}
|}
    comment leaf_const kern_const

let req ?(name = "t.c") ?(opts = S.default_copts) src =
  { S.req_file = name; req_src = src; req_opts = opts }

let keys_of ?(opts = S.default_copts) src =
  let prog = Vpc.parse src in
  S.component_keys prog opts

let key_of_member (k : S.keyed) name =
  let i = Hashtbl.find k.S.k_comps.Cm.comp_of name in
  k.S.k_keys.(i)

(* Fingerprints ----------------------------------------------------------- *)

let test_fp_comment_whitespace () =
  let k1 = keys_of (chain_src ()) in
  let k2 =
    keys_of (chain_src ~comment:"/* a comment */   " ())
  in
  checks "comment/whitespace edit keeps every key" (key_of_member k1 "top")
    (key_of_member k2 "top");
  checks "kernel key too" (key_of_member k1 "kernel")
    (key_of_member k2 "kernel")

(* Editing an early function shifts every later function's raw variable
   ids; fingerprints must not move with them. *)
let test_fp_id_shift () =
  let src extra =
    Printf.sprintf
      {|static float d[16];
float first(float x) { %s return x + 1.0f; }
static float e[16];
float second(int n)
{
  int i;
  for (i = 0; i < n; i++) e[i] = e[i] * 2.0f;
  return e[0];
}
|}
      extra
  in
  let fp_of src name =
    let prog = Vpc.parse src in
    let f = Option.get (Il.Prog.find_func prog name) in
    F.func prog f
  in
  check Alcotest.(neg string) "the edited function's fingerprint moves"
    (fp_of (src "") "first")
    (fp_of (src "float t; t = x; x = t;") "first");
  checks "the shifted-but-unedited function's fingerprint does not"
    (fp_of (src "") "second")
    (fp_of (src "float t; t = x; x = t;") "second")

(* Fingerprints forget representation accidents, never meaning: each
   edit below changes something the optimizer or the printers can see,
   so it must move the digest of the function (or of the globals) it
   touches. *)
let test_fp_separates () =
  let src ?(param = "n") ?(local = "s") ?(local_ty = "float")
      ?(storage = "static ") ?(volatile = "") ?(pragma = "") () =
    Printf.sprintf
      {|%s%sfloat g[16];
float f(int %s)
{
  int i;
  %s %s;
  %s = 0.0f;
%s
  for (i = 0; i < %s; i++) g[i] = g[i] * 2.0f;
  return %s;
}
|}
      storage volatile param local_ty local local pragma param local
  in
  let digests src =
    let prog = Vpc.parse src in
    (F.func prog (Option.get (Il.Prog.find_func prog "f")), F.globals prog)
  in
  let base_f, base_g = digests (src ()) in
  List.iter
    (fun (what, moved, variant) ->
      let f, g = digests variant in
      check Alcotest.(neg string) what
        (if moved = `Func then base_f else base_g)
        (if moved = `Func then f else g))
    [
      ("renaming a local moves the function digest", `Func, src ~local:"t" ());
      ( "renaming a parameter moves the function digest",
        `Func,
        src ~param:"m" () );
      ( "changing a local's type moves the function digest",
        `Func,
        src ~local_ty:"double" () );
      ( "a loop pragma bit moves the function digest",
        `Func,
        src ~pragma:"#pragma vpc independent" () );
      ( "a global's storage class moves the globals digest",
        `Globals,
        src ~storage:"" () );
      ( "a global's volatility moves the globals digest",
        `Globals,
        src ~volatile:"volatile " () );
    ]

(* Digests of the IL serializer's flat output under canonical names
   (params pN, locals lN, globals g!name), recorded when that serializer
   replaced a separate fingerprint renderer.  A change to the
   serializer, the naming or the printer moves a cache key; it must
   come with a [schema_tag] bump and a deliberate re-recording here. *)
let test_fp_pinned () =
  let extra =
    {|struct pt { float x; int n; };
struct pt origin;
int table[4] = { 1, 2, 3, 4 };
float scale = 1.5f;
int main() { origin.n = table[2]; return origin.n + table[1]; }
|}
  in
  let sources =
    List.map
      (fun ex -> (ex, read_example ex))
      [ "graphics.c"; "math_library.c"; "device_poll.c" ]
    @ [ ("extra", extra) ]
  in
  let computed =
    List.concat_map
      (fun (ex, src) ->
        let prog = Vpc.parse ~file:ex src in
        List.map
          (fun (f : Il.Func.t) -> (ex, f.Il.Func.name, F.func prog f))
          prog.Il.Prog.funcs
        @ [ (ex, "globals", F.globals prog); (ex, "structs", F.structs prog) ])
      sources
  in
  check
    Alcotest.(list (triple string string string))
    "digests"
    [
      ("graphics.c", "transform_all", "8021380587a4fd7816668f5c4f2100d7");
      ("graphics.c", "transform_one", "3d2c9632e51fecc0dd751acae8871ec9");
      ("graphics.c", "main", "e3772d657d0fd091e8d2d99c56b9ebc9");
      ("graphics.c", "globals", "24948bb2f4cbd4d0685cfd0cd707613d");
      ("graphics.c", "structs", "bcd8b0c2eb1fce714eab6cef0d771acc");
      ("math_library.c", "lerp", "cf15a0f46e7de9ac29b79f40a6f24c33");
      ("math_library.c", "sq", "3651c38d53ad60b13b21181f4d584058");
      ("math_library.c", "midpoint", "ba7362094a9be3727f8a96ac744d2760");
      ("math_library.c", "main", "9940824018e3aabd7772009a64e4a12c");
      ("math_library.c", "globals", "c5e4b78dde6bb05aacbe6700b018bbe5");
      ("math_library.c", "structs", "bcd8b0c2eb1fce714eab6cef0d771acc");
      ("device_poll.c", "wait_for_key", "11ca1a25c27ffa4bf40a5d958cfd8766");
      ("device_poll.c", "main", "cba621d3741ec5f9d0b63732a891350b");
      ("device_poll.c", "globals", "0f1a1d2adb2899c98d53840a61940992");
      ("device_poll.c", "structs", "bcd8b0c2eb1fce714eab6cef0d771acc");
      ("extra", "main", "f5916a7461d6eaeff79867595f37c3fd");
      ("extra", "globals", "c034b1ddc8e345659d7ede77cf3f3f35");
      ("extra", "structs", "61aaec46a34c812b9188bf4e130b3a78");
    ]
    computed

(* Options ---------------------------------------------------------------- *)

let all_flags =
  List.filter_map
    (fun (r : Vpc.switch_row) -> Option.map fst r.Vpc.flag)
    Vpc.switches

let test_copts_roundtrip () =
  List.iter
    (fun (c : S.copts) ->
      let text = Vpc_support.Sexp.to_string (S.copts_to_sexp c) in
      checkb text true
        (S.copts_of_sexp (Vpc_support.Sexp.of_string text) = c))
    [
      S.default_copts;
      { S.default_copts with S.disabled = List.sort compare all_flags };
      {
        S.opt_level = 2;
        inline_only = [ "f"; "g" ];
        disabled = [ "no-pointsto"; "no-range" ];
        assume_noalias = true;
        vlen = 16;
        catalogs = [ "a.cat"; "b.cat" ];
        profile_use = Some "p.prof";
        tune_use = Some "t.tuned";
      };
    ];
  (* the wire form is canonical: flag order does not reach the key *)
  checks "flag order"
    (Vpc_support.Sexp.to_string
       (S.copts_to_sexp
          { S.default_copts with S.disabled = [ "no-range"; "no-fuse" ] }))
    (Vpc_support.Sexp.to_string
       (S.copts_to_sexp
          { S.default_copts with S.disabled = [ "no-fuse"; "no-range" ] }))

let test_copts_unknown_flag () =
  let bogus = { S.default_copts with S.disabled = [ "no-bogus" ] } in
  let rejected what f =
    match f () with
    | exception Vpc_support.Sexp.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s accepted a malformed option set" what
  in
  rejected "copts_of_sexp" (fun () -> ignore (S.copts_of_sexp (S.copts_to_sexp bogus)));
  rejected "copts_of_sexp vlen 0" (fun () ->
      ignore
        (S.copts_of_sexp
           (S.copts_to_sexp { S.default_copts with S.vlen = 0 })));
  rejected "to_options" (fun () -> ignore (S.to_options bogus))

(* Keys ------------------------------------------------------------------- *)

let test_key_option_flip () =
  let base = keys_of (chain_src ()) in
  let flipped =
    keys_of ~opts:{ S.default_copts with S.vlen = 16 } (chain_src ())
  in
  check Alcotest.(neg string) "vlen flip changes the key"
    (key_of_member base "top") (key_of_member flipped "top");
  let o2 = keys_of ~opts:{ S.default_copts with S.opt_level = 2 } (chain_src ()) in
  check Alcotest.(neg string) "opt level changes the key"
    (key_of_member base "top") (key_of_member o2 "top")

let test_key_invalidation_cone () =
  let base = keys_of (chain_src ()) in
  let edited = keys_of (chain_src ~leaf_const:7 ()) in
  (* the chain is one component: leaf, mid, top share it *)
  let i_top = Hashtbl.find base.S.k_comps.Cm.comp_of "top" in
  let i_leaf = Hashtbl.find base.S.k_comps.Cm.comp_of "leaf" in
  let i_kern = Hashtbl.find base.S.k_comps.Cm.comp_of "kernel" in
  Alcotest.(check int) "leaf and top share a component" i_top i_leaf;
  checkb "kernel is its own component" true (i_kern <> i_top);
  check Alcotest.(neg string) "a leaf edit invalidates the whole chain"
    (key_of_member base "top") (key_of_member edited "top");
  checks "the unrelated kernel survives a leaf edit"
    (key_of_member base "kernel") (key_of_member edited "kernel");
  (* and symmetrically for a kernel edit *)
  let kedit = keys_of (chain_src ~kern_const:9 ()) in
  checks "the chain survives a kernel edit" (key_of_member base "top")
    (key_of_member kedit "top");
  check Alcotest.(neg string) "the kernel edit invalidates the kernel"
    (key_of_member base "kernel") (key_of_member kedit "kernel")

(* A profile keys decisions by source location, so with a profile in
   play even a pure whitespace shift must miss; without one it hits. *)
let test_key_profile () =
  let runnable =
    {|float v[64];
int main()
{
  int i;
  for (i = 0; i < 64; i++) v[i] = v[i] + 1.0f;
  return 0;
}
|}
  in
  let prof_path = Filename.temp_file "titancc" ".prof" in
  let data, _ = Vpc.profile_gen runnable in
  Vpc.Profile.Data.save data prof_path;
  Fun.protect
    ~finally:(fun () -> Sys.remove prof_path)
    (fun () ->
      let opts = { S.default_copts with S.profile_use = Some prof_path } in
      let shifted = "/* shifted */\n" ^ runnable in
      let k1 = keys_of ~opts runnable and k2 = keys_of ~opts shifted in
      check Alcotest.(neg string)
        "a line shift misses when a profile is in play"
        (key_of_member k1 "main") (key_of_member k2 "main");
      let n1 = keys_of runnable and n2 = keys_of shifted in
      checks "and hits without one" (key_of_member n1 "main")
        (key_of_member n2 "main");
      (* a different profile is a different key *)
      let data2, _ =
        Vpc.profile_gen
          ~config:{ Vpc.Titan.Machine.default_config with procs = 2 }
          runnable
      in
      let prof2 = Filename.temp_file "titancc" ".prof" in
      Vpc.Profile.Data.save data2 prof2;
      Fun.protect
        ~finally:(fun () -> Sys.remove prof2)
        (fun () ->
          let k3 =
            keys_of ~opts:{ opts with S.profile_use = Some prof2 } runnable
          in
          check Alcotest.(neg string) "an edited profile misses"
            (key_of_member k1 "main") (key_of_member k3 "main")))

(* Cache ------------------------------------------------------------------ *)

let test_cache_roundtrip () =
  let e =
    {
      C.key = "abc123";
      funcs =
        [
          {
            C.fe_name = "f";
            fe_dump =
              "\nfloat f()\n{\n  s = \"(quotes)\" \\ and\ttabs;\n  return 1.0;\n}\n";
            fe_asm = "f:  ; 2 regs\n  ret\n";
          };
        ];
    }
  in
  let e' =
    C.entry_of_sexp
      (Vpc.Support.Sexp.of_string (Vpc.Support.Sexp.to_string (C.entry_to_sexp e)))
  in
  checkb "entry round-trips through its sexp" true (e = e')

let test_cache_persistence () =
  let dir = Filename.temp_file "titancc" ".cache" in
  Sys.remove dir;
  let c1 = C.create ~dir () in
  let r = req (chain_src ()) in
  let cold = S.compile c1 r in
  Alcotest.(check int) "cold compile caches nothing yet" 0 cold.S.res_cached;
  (* a fresh cache instance over the same directory starts warm *)
  let c2 = C.create ~dir () in
  let warm = S.compile c2 r in
  Alcotest.(check int) "warm compile serves every component"
    warm.S.res_components warm.S.res_cached;
  checks "and the bytes match" cold.S.res_il warm.S.res_il;
  checks "asm too" cold.S.res_asm warm.S.res_asm

(* Service ---------------------------------------------------------------- *)

let test_served_bytes_identical () =
  let cache = C.create () in
  List.iter
    (fun (name, src) ->
      let r = req ~name src in
      let cold = S.compile cache r in
      let warm = S.compile cache r in
      Alcotest.(check int)
        (name ^ ": warm pass is a full hit")
        warm.S.res_components warm.S.res_cached;
      checks (name ^ ": IL text") cold.S.res_il warm.S.res_il;
      checks (name ^ ": asm text") cold.S.res_asm warm.S.res_asm;
      (* the cold response itself is the fresh compiler's rendering *)
      let prog, _ =
        Vpc.compile ~options:(S.to_options r.S.req_opts) ~file:name src
      in
      checks (name ^ ": IL equals prog_to_string")
        (Il.Pp.prog_to_string prog) cold.S.res_il)
    ([
       ("chain.c", chain_src ());
       ("comment.c", chain_src ~comment:"/* note */" ());
     ]
    @ List.concat_map
        (fun dir ->
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".c")
          |> List.sort compare
          |> List.map (fun f ->
                 let path = Filename.concat dir f in
                 (path, Helpers.read_file path)))
        [ "../examples"; "fixtures" ])

(* An in-process request with a strip length below 1 (one that never
   went through [copts_of_sexp]) is refused with [Invalid_argument], not
   a division by zero deep in a pass. *)
let test_vlen_below_one () =
  let bad = req ~opts:{ S.default_copts with S.vlen = 0 } (chain_src ()) in
  match S.compile (C.create ()) bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Service.compile served a vlen-0 request"

let test_comment_edit_hits () =
  let cache = C.create () in
  ignore (S.compile cache (req (chain_src ())));
  let r2 = S.compile cache (req (chain_src ~comment:"// tweak\n" ())) in
  Alcotest.(check int) "a comment edit is a full hit" r2.S.res_components
    r2.S.res_cached

let test_batch_matches_sequential () =
  let reqs =
    List.init 12 (fun i ->
        req
          ~name:(Printf.sprintf "u%d.c" i)
          (chain_src ~leaf_const:(i + 1) ~kern_const:(i mod 4) ()))
  in
  let c_par = C.create () and c_seq = C.create () in
  let par = S.compile_batch ~jobs:4 c_par reqs in
  let seq = S.compile_batch ~jobs:1 c_seq reqs in
  List.iteri
    (fun i ((a : S.response), (b : S.response)) ->
      checks (Printf.sprintf "u%d IL" i) b.S.res_il a.S.res_il;
      checks (Printf.sprintf "u%d asm" i) b.S.res_asm a.S.res_asm)
    (List.combine par seq)

(* Worklist solver -------------------------------------------------------- *)

(* The subscription worklist solver must reach the same least fixpoint
   as the naive round-robin solver on every shape we can throw at it. *)
let test_worklist_equals_naive () =
  let summaries solver src =
    let prog = Vpc.parse src in
    let t = P.analyze ~solver prog in
    List.map
      (fun (f : Il.Func.t) ->
        Fmt.str "%a" (P.pp_summary t) f.Il.Func.name)
      prog.Il.Prog.funcs
    |> String.concat "\n"
  in
  List.iter
    (fun (name, src) ->
      checks name (summaries `Naive src) (summaries `Worklist src))
    [
      ("chain", chain_src ());
      ("backsolve", read_example "backsolve.c");
      ("daxpy-inline", read_example "daxpy_inline.c");
      ("ptrkernels", read_example "ptrkernels.c");
      ("math-library", read_example "math_library.c");
      ("graphics", read_example "graphics.c");
    ]

(* Daemon ----------------------------------------------------------------- *)

let test_daemon_roundtrip () =
  let socket_path = Filename.temp_file "titancc" ".sock" in
  Sys.remove socket_path;
  let cache = C.create () in
  let server =
    Domain.spawn (fun () ->
        Vpc_server.Daemon.serve
          { Vpc_server.Daemon.socket_path; verbose = false }
          cache)
  in
  (* wait for the socket to appear *)
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon socket never appeared";
    if not (Sys.file_exists socket_path) then begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 100;
  Fun.protect
    ~finally:(fun () ->
      (try
         ignore
           (Vpc_server.Protocol.request ~socket:socket_path
              Vpc_server.Protocol.Shutdown)
       with _ -> ());
      Domain.join server)
    (fun () ->
      let ask () =
        match
          Vpc_server.Protocol.request ~socket:socket_path
            (Vpc_server.Protocol.Compile (req (chain_src ())))
        with
        | Vpc_server.Protocol.Compiled r -> r
        | _ -> Alcotest.fail "expected a Compiled reply"
      in
      let r1 = ask () in
      let r2 = ask () in
      Alcotest.(check int) "second request is fully cached"
        r2.S.res_components r2.S.res_cached;
      checks "served bytes stable across the wire" r1.S.res_il r2.S.res_il;
      (* an unknown off flag is a parse error: that request is not
         compiled, and the daemon lives on to serve the ones below *)
      (match
         Vpc_server.Protocol.request ~socket:socket_path
           (Vpc_server.Protocol.Compile
              (req
                 ~opts:{ S.default_copts with S.disabled = [ "no-bogus" ] }
                 (chain_src ())))
       with
      | exception End_of_file -> ()
      | Vpc_server.Protocol.Error _ -> ()
      | _ -> Alcotest.fail "a request with an unknown flag was compiled");
      (* a strip length below 1 is refused with an error reply (it used
         to kill the daemon with a division by zero) *)
      (match
         Vpc_server.Protocol.request ~socket:socket_path
           (Vpc_server.Protocol.Compile
              (req ~opts:{ S.default_copts with S.vlen = 0 } (chain_src ())))
       with
      | Vpc_server.Protocol.Error _ -> ()
      | _ -> Alcotest.fail "a request with vlen 0 got no error reply");
      (* a unit whose exit is unreachable is served, and the daemon
         survives it to serve the next request *)
      List.iter
        (fun (name, src) ->
          match
            Vpc_server.Protocol.request ~socket:socket_path
              (Vpc_server.Protocol.Compile (req ~name src))
          with
          | Vpc_server.Protocol.Compiled r ->
              checkb (name ^ " served") true (r.S.res_funcs > 0)
          | _ -> Alcotest.failf "expected a Compiled reply for %s" name)
        [
          ( "unreachable_exit.c",
            Helpers.read_file "fixtures/unreachable_exit.c" );
          ("stencil5.c", read_example "stencil5.c");
        ];
      match
        Vpc_server.Protocol.request ~socket:socket_path Vpc_server.Protocol.Stats
      with
      | Vpc_server.Protocol.Stats_reply s ->
          checkb "daemon counted hits" true (s.C.s_hits > 0)
      | _ -> Alcotest.fail "expected a Stats reply")

let tests =
  [
    Alcotest.test_case "fingerprint: comments and whitespace" `Quick
      test_fp_comment_whitespace;
    Alcotest.test_case "fingerprint: id shift" `Quick test_fp_id_shift;
    Alcotest.test_case "fingerprint: pinned digests" `Quick test_fp_pinned;
    Alcotest.test_case "copts: sexp round-trip" `Quick test_copts_roundtrip;
    Alcotest.test_case "copts: unknown flag rejected" `Quick
      test_copts_unknown_flag;
    Alcotest.test_case "key: option flip" `Quick test_key_option_flip;
    Alcotest.test_case "key: invalidation cone" `Quick
      test_key_invalidation_cone;
    Alcotest.test_case "key: profile sensitivity" `Quick test_key_profile;
    Alcotest.test_case "cache: entry round-trip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache: disk persistence" `Quick test_cache_persistence;
    Alcotest.test_case "service: served bytes identical" `Quick
      test_served_bytes_identical;
    Alcotest.test_case "service: comment edit hits" `Quick
      test_comment_edit_hits;
    Alcotest.test_case "service: vlen below 1 refused" `Quick
      test_vlen_below_one;
    Alcotest.test_case "service: batch matches sequential" `Quick
      test_batch_matches_sequential;
    Alcotest.test_case "pointsto: worklist equals naive" `Quick
      test_worklist_equals_naive;
    Alcotest.test_case "daemon: protocol round-trip" `Quick
      test_daemon_roundtrip;
    Alcotest.test_case "fingerprint: meaningful edits separate" `Quick
      test_fp_separates;
  ]
