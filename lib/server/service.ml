(* The compilation service: one compile request = one translation unit
   under one option set; the response carries the printed optimized IL
   and the Titan assembly listing.

   The fast path never runs the optimizer.  A request is parsed (cheap,
   and unavoidable: fingerprints are computed over lowered IL, which is
   what makes them robust against comment/whitespace edits), catalogs
   are imported, the unit is partitioned into invalidation components
   ({!Components}), and each component's key is probed in the cache.
   When every component hits, the response is assembled from cached
   per-function text — the printers emit plain newline-terminated
   pieces, so concatenation reproduces [Pp.prog_to_string] and the
   [--dump-asm] listing byte for byte.  Any miss falls back to a full
   fresh compile of the whole unit (the optimizer is interprocedural;
   recompiling a component in isolation would change inlining and
   summary inputs), whose outputs seed the cache for next time.

   Thread-safety: requests may be served from concurrent domains — all
   compiler state is per-program or domain-local, and the cache handles
   its own locking — so {!compile_batch} runs a domain pool over a
   shared request queue. *)

open Vpc_support
open Vpc.Il

(* Cache-relevant options: the serializable mirror of titancc's flags.
   Callback options (dump, report, ...) are deliberately absent — they
   do not change the compiled artifact.  Catalog and profile inputs are
   carried as paths here but enter cache keys as content digests. *)
type copts = {
  opt_level : int;  (* 0..3 *)
  inline_only : string list;
  disabled : string list;  (* sorted off flags of {!Vpc.switches} *)
  assume_noalias : bool;
  vlen : int;
  catalogs : string list;
  profile_use : string option;
  tune_use : string option;  (* tuned-configuration store (--tune-use) *)
}

let default_copts =
  {
    opt_level = 3;
    inline_only = [];
    disabled = [];
    assume_noalias = false;
    vlen = 32;
    catalogs = [];
    profile_use = None;
    tune_use = None;
  }

(* Requests arrive from outside the process, so an unknown name is a
   parse error, which the daemon survives, not an exception that stops
   it. *)
let flag_switch name =
  match Vpc.flag_switch name with
  | Some sw -> sw
  | None -> raise (Sexp.Parse_error ("copts: unknown flag " ^ name))

let copts_to_sexp (c : copts) =
  let open Sexp in
  list
    [
      int c.opt_level;
      list (List.map atom c.inline_only);
      list (List.map atom (List.sort_uniq compare c.disabled));
      bool c.assume_noalias;
      int c.vlen;
      list (List.map atom c.catalogs);
      list (List.map atom (Option.to_list c.profile_use));
      list (List.map atom (Option.to_list c.tune_use));
    ]

let copts_of_sexp s =
  let open Sexp in
  let path what = function
    | [] -> None
    | [ p ] -> Some (as_atom p)
    | _ -> raise (Parse_error ("copts: bad " ^ what))
  in
  match s with
  | List [ lvl; List only; List off; na; vlen; List cats; List prof; List tune ]
    ->
      let disabled = List.sort_uniq compare (List.map as_atom off) in
      List.iter (fun n -> ignore (flag_switch n)) disabled;
      let vlen = as_int vlen in
      if vlen < 1 then raise (Parse_error "copts: vlen below 1");
      {
        opt_level = as_int lvl;
        inline_only = List.map as_atom only;
        disabled;
        assume_noalias = as_bool na;
        vlen;
        catalogs = List.map as_atom cats;
        profile_use = path "profile" prof;
        tune_use = path "tune store" tune;
      }
  | _ -> raise (Parse_error "copts: bad shape")

let to_options (c : copts) : Vpc.options =
  (* a level outside 0..2 compiles as -O3 *)
  let level = match c.opt_level with 0 | 1 | 2 -> c.opt_level | _ -> 3 in
  {
    (Vpc.at_level level) with
    Vpc.off = List.map flag_switch c.disabled;
    inline_only = c.inline_only;
    assume_noalias = c.assume_noalias;
    vlen = c.vlen;
    catalogs = c.catalogs;
    profile = Option.map Vpc.Profile.Data.load c.profile_use;
    tune =
      (match c.tune_use with
      | None -> `Off
      | Some p -> `Use (Vpc.Profile.Tuned.load_or_empty p));
  }

type request = {
  req_file : string;  (* display name; locations flow into the IL *)
  req_src : string;
  req_opts : copts;
}

type response = {
  res_il : string;   (* == Pp.prog_to_string of the optimized unit *)
  res_asm : string;  (* name-sorted Titan listing, one pp_func each *)
  res_components : int;
  res_cached : int;  (* components served from cache (= components on a
                        full hit, else 0: misses recompile the unit) *)
  res_funcs : int;
}

(* Rendering -------------------------------------------------------------- *)

(* The IL response, [Pp.prog_to_string] piece by piece: the globals
   header, then each function's section (looked up by name) in source
   order. *)
let il_text (prog : Prog.t) section =
  String.concat ""
    (Pp.header_to_string prog
    :: List.map (fun (f : Func.t) -> section f.Func.name) prog.Prog.funcs)

(* The Titan listing, one [pp_func] text per function, name-sorted: what
   titancc --dump-asm prints and what the cache serves. *)
let asm_texts (prog : Prog.t) : (string * string) list =
  let layout = Vpc.Titan.Machine.layout_globals prog in
  let tprog =
    Vpc.Titan.Codegen.gen_program prog ~global_addr:(fun id ->
        Hashtbl.find layout.Vpc.Titan.Machine.addr_of id)
  in
  Hashtbl.fold
    (fun name f acc ->
      (name, Format.asprintf "%a@." Vpc.Titan.Isa.pp_func f) :: acc)
    tprog.Vpc.Titan.Isa.funcs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Keys ------------------------------------------------------------------- *)

let schema_tag = "titancc-cache-4"

let options_fp (c : copts) =
  (* paths out, contents in: the same catalog reached via a different
     path must hit, an edited catalog at the same path must miss *)
  Fingerprint.digest_string
    (Sexp.to_string
       (copts_to_sexp
          { c with catalogs = []; profile_use = None; tune_use = None }))

type keyed = {
  k_comps : Components.t;
  k_keys : string array;        (* component index -> cache key *)
  k_fp_of : (string, string) Hashtbl.t;  (* func name -> fingerprint *)
}

let component_keys (prog : Prog.t) (c : copts) : keyed =
  let comps = Components.compute prog in
  let opts_fp = options_fp c in
  let structs_fp = Fingerprint.structs prog in
  let globals_fp = Fingerprint.globals prog in
  let catalog_fps = List.map Fingerprint.file c.catalogs in
  let profile_fp = Option.map Fingerprint.file c.profile_use in
  (* a missing store is the empty store (compiles untuned), so it keys
     like no store at all *)
  let tune_fp =
    match c.tune_use with
    | Some p when Sys.file_exists p -> Some (Fingerprint.file p)
    | _ -> None
  in
  let fp_of = Hashtbl.create 16 in
  let locs_of = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace fp_of f.Func.name (Fingerprint.func prog f);
      if profile_fp <> None then
        Hashtbl.replace locs_of f.Func.name (Fingerprint.func_locs f))
    prog.Prog.funcs;
  let key_of members =
    let buf = Buffer.create 512 in
    let add s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
    add schema_tag;
    add opts_fp;
    add structs_fp;
    add globals_fp;
    add (if comps.Components.whole_tu then "whole-tu" else "component");
    List.iter add catalog_fps;
    (match profile_fp with
    | None -> add "no-profile"
    | Some d -> add ("profile " ^ d));
    (match tune_fp with
    | None -> add "no-tune"
    | Some d -> add ("tune " ^ d));
    List.iter
      (fun name ->
        add name;
        add (Hashtbl.find fp_of name);
        if Hashtbl.mem comps.Components.tainted name then add "tainted";
        match Hashtbl.find_opt locs_of name with
        | Some d -> add ("locs " ^ d)
        | None -> ())
      members;
    Fingerprint.digest_string (Buffer.contents buf)
  in
  let keys = Array.map key_of comps.Components.members in
  { k_comps = comps; k_keys = keys; k_fp_of = fp_of }

(* Compilation ------------------------------------------------------------ *)

let compile ?timer (cache : Cache.t) (req : request) : response =
  let timed phase f =
    match timer with Some t -> Timing.time t phase f | None -> f ()
  in
  let options = to_options req.req_opts in
  let prog =
    timed "parse" (fun () -> Vpc.parse ~file:req.req_file req.req_src)
  in
  timed "catalog-import" (fun () ->
      List.iter
        (fun file ->
          Vpc.Inline.Catalog.import ~into:prog (Vpc.Inline.Catalog.load file))
        options.Vpc.catalogs);
  let keyed = timed "fingerprint" (fun () -> component_keys prog req.req_opts) in
  let n = Array.length keyed.k_keys in
  let entries = Array.map (Cache.find cache) keyed.k_keys in
  let all_hit = n > 0 && Array.for_all Option.is_some entries in
  if all_hit then begin
    (* assemble from cached text; the optimizer never runs *)
    timed "assemble" (fun () ->
        let dump_of = Hashtbl.create 16 in
        let asm = Buffer.create 1024 in
        let asm_pieces = ref [] in
        Array.iter
          (fun e ->
            let e = Option.get e in
            List.iter
              (fun (fe : Cache.func_entry) ->
                Hashtbl.replace dump_of fe.Cache.fe_name fe.Cache.fe_dump;
                asm_pieces := (fe.Cache.fe_name, fe.Cache.fe_asm) :: !asm_pieces)
              e.Cache.funcs)
          entries;
        List.iter
          (fun (_, text) -> Buffer.add_string asm text)
          (List.sort (fun (a, _) (b, _) -> compare a b) !asm_pieces);
        {
          res_il = il_text prog (Hashtbl.find dump_of);
          res_asm = Buffer.contents asm;
          res_components = n;
          res_cached = n;
          res_funcs = List.length prog.Prog.funcs;
        })
  end
  else begin
    (* miss: compile the whole unit fresh.  [optimize] re-imports the
       catalogs, which is idempotent (present functions and globals
       win), so the result is bit-identical to a from-scratch compile
       of the same source. *)
    ignore (timed "optimize" (fun () -> Vpc.optimize ~options prog));
    let dumps =
      List.map
        (fun (f : Func.t) -> (f.Func.name, Pp.func_section prog f))
        prog.Prog.funcs
    in
    let asms = timed "codegen" (fun () -> asm_texts prog) in
    timed "store" (fun () ->
        Array.iteri
          (fun i members_key ->
            let funcs =
              List.map
                (fun name ->
                  {
                    Cache.fe_name = name;
                    fe_dump = List.assoc name dumps;
                    fe_asm =
                      (try List.assoc name asms
                       with Not_found -> "");
                  })
                keyed.k_comps.Components.members.(i)
            in
            Cache.store cache { Cache.key = members_key; funcs })
          keyed.k_keys);
    {
      res_il = il_text prog (fun name -> List.assoc name dumps);
      res_asm =
        String.concat "" (List.map snd asms);
      res_components = n;
      res_cached = 0;
      res_funcs = List.length prog.Prog.funcs;
    }
  end

(* Parallel batches ------------------------------------------------------- *)

(* Compile a batch of independent requests on a pool of domains pulling
   from a shared index.  All compiler state is per-request or
   domain-local; the cache synchronizes itself. *)
let compile_batch ?(jobs = 4) (cache : Cache.t) (reqs : request list) :
    response list =
  let arr = Array.of_list reqs in
  let out = Array.make (Array.length arr) None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length arr then begin
        out.(i) <- Some (compile cache arr.(i));
        loop ()
      end
    in
    loop ()
  in
  let jobs = max 1 (min jobs (Array.length arr)) in
  if jobs = 1 then worker ()
  else begin
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains
  end;
  Array.to_list out
  |> List.map (function
       | Some r -> r
       | None -> failwith "compile_batch: unreached request")
