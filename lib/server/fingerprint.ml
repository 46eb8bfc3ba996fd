(* Content fingerprints for the compilation cache.

   A procedure's fingerprint is an MD5 digest of the catalog serializer's
   output ([Func.to_sexp]) under a naming function that forgets
   representation accidents:

   - Source locations never appear (they are not serialized anyway), so
     comment and whitespace edits leave the fingerprint unchanged.
   - Statement ids and gensym counters are left out: they encode
     allocation history, not meaning.
   - Program-wide variable ids are replaced by positional tokens —
     parameters [pN] by position, locals [lN] by rank in ascending-id
     order, globals [g!name] by name, any other id [x!id].  Editing one
     procedure shifts every later procedure's raw ids; the normalization
     keeps those procedures' fingerprints (and hence their cache
     entries) valid.

   What the rendering keeps is everything the optimizer can observe:
   names (they appear in the printed IL), types, storage classes,
   statement structure, and pragma bits. *)

open Vpc_support
open Vpc_il

let digest_string s = Digest.to_hex (Digest.string s)
let digest_sexp s = digest_string (Sexp.to_string s)

let global_name (prog : Prog.t) id =
  match Hashtbl.find_opt prog.Prog.globals id with
  | Some g -> "g!" ^ g.Prog.gvar.Var.name
  | None -> "x!" ^ string_of_int id

let func (prog : Prog.t) (f : Func.t) =
  let tok = Hashtbl.create 32 in
  List.iteri
    (fun i id -> Hashtbl.replace tok id (Printf.sprintf "p%d" i))
    f.Func.params;
  let k = ref 0 in
  List.iter
    (fun (v : Var.t) ->
      if not (Hashtbl.mem tok v.Var.id) then begin
        Hashtbl.replace tok v.Var.id (Printf.sprintf "l%d" !k);
        incr k
      end)
    (Func.locals f);
  let name id =
    match Hashtbl.find_opt tok id with
    | Some s -> s
    | None -> global_name prog id
  in
  digest_sexp (Func.to_sexp ~name f)

(* Source locations of a function's statements.  Mixed into the key only
   when a profile is in play: profile entries are keyed by location, so
   a pure whitespace edit — invisible to [func] — can legitimately
   change profile-guided decisions. *)
let func_locs (f : Func.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Loc.to_string f.Func.loc);
  Stmt.iter_list
    (fun s ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (Loc.to_string s.Stmt.loc))
    f.Func.body;
  digest_string (Buffer.contents buf)

let structs prog = digest_sexp (Prog.structs_to_sexp prog)

(* Initializers are constant expressions but may take other globals'
   addresses: those render by name, not by raw id. *)
let globals prog = digest_sexp (Prog.globals_to_sexp ~name:(global_name prog) prog)

let file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      digest_string (really_input_string ic (in_channel_length ic)))
