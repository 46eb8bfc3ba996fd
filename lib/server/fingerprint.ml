(* Content fingerprints for the compilation cache.

   A procedure's fingerprint is an MD5 digest of a canonical rendering
   of its lowered IL.  The rendering deliberately differs from the
   catalog serialization ([Func.to_sexp]) in what it forgets:

   - Source locations never appear (they are not serialized anyway), so
     comment and whitespace edits leave the fingerprint unchanged.
   - Gensym counters are dropped: they encode allocation history, not
     meaning.
   - Program-wide variable ids are replaced by positional tokens —
     parameters by position, locals by rank in ascending-id order,
     globals by name.  Editing one procedure shifts every later
     procedure's raw ids; the normalization keeps those procedures'
     fingerprints (and hence their cache entries) valid.

   What the rendering keeps is everything the optimizer can observe:
   names (they appear in the printed IL), types, storage classes,
   statement structure, and pragma bits. *)

open Vpc_support
open Vpc_il

let digest_string s = Digest.to_hex (Digest.string s)

(* Canonical rendering of an expression; [tok] renders a variable id. *)
let rec expr_sexp tok (e : Expr.t) : Sexp.t =
  let open Sexp in
  let expr = expr_sexp tok in
  match e.Expr.desc with
  | Expr.Const_int n -> list [ atom "ci"; int n; Ty.to_sexp e.Expr.ty ]
  | Expr.Const_float x -> list [ atom "cf"; float x; Ty.to_sexp e.Expr.ty ]
  | Expr.Var id -> list [ atom "v"; atom (tok id); Ty.to_sexp e.Expr.ty ]
  | Expr.Addr_of id -> list [ atom "addr"; atom (tok id); Ty.to_sexp e.Expr.ty ]
  | Expr.Load p -> list [ atom "load"; expr p; Ty.to_sexp e.Expr.ty ]
  | Expr.Binop (op, a, b) ->
      list
        [ atom "b"; atom (Expr.binop_to_string op); expr a; expr b;
          Ty.to_sexp e.Expr.ty ]
  | Expr.Unop (op, a) ->
      list
        [ atom "u"; atom (Expr.unop_to_string op); expr a;
          Ty.to_sexp e.Expr.ty ]
  | Expr.Cast (t, a) -> list [ atom "cast"; Ty.to_sexp t; expr a ]

(* Canonical rendering of one function with normalized variable ids. *)
let func_sexp (prog : Prog.t) (f : Func.t) : Sexp.t =
  let open Sexp in
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
  let vtok id =
    match Hashtbl.find_opt tok id with
    | Some s -> s
    | None -> (
        match Hashtbl.find_opt prog.Prog.globals id with
        | Some g -> "g!" ^ g.Prog.gvar.Var.name
        | None -> "x!" ^ string_of_int id)
  in
  let expr = expr_sexp vtok in
  let lvalue = function
    | Stmt.Lvar id -> list [ atom "lv"; atom (vtok id) ]
    | Stmt.Lmem e -> list [ atom "lm"; expr e ]
  in
  let section (sec : Stmt.section) =
    list [ expr sec.Stmt.base; expr sec.Stmt.count; expr sec.Stmt.stride ]
  in
  let rec vexpr = function
    | Stmt.Vsec sec -> list [ atom "vsec"; section sec ]
    | Stmt.Vscalar e -> list [ atom "vscalar"; expr e ]
    | Stmt.Viota (off, scale) -> list [ atom "viota"; expr off; expr scale ]
    | Stmt.Vcast (ty, a) -> list [ atom "vcast"; Ty.to_sexp ty; vexpr a ]
    | Stmt.Vbin (op, a, b) ->
        list
          [ atom "vbin"; atom (Expr.binop_to_string op); vexpr a; vexpr b ]
    | Stmt.Vun (op, a) ->
        list [ atom "vun"; atom (Expr.unop_to_string op); vexpr a ]
    | Stmt.Vtmp (t, ty) -> list [ atom "vtmp"; int t; Ty.to_sexp ty ]
  in
  let rec stmt (s : Stmt.t) =
    (* statement ids are omitted: per-function gensyms make them a
       deterministic function of the structure rendered here *)
    match s.Stmt.desc with
    | Stmt.Assign (lv, e) -> list [ atom "assign"; lvalue lv; expr e ]
    | Stmt.Call (dst, tgt, args) ->
        let dst_s =
          match dst with None -> atom "none" | Some lv -> lvalue lv
        in
        let tgt_s =
          match tgt with
          | Stmt.Direct name -> list [ atom "direct"; atom name ]
          | Stmt.Indirect e -> list [ atom "indirect"; expr e ]
        in
        [ atom "call"; dst_s; tgt_s; list (List.map expr args) ] |> list
    | Stmt.If (c, t_, e_) ->
        list
          [ atom "if"; expr c; list (List.map stmt t_);
            list (List.map stmt e_) ]
    | Stmt.While (li, c, body) ->
        list
          [ atom "while"; bool li.Stmt.pragma_independent;
            bool li.Stmt.doacross; int li.Stmt.serial_prefix; expr c;
            list (List.map stmt body) ]
    | Stmt.Do_loop d ->
        list
          [ atom "do"; atom (vtok d.Stmt.index); expr d.Stmt.lo;
            expr d.Stmt.hi; expr d.Stmt.step; bool d.Stmt.parallel;
            bool d.Stmt.independent;
            list (List.map Stmt.dsync_to_sexp d.Stmt.sync);
            list (List.map stmt d.Stmt.body) ]
    | Stmt.Goto l -> list [ atom "goto"; atom l ]
    | Stmt.Label l -> list [ atom "label"; atom l ]
    | Stmt.Return None -> list [ atom "return" ]
    | Stmt.Return (Some e) -> list [ atom "return"; expr e ]
    | Stmt.Vector v ->
        list
          [ atom "vector"; section v.Stmt.vdst; vexpr v.Stmt.vsrc;
            Ty.to_sexp v.Stmt.velt ]
    | Stmt.Vdef vd ->
        list
          [ atom "vdef"; int vd.Stmt.vt; vexpr vd.Stmt.vval;
            expr vd.Stmt.vcount; Ty.to_sexp vd.Stmt.vty ]
    | Stmt.Nop -> list [ atom "nop" ]
  in
  let var_descr (v : Var.t) =
    list
      [
        atom (vtok v.Var.id);
        atom v.Var.name;
        Ty.to_sexp v.Var.ty;
        atom (Var.storage_to_string v.Var.storage);
        bool v.Var.volatile;
        bool v.Var.is_temp;
      ]
  in
  list
    [
      atom "func";
      atom f.Func.name;
      Ty.to_sexp f.Func.ret_ty;
      bool f.Func.is_static;
      list (List.map (fun id -> atom (vtok id)) f.Func.params);
      list (List.map var_descr (Func.locals f));
      list (List.map stmt f.Func.body);
    ]

let func prog f = digest_string (Sexp.to_string (func_sexp prog f))

(* Source locations of a function's statements.  Mixed into the key only
   when a profile is in play: profile entries are keyed by location, so
   a pure whitespace edit — invisible to [func] — can legitimately
   change profile-guided decisions. *)
let func_locs (f : Func.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Vpc_support.Loc.to_string f.Func.loc);
  Stmt.iter_list
    (fun s ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (Vpc_support.Loc.to_string s.Stmt.loc))
    f.Func.body;
  digest_string (Buffer.contents buf)

let structs (prog : Prog.t) =
  let defs =
    Hashtbl.fold (fun _ (d : Ty.struct_def) acc -> d :: acc)
      prog.Prog.structs []
    |> List.sort (fun (a : Ty.struct_def) b -> compare a.tag b.tag)
  in
  let one (d : Ty.struct_def) =
    Sexp.list
      (Sexp.atom d.Ty.tag
      :: List.map
           (fun (n, ty) -> Sexp.list [ Sexp.atom n; Ty.to_sexp ty ])
           d.Ty.fields)
  in
  digest_string (Sexp.to_string (Sexp.list (List.map one defs)))

(* All globals, in layout order, with initializers — global addresses
   are baked into generated code, so any change to the global section
   invalidates every procedure of the translation unit. *)
let globals (prog : Prog.t) =
  (* initializers are constant expressions but may take other globals'
     addresses — render those by name, not by raw id *)
  let gname id =
    match Hashtbl.find_opt prog.Prog.globals id with
    | Some g -> "g!" ^ g.Prog.gvar.Var.name
    | None -> "x!" ^ string_of_int id
  in
  let gexpr = expr_sexp gname in
  let ginit = function
    | Prog.Init_none -> Sexp.atom "none"
    | Prog.Init_scalar e -> Sexp.list [ Sexp.atom "s"; gexpr e ]
    | Prog.Init_array es -> Sexp.list (Sexp.atom "a" :: List.map gexpr es)
    | Prog.Init_string s -> Sexp.list [ Sexp.atom "str"; Sexp.atom s ]
  in
  let one (g : Prog.global) =
    Sexp.list
      [
        Sexp.atom g.Prog.gvar.Var.name;
        Ty.to_sexp g.Prog.gvar.Var.ty;
        Sexp.atom (Var.storage_to_string g.Prog.gvar.Var.storage);
        Sexp.bool g.Prog.gvar.Var.volatile;
        ginit g.Prog.ginit;
      ]
  in
  digest_string
    (Sexp.to_string (Sexp.list (List.map one (Prog.globals_list prog))))

let file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      digest_string (really_input_string ic (in_channel_length ic)))
