(* A whole program: struct layouts, global variables (with initializers),
   and functions.  Variable ids are allocated from a single program-wide
   counter so that expressions can name any variable unambiguously. *)

open Vpc_support

type ginit =
  | Init_none
  | Init_scalar of Expr.t            (* constant expression *)
  | Init_array of Expr.t list        (* element constants, in order *)
  | Init_string of string            (* char array contents, NUL added *)

type global = { gvar : Var.t; ginit : ginit }

type t = {
  structs : Ty.struct_env;
  globals : (int, global) Hashtbl.t;
  mutable funcs : Func.t list;  (* in source order *)
  var_gen : Gensym.t;
}

let create () =
  {
    structs = Hashtbl.create 8;
    globals = Hashtbl.create 16;
    funcs = [];
    var_gen = Gensym.create ();
  }

let fresh_var_id t = Gensym.fresh t.var_gen

(* An independent copy: cloned functions, copied tables, and a var
   counter frozen at the original's position, so passes run on the clone
   cannot perturb the original's numbering.  Locations survive. *)
let clone t =
  {
    structs = Hashtbl.copy t.structs;
    globals = Hashtbl.copy t.globals;
    funcs = List.map Func.clone t.funcs;
    var_gen = Gensym.create ~start:(Gensym.peek t.var_gen) ();
  }

let add_global t ?(ginit = Init_none) (gvar : Var.t) =
  Hashtbl.replace t.globals gvar.id { gvar; ginit }

let add_func t f = t.funcs <- t.funcs @ [ f ]

let find_func t name = List.find_opt (fun (f : Func.t) -> f.name = name) t.funcs

let func_exn t name =
  match find_func t name with
  | Some f -> f
  | None -> Diag.internal "unknown function %s" name

let replace_func t (f : Func.t) =
  t.funcs <-
    List.map (fun (g : Func.t) -> if g.name = f.name then f else g) t.funcs

(* Resolve a variable id: function locals shadow nothing (ids are unique
   program-wide), so we look in the function first, then globals. *)
let find_var t (f : Func.t option) id =
  let local = Option.bind f (fun f -> Func.find_var f id) in
  match local with
  | Some v -> Some v
  | None -> (
      match Hashtbl.find_opt t.globals id with
      | Some g -> Some g.gvar
      | None ->
          (* Inlining can leave a function holding ids owned by another
             function's table; search all functions as a fallback. *)
          List.find_map (fun (f : Func.t) -> Func.find_var f id) t.funcs)

let var_exn t f id =
  match find_var t f id with
  | Some v -> v
  | None -> Diag.internal "unknown variable id %d" id

let globals_list t =
  Hashtbl.fold (fun _ g acc -> g :: acc) t.globals []
  |> List.sort (fun a b -> compare a.gvar.Var.id b.gvar.Var.id)

let ginit_to_sexp ?name = function
  | Init_none -> Sexp.atom "none"
  | Init_scalar e -> Sexp.list [ Sexp.atom "scalar"; Expr.to_sexp ?name e ]
  | Init_array es ->
      Sexp.list (Sexp.atom "array" :: List.map (Expr.to_sexp ?name) es)
  | Init_string s -> Sexp.list [ Sexp.atom "string"; Sexp.atom s ]

let ginit_of_sexp s =
  match s with
  | Sexp.Atom "none" -> Init_none
  | Sexp.List [ Sexp.Atom "scalar"; e ] -> Init_scalar (Expr.of_sexp e)
  | Sexp.List (Sexp.Atom "array" :: es) -> Init_array (List.map Expr.of_sexp es)
  | Sexp.List [ Sexp.Atom "string"; str ] -> Init_string (Sexp.as_atom str)
  | _ -> raise (Sexp.Parse_error "bad ginit sexp")

let structs_to_sexp t =
  let open Sexp in
  Hashtbl.fold (fun _ (def : Ty.struct_def) acc -> def :: acc) t.structs []
  |> List.sort (fun (a : Ty.struct_def) b -> compare a.tag b.tag)
  |> List.map (fun (def : Ty.struct_def) ->
         list
           (atom def.tag
           :: List.map
                (fun (name, ty) -> list [ atom name; Ty.to_sexp ty ])
                def.fields))
  |> list

let globals_to_sexp ?name t =
  Sexp.list
    (List.map
       (fun g ->
         Sexp.list [ Var.to_sexp ?name g.gvar; ginit_to_sexp ?name g.ginit ])
       (globals_list t))

let to_sexp t =
  let open Sexp in
  list
    [
      atom "program";
      structs_to_sexp t;
      globals_to_sexp t;
      list (List.map (fun f -> Func.to_sexp f) t.funcs);
      int (Gensym.peek t.var_gen);
    ]

let of_sexp s =
  let open Sexp in
  match as_list s with
  | [ Atom "program"; List structs; List globals; List funcs; var_next ] ->
      let t =
        {
          structs = Hashtbl.create 8;
          globals = Hashtbl.create 16;
          funcs = [];
          var_gen = Gensym.create ~start:(as_int var_next) ();
        }
      in
      List.iter
        (fun sd ->
          match as_list sd with
          | tag :: fields ->
              let tag = as_atom tag in
              let fields =
                List.map
                  (fun f ->
                    match as_list f with
                    | [ name; ty ] -> (as_atom name, Ty.of_sexp ty)
                    | _ -> raise (Parse_error "bad field sexp"))
                  fields
              in
              Hashtbl.replace t.structs tag { Ty.tag; fields }
          | [] -> raise (Parse_error "bad struct sexp"))
        structs;
      List.iter
        (fun g ->
          match as_list g with
          | [ v; init ] ->
              add_global t ~ginit:(ginit_of_sexp init) (Var.of_sexp v)
          | _ -> raise (Parse_error "bad global sexp"))
        globals;
      List.iter (fun f -> add_func t (Func.of_sexp f)) funcs;
      t
  | _ -> raise (Parse_error "bad program sexp")
