(* An IL function: parameters, a variable table keyed by id, and a
   statement-tree body.  Bodies are mutable so the optimization passes can
   rewrite in place; everything else is data. *)

open Vpc_support

type t = {
  name : string;
  ret_ty : Ty.t;
  params : int list;  (* var ids, in declaration order *)
  vars : (int, Var.t) Hashtbl.t;
  mutable body : Stmt.t list;
  is_static : bool;
  stmt_gen : Gensym.t;
  label_gen : Gensym.t;
  loc : Loc.t;
}

let create ~name ~ret_ty ?(is_static = false) ?(loc = Loc.dummy) () =
  {
    name;
    ret_ty;
    params = [];
    vars = Hashtbl.create 16;
    body = [];
    is_static;
    stmt_gen = Gensym.create ();
    label_gen = Gensym.create ();
    loc;
  }

(* An independent copy sharing no mutable state: statements are
   immutable and so stay shared, but the body cell, variable table, and
   gensyms are fresh — passes run on the clone cannot perturb the
   original's numbering (and vice versa).  Unlike the sexp round-trip,
   source locations survive. *)
let clone t =
  {
    t with
    vars = Hashtbl.copy t.vars;
    body = t.body;
    stmt_gen = Gensym.create ~start:(Gensym.peek t.stmt_gen) ();
    label_gen = Gensym.create ~start:(Gensym.peek t.label_gen) ();
  }

let add_var t (v : Var.t) = Hashtbl.replace t.vars v.id v

let find_var t id = Hashtbl.find_opt t.vars id

let var_exn t id =
  match find_var t id with
  | Some v -> v
  | None -> Diag.internal "function %s: unknown variable id %d" t.name id

let fresh_stmt t ?loc desc = Stmt.mk ~id:(Gensym.fresh t.stmt_gen) ?loc desc

let fresh_label t prefix = Gensym.fresh_name t.label_gen ("." ^ prefix ^ "_")

let locals t =
  Hashtbl.fold (fun _ v acc -> v :: acc) t.vars []
  |> List.sort (fun (a : Var.t) b -> compare a.id b.id)

(* All statements of the body, flattened preorder. *)
let all_stmts t =
  let acc = ref [] in
  Stmt.iter_list (fun s -> acc := s :: !acc) t.body;
  List.rev !acc

(* Variables whose address is taken anywhere in the body, plus memory
   objects (arrays/structs), whose accesses always go through memory.
   These are exactly the variables that stores through pointers or calls
   may modify. *)
let addressed_vars t =
  let set = Hashtbl.create 16 in
  let add id = Hashtbl.replace set id () in
  Hashtbl.iter (fun id v -> if Var.is_memory_object v then add id) t.vars;
  Stmt.iter_list
    (fun s ->
      List.iter
        (fun e -> List.iter add (Expr.vars_addressed [] e))
        (Stmt.shallow_exprs s))
    t.body;
  set

let to_sexp ?name t =
  let open Sexp in
  list
    ([
       atom "func";
       atom t.name;
       Ty.to_sexp t.ret_ty;
       bool t.is_static;
       list (List.map (Var.id_to_sexp ?name) t.params);
       list (List.map (Var.to_sexp ?name) (locals t));
       list (List.map (Stmt.to_sexp ?name) t.body);
     ]
    @
    if Option.is_none name then
      [ int (Gensym.peek t.stmt_gen); int (Gensym.peek t.label_gen) ]
    else [])

let of_sexp s =
  let open Sexp in
  match as_list s with
  | [ Atom "func"; name; ret_ty; is_static; List params; List vars; List body;
      stmt_next; label_next ] ->
      let t =
        {
          name = as_atom name;
          ret_ty = Ty.of_sexp ret_ty;
          params = List.map as_int params;
          vars = Hashtbl.create 16;
          body = List.map Stmt.of_sexp body;
          is_static = as_bool is_static;
          stmt_gen = Gensym.create ~start:(as_int stmt_next) ();
          label_gen = Gensym.create ~start:(as_int label_next) ();
          loc = Loc.dummy;
        }
      in
      List.iter (fun v -> add_var t (Var.of_sexp v)) vars;
      t
  | _ -> raise (Parse_error "bad func sexp")
