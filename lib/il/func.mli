(** An IL function: parameters, a variable table keyed by id, and a
    statement-tree body.  Bodies are mutable so optimization passes can
    rewrite in place; everything else is data. *)

type t = {
  name : string;
  ret_ty : Ty.t;
  params : int list;  (** var ids, in declaration order *)
  vars : (int, Var.t) Hashtbl.t;
  mutable body : Stmt.t list;
  is_static : bool;
  stmt_gen : Vpc_support.Gensym.t;
  label_gen : Vpc_support.Gensym.t;
  loc : Vpc_support.Loc.t;
}

val create :
  name:string ->
  ret_ty:Ty.t ->
  ?is_static:bool ->
  ?loc:Vpc_support.Loc.t ->
  unit ->
  t

(** An independent copy sharing no mutable state with the original
    (fresh body cell, variable table, and gensym counters); statements —
    immutable — stay shared.  Unlike a sexp round-trip, source locations
    survive, which is what lets the tuner's scout compile map loop nests
    back to the locations the real pipeline will see. *)
val clone : t -> t

val add_var : t -> Var.t -> unit
val find_var : t -> int -> Var.t option
val var_exn : t -> int -> Var.t

(** A statement with a fresh id from this function's counter. *)
val fresh_stmt : t -> ?loc:Vpc_support.Loc.t -> Stmt.desc -> Stmt.t

(** A fresh label name, prefixed for readability. *)
val fresh_label : t -> string -> string

(** All variables of the function, id-ordered. *)
val locals : t -> Var.t list

(** All statements of the body, flattened preorder. *)
val all_stmts : t -> Stmt.t list

(** Variables whose address is taken anywhere in the body, plus memory
    objects — exactly the variables stores through pointers or calls may
    modify. *)
val addressed_vars : t -> (int, unit) Hashtbl.t

(** The catalog form, or under [name] the fingerprint form
    ({!Var.to_sexp}). *)
val to_sexp : ?name:(int -> string) -> t -> Vpc_support.Sexp.t
val of_sexp : Vpc_support.Sexp.t -> t
