(** Statement-tree cloning with variable and label renaming — the engine
    under both inlining (§7) and catalog import.  The IL is pointer-free,
    so cloning is a pure id-remapping walk. *)

open Vpc_il

type renaming = {
  var_map : (int, int) Hashtbl.t;        (** old var id → new var id *)
  label_map : (string, string) Hashtbl.t;
  stmt_gen : Vpc_support.Gensym.t;       (** target function's stmt ids *)
}

(** Identity on ids absent from the map (globals stay shared). *)
val map_var : renaming -> int -> int

val clone_stmts : renaming -> Stmt.t list -> Stmt.t list
