(** A whole program: struct layouts, global variables with initializers,
    and functions.  Variable ids come from a single program-wide counter
    so expressions can name any variable unambiguously. *)

type ginit =
  | Init_none
  | Init_scalar of Expr.t      (** constant expression *)
  | Init_array of Expr.t list  (** element constants, in order *)
  | Init_string of string      (** char-array contents; NUL appended *)

type global = { gvar : Var.t; ginit : ginit }

type t = {
  structs : Ty.struct_env;
  globals : (int, global) Hashtbl.t;
  mutable funcs : Func.t list;  (** in source order *)
  var_gen : Vpc_support.Gensym.t;
}

val create : unit -> t
val fresh_var_id : t -> int

(** An independent copy sharing no mutable state (cloned functions,
    copied tables, frozen gensym), with source locations preserved. *)
val clone : t -> t
val add_global : t -> ?ginit:ginit -> Var.t -> unit
val add_func : t -> Func.t -> unit
val find_func : t -> string -> Func.t option
val func_exn : t -> string -> Func.t

(** Replace the function of the same name. *)
val replace_func : t -> Func.t -> unit

(** Resolve a variable id: the given function's table first, then the
    globals, then (inlining can leave foreign ids) any function's table. *)
val find_var : t -> Func.t option -> int -> Var.t option

val var_exn : t -> Func.t option -> int -> Var.t
val globals_list : t -> global list

(** {1 Serialization} *)

(** The struct layouts, tag-sorted. *)
val structs_to_sexp : t -> Vpc_support.Sexp.t

(** The globals in layout order with their initializers; under [name]
    in the fingerprint form ({!Var.to_sexp}). *)
val globals_to_sexp : ?name:(int -> string) -> t -> Vpc_support.Sexp.t

(** The catalog form of the whole program. *)
val to_sexp : t -> Vpc_support.Sexp.t
val of_sexp : Vpc_support.Sexp.t -> t
