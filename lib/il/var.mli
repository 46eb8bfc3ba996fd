(** IL variables.  Statements and expressions refer to variables by
    integer id only — the IL carries no hard pointers so that procedures
    can be paged and saved into catalogs (paper §7).  Metadata lives in
    per-program / per-function tables keyed by id. *)

type storage =
  | Auto    (** function local *)
  | Param   (** formal parameter *)
  | Static  (** function- or file-scope static *)
  | Global  (** external linkage *)
  | Extern  (** declared here, defined elsewhere *)

type t = {
  id : int;
  name : string;
  ty : Ty.t;
  volatile : bool;
  storage : storage;
  is_temp : bool;  (** compiler-generated temporary *)
}

val make :
  id:int ->
  name:string ->
  ty:Ty.t ->
  ?volatile:bool ->
  ?storage:storage ->
  ?is_temp:bool ->
  unit ->
  t

(** Arrays and structs are memory objects: their value is never held in a
    register; all accesses go through their address. *)
val is_memory_object : t -> bool

(** Static, global, or extern: storage that outlives the activation. *)
val is_global : t -> bool

val storage_to_string : storage -> string

(** {1 Serialization}

    Every IL [to_sexp] takes the same optional [name].  Without it the
    output is the catalog form, which {!of_sexp} reads back.  With it,
    each variable id renders as the atom [name id], and statement ids
    and gensym counters are left out: the form the compilation cache
    fingerprints. *)

val id_to_sexp : ?name:(int -> string) -> int -> Vpc_support.Sexp.t
val to_sexp : ?name:(int -> string) -> t -> Vpc_support.Sexp.t
val of_sexp : Vpc_support.Sexp.t -> t
