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
val to_sexp : t -> Vpc_support.Sexp.t
val of_sexp : Vpc_support.Sexp.t -> t
