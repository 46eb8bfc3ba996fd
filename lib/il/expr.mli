(** IL expressions are {e pure}: the front end forces every operation that
    changes a memory location to be an explicit statement (paper §4), so
    an expression may read variables and memory but never write.  Pointer
    arithmetic is explicit in bytes — exactly the [a = temp_1 + 4] form
    the paper's listings show. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr | Band | Bor | Bxor
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Lognot | Bitnot

type t = { desc : desc; ty : Ty.t }

and desc =
  | Const_int of int
  | Const_float of float
  | Var of int          (** read of a scalar variable, by id *)
  | Load of t           (** [*p] where [p : Ptr ty] *)
  | Addr_of of int      (** [&v]; for arrays, the decayed base address *)
  | Binop of binop * t * t
  | Unop of unop * t
  | Cast of Ty.t * t

(** {1 Constructors} *)

val mk : desc -> Ty.t -> t
val int_const : int -> t
val float_const : ?ty:Ty.t -> float -> t
val var : Var.t -> t
val var_id : int -> Ty.t -> t

(** [&v], typed as pointer to the innermost element for arrays. *)
val addr_of : Var.t -> t

(** [load p]: [*p]; internal error if [p] is not pointer-typed. *)
val load : t -> t

val binop : binop -> t -> t -> Ty.t -> t
val unop : unop -> t -> Ty.t -> t

(** Identity when the types already match. *)
val cast : Ty.t -> t -> t

val sub : t -> t -> t

(** {1 Predicates and queries} *)

val is_zero : t -> bool
val is_const : t -> bool
val const_int_val : t -> int option

(** Structural equality (variable identity decides for [Var]/[Addr_of]). *)
val equal : t -> t -> bool

(** Variables read (does not include [Addr_of]: taking an address is not
    a read). *)
val read_vars : t -> int list

val vars_addressed : int list -> t -> int list
val contains_load : t -> bool

(** {1 Traversal} *)

(** Bottom-up rewrite. *)
val map : (t -> t) -> t -> t

val iter : (t -> unit) -> t -> unit

(** Replace reads of variable [id] by [by] (cast to each use's type). *)
val subst_var : int -> t -> t -> t

(** {1 Names and serialization} *)

val binop_to_string : binop -> string
val unop_to_string : unop -> string
val binop_of_string : string -> binop
val unop_of_string : string -> unop

(** The catalog form, or under [name] the fingerprint form
    ({!Var.to_sexp}). *)
val to_sexp : ?name:(int -> string) -> t -> Vpc_support.Sexp.t
val of_sexp : Vpc_support.Sexp.t -> t
