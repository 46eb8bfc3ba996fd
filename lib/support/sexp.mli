(** A minimal s-expression reader/writer used for the pointer-free
    procedure catalogs (paper §7).  Atoms print bare when possible and
    quoted otherwise; [;] starts a comment. *)

type t = Atom of string | List of t list

exception Parse_error of string

(** {1 Construction} *)

val atom : string -> t
val list : t list -> t
val int : int -> t

(** Floats use the hexadecimal [%h] notation: exact round-trips. *)
val float : float -> t

val bool : bool -> t

(** {1 Printing and parsing} *)

(** One line, one space between list elements. *)
val to_string : t -> string

(** Parse exactly one sexp; trailing garbage is an error. *)
val of_string : string -> t

(** {1 Decoding helpers} — raise {!Parse_error} on shape mismatch. *)

val as_atom : t -> string
val as_list : t -> t list
val as_int : t -> int
val as_float : t -> float
val as_bool : t -> bool
