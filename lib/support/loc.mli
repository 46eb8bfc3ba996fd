(** Source locations for diagnostics. *)

type pos = { line : int;  (** 1-based *) col : int  (** 1-based *) }

(** A half-open span within one file. *)
type t = { file : string; start_pos : pos; end_pos : pos }

(** Location of compiler-generated constructs. *)
val dummy : t

val make : file:string -> start_pos:pos -> end_pos:pos -> t
val is_dummy : t -> bool

(** [merge a b] spans from [a]'s start to [b]'s end; dummies are absorbed. *)
val merge : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
