(** Diagnostics: errors and warnings carrying source locations. *)

type severity = Error | Warning

type t = { severity : severity; loc : Loc.t; message : string }

(** Raised by [error]: a user-facing front-end or semantic error. *)
exception Error_exn of t

(** Raised by [internal]: an invariant the compiler itself broke. *)
exception Internal of string

(** [error ~loc fmt ...] raises {!Error_exn}; never returns. *)
val error : ?loc:Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [internal fmt ...] raises {!Internal}; never returns. *)
val internal : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Warnings accumulated by the current domain, oldest first; they are
    collected rather than printed so tests can assert on them.  Each
    domain has its own buffer. *)
val warnings : unit -> t list

val reset_warnings : unit -> unit
val warn : ?loc:Loc.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
val to_string : t -> string
