(** Pretty-printing of the IL in a C-like notation.  Counted loops print
    in the paper's [do fortran] / [do parallel] style and vector
    statements in its colon notation, so golden tests compare directly
    against the paper's listings. *)

type env = { prog : Prog.t; func : Func.t option }

val pp_expr : env -> ?prec:int -> Format.formatter -> Expr.t -> unit
val func_to_string : Prog.t -> Func.t -> string

(** The pieces {!prog_to_string} concatenates: the globals header, one
    declaration line per global, then per function in source order a
    {!func_section} — a blank separator line and {!func_to_string}. *)
val header_to_string : Prog.t -> string
val func_section : Prog.t -> Func.t -> string
val prog_to_string : Prog.t -> string
