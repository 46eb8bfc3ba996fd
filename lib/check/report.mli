(** Findings of the static checkers: one record per broken invariant,
    carrying enough context (rule name, function, statement id, source
    location) to turn into a {!Vpc_support.Diag.t} naming the offending
    pass. *)

open Vpc_support

type violation = {
  rule : string;     (** stable rule identifier, e.g. ["dup-stmt-id"] *)
  func : string;     (** enclosing function name *)
  stmt : int option; (** offending statement id, when one exists *)
  loc : Loc.t;       (** source location (dummy for synthesized IL) *)
  message : string;
}

val v :
  rule:string -> func:string -> ?stmt:int -> ?loc:Loc.t -> string -> violation

(** Stable sort by source location (dummy locations last), then by the
    remaining fields, so reports are deterministic across runs: apply
    before emission. *)
val sort : violation list -> violation list

val to_string : violation -> string
