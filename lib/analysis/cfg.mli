(** Control-flow graph over the structured IL ("the control flow graph
    built for scalar analysis", paper §5.2).  Each leaf statement is a
    node; an [If]/[While]/[Do_loop] statement is the node of its
    condition.  Synthetic [entry_id]/[exit_id] nodes bracket the
    function. *)

open Vpc_il

val entry_id : int
val exit_id : int

type node = {
  stmt : Stmt.t option;  (** [None] for entry/exit *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  nodes : (int, node) Hashtbl.t;
  func : Func.t;
  mutable rpo : int list;  (** reverse postorder from entry *)
}

val build : Func.t -> t
val node : t -> int -> node
val succs : t -> int -> int list
val preds : t -> int -> int list

(** Node ids reachable from entry. *)
val reachable : t -> (int, unit) Hashtbl.t

(** Iterate in reverse postorder (good order for forward dataflow). *)
val iter_rpo : (int -> node -> unit) -> t -> unit

(** Does any goto outside [body] target a label inside it?  The §5.2
    "branches are entering the loop" check. *)
val has_branch_into : Func.t -> Stmt.t list -> bool

(** Does [body] branch out (goto to an outside label, or return)? *)
val has_branch_out_of : Stmt.t list -> bool
