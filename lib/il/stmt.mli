(** IL statements.  All side effects are explicit: the IL "has an
    assignment statement but no assignment operator" (paper §4).  Loops
    appear in three strengths: [While] (what the front end emits for both
    `while` and `for`), [Do_loop] (the Fortran-style counted loop produced
    by while→DO conversion, §5.2), and [Vector] (the array-section
    assignment produced by the vectorizer, §9's colon notation). *)

type lvalue =
  | Lvar of int      (** scalar variable *)
  | Lmem of Expr.t   (** [*addr = ...] with [addr : Ptr elt] *)

type call_target = Direct of string | Indirect of Expr.t

type t = { id : int; desc : desc; loc : Vpc_support.Loc.t }

and desc =
  | Assign of lvalue * Expr.t
  | Call of lvalue option * call_target * Expr.t list
  | If of Expr.t * t list * t list
  | While of loop_info * Expr.t * t list
  | Do_loop of do_loop
  | Goto of string
  | Label of string
  | Return of Expr.t option
  | Vector of vstmt
  | Vdef of vdef
  | Nop

(** Counted loop: index runs [lo, lo+step, ...] while
    [step>0 ? index<=hi : index>=hi].  Bounds are loop-entry values (the
    producer binds variant bounds to temporaries).  [parallel] marks
    iterations proven independent and spread over processors
    ("do parallel"). *)
and do_loop = {
  index : int;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t;
  body : t list;
  parallel : bool;
  independent : bool;  (** user pragma: iterations independent *)
  sync : dsync list;
      (** non-empty marks a doacross loop: iterations are pipelined
          across processors, each carried dependence ordered by the
          post/wait pair recorded here *)
}

(** One synchronized carried dependence of a doacross loop: iteration [i]
    posts counter [chan] after body position [post_after]; before body
    position [wait_before] it waits for iteration [i - distance] to have
    posted (iterations below the lower bound count as posted).  With
    [cum] set the wait is cumulative — every iteration [<= i - distance]
    must have posted — which soundly orders carried dependences whose
    distance is symbolic with proven lower bound [distance]. *)
and dsync = {
  chan : int;
  distance : int;     (** carried distance (or its lower bound), >= 1 *)
  post_after : int;
  wait_before : int;
  cum : bool;
}

and loop_info = {
  pragma_independent : bool;  (** user pragma: iterations independent *)
  doacross : bool;
      (** §10: the body is spread over processors with a serialized
          prefix (the pointer advance) *)
  serial_prefix : int;  (** leading body statements that stay serial *)
}

(** Vector assignment [dst = src] over [count] elements of type [velt];
    bases and strides are bytes. *)
and vstmt = { vdst : section; vsrc : vexpr; velt : Ty.t }

and section = {
  base : Expr.t;    (** byte address of element 0, loop-invariant *)
  count : Expr.t;   (** element count *)
  stride : Expr.t;  (** byte stride *)
}

and vexpr =
  | Vsec of section
  | Vscalar of Expr.t          (** invariant scalar broadcast *)
  | Viota of Expr.t * Expr.t   (** element i = offset + scale*i *)
  | Vcast of Ty.t * vexpr      (** elementwise conversion *)
  | Vbin of Expr.binop * vexpr * vexpr
  | Vun of Expr.unop * vexpr
  | Vtmp of int * Ty.t
      (** vector temporary: value of the most recent [Vdef] of this id
          (element type recorded alongside) *)

(** Vector temporary definition [vt<n> = vval] over [vcount] elements of
    type [vty].  The value lives in a vector register and never touches
    memory; produced only by the vector-register reuse pass.  A [Vdef]
    reading its own [Vtmp] is the accumulator idiom — the right-hand side
    is evaluated in full before the temporary is rebound. *)
and vdef = { vt : int; vval : vexpr; vcount : Expr.t; vty : Ty.t }

val no_info : loop_info
val mk : id:int -> ?loc:Vpc_support.Loc.t -> desc -> t

(** {1 Traversal} *)

(** Preorder over a statement and everything nested in it. *)
val iter : (t -> unit) -> t -> unit

val iter_list : (t -> unit) -> t list -> unit

(** Rebuild a statement list, mapping each statement to zero or more
    replacements; children are processed first. *)
val map_list : (t -> t list) -> t list -> t list

(** Map the expressions of this statement only (conditions and bounds of
    structured statements, not their bodies). *)
val map_exprs_shallow : (Expr.t -> Expr.t) -> t -> t

(** The expressions this statement itself reads (shallow). *)
val shallow_exprs : t -> Expr.t list

(** The scalar variable this statement defines, if any. *)
val defined_var : t -> int option

(** Variables read by this statement itself (shallow). *)
val shallow_uses : t -> int list

(** {1 Serialization} *)

val dsync_to_sexp : dsync -> Vpc_support.Sexp.t
val dsync_of_sexp : Vpc_support.Sexp.t -> dsync

(** The catalog form, or under [name] the fingerprint form
    ({!Var.to_sexp}). *)
val to_sexp : ?name:(int -> string) -> t -> Vpc_support.Sexp.t
val of_sexp : Vpc_support.Sexp.t -> t
