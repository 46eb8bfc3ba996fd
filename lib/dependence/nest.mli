(** Loop-nest dependence analysis with direction vectors (paper §5–§7).
    Dependences of a perfect (or near-perfect) nest of normalized DO
    loops, depth 2–3, labeled with one <, =, > entry per nest level —
    the representation loop interchange and fusion legality need. *)

open Vpc_il

type level = {
  index : int;           (** the level's loop variable *)
  loop_stmt : Stmt.t;    (** original Do_loop statement (ids, locs) *)
  header : Stmt.do_loop;
  prefix : Stmt.t list;  (** nest-invariant scalar defs (limit temps)
                             textually before this loop; hoistable ahead
                             of the whole nest; [] for the outermost *)
  trip : Test.bound;
}

type edge = {
  src : int;  (** position of the source statement in the innermost body *)
  dst : int;
  kind : Graph.dep_kind;
  dirs : Test.direction list;
      (** per level, outermost first; normalized so the leading non-=
          entry is < (the source iteration precedes the sink) *)
}

type t = {
  levels : level list;  (** outermost first; length 2..max_depth *)
  body : Stmt.t list;   (** innermost body: memory stores only *)
  edges : edge list;
  refs : (Subscript.reference * Subscript.multi_affine) list;
}

val depth : t -> int

(** Full analysis: [None] unless the nest is rectangular with hoistable
    prefixes, a stores-only innermost body, every reference affine in
    the nest indices, and all base aliasing exactly resolved. *)
val analyze :
  ?assume_noalias:bool ->
  ?min_depth:int ->
  prog:Prog.t ->
  func:Func.t ->
  Stmt.t ->
  t option

(** Lexicographic sign of a direction vector: 1 when the leading non-=
    entry is <, -1 when it is >, 0 when all =. *)
val lex_sign : Test.direction list -> int

(** Every permuted direction vector stays lexicographically
    non-negative. *)
val legal_permutation : int array -> t -> bool

(** Position (under [perm]) of the level carrying the edge: its leading
    non-= entry; [None] for a loop-independent dependence. *)
val carrier_level : int array -> edge -> int option

(** Would the innermost loop under [perm] carry any dependence? *)
val inner_carries : int array -> t -> bool
