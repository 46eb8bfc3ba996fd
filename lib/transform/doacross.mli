(** Doacross parallelization.

    The §10 path parallelizes pointer-chasing while loops: the body
    splits into a serialized prefix — the statements computing the
    loop-carried scalar state (the pointer advance, counters, the
    condition's inputs) — and a parallel rest (the memory work), which
    the Titan spreads over processors.  Applied only to loops carrying
    the independence pragma, which supplies the paper's "assumption that
    each motion down a pointer goes to independent storage".

    The post/wait path pipelines counted DO loops whose carried
    dependences all have known constant distance: iterations spread
    round-robin over processors, each crossing dependence ordered by a
    post after its source statement and a wait before its sink, with
    redundant synchronization eliminated and a pipeline cost model
    gating the transformation. *)

open Vpc_il

type stats = {
  (* §10 while-loop doacross *)
  mutable loops_transformed : int;
  mutable rejected_shape : int;
  mutable rejected_dependence : int;
  mutable no_carried : int;
      (** no carried scalar state to serialize, or nothing to spread *)
  (* DO-loop post/wait pipelining *)
  mutable do_pipelined : int;
  mutable syncs_placed : int;
  mutable syncs_eliminated : int;
  mutable do_rejected_scalar : int;
      (** carried register recurrence, or a live-out scalar definition *)
  mutable do_rejected_distance : int;
      (** a carried dependence with no constant distance *)
  mutable do_rejected_cost : int;  (** pipeline model prefers serial *)
}

val new_stats : unit -> stats


(** Does a chain of sync edges transitively order the carried edge
    (src, dst, dist)?  For an exact edge ([cum = false]) distances along
    the chain must sum to [dist] exactly, except that a cumulative sync
    may terminate the chain early — it orders against every iteration at
    least its distance back.  For a symbolic edge known only to have
    distance >= [dist] ([cum = true]) only a single cumulative sync of
    distance <= [dist] qualifies.  The race checker re-derives the same
    rule independently when it validates doacross loops. *)
val covers :
  Stmt.dsync list -> src:int -> dst:int -> dist:int -> cum:bool -> bool

(** Run the §10 while path while [`Doacross] is on and the post/wait
    path while [`Doacross_sync] is on; [true] if any loop changed.
    [range] bounds symbolic byte distances and trip counts for the
    dependence tests.  The pipeline model prices for the profile's
    machine at loops it measured, else four processors under [Full]
    scheduling.  A tuned [Doacross] override at the loop's header pins
    the verdict: [false] keeps it serial, [true] pipelines a
    synchronizable loop even when the model prefers serial. *)
val run :
  ?stats:stats ->
  ?range:(Stmt.t -> Expr.t -> int option * int option) ->
  Vpc_tune.Decide.t ->
  Prog.t ->
  Func.t ->
  bool
