(** Bounded coordinate descent over the joint per-nest configuration
    space.  The search is parameterized by an [eval] closure (compile +
    simulate, owned by the caller) and is deterministic: dimensions are
    swept in list order, a candidate replaces the incumbent only when
    strictly cheaper, and every configuration is evaluated at most once
    (memoized by its canonical field list). *)

type stats = {
  mutable evaluated : int;      (** eval calls that actually ran *)
  mutable pruned : int;         (** candidates answered by [settle] *)
  mutable rejected : int;       (** evals returning [None] *)
  mutable sim_seconds : float;  (** wall time spent inside [eval] *)
}

val new_stats : unit -> stats

(** One search dimension: a name (for reports) and the candidate values
    as setters applied to the incumbent configuration. *)
type dim = { dim_name : string; values : (Config.t -> Config.t) list }

(** [search ~dims ~eval ~init ~init_cycles ()] returns the cycle-minimal
    configuration strictly cheaper than [init_cycles], or [None] when
    nothing beats the static default.  [eval] returns [None] for
    candidates that must be discarded (illegal, or output differed from
    the reference).  [settle cfg = Some r] answers [r] without
    evaluating: a result known already (default: none is). *)
val search :
  ?stats:stats ->
  ?settle:(Config.t -> int option option) ->
  dims:dim list ->
  eval:(Config.t -> int option) ->
  init:Config.t ->
  init_cycles:int ->
  unit ->
  (Config.t * int) option
