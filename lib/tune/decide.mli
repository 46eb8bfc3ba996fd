(** The decision context of one compile: everything the cost-gated
    passes (fusion, interchange, vectorization, vector-register reuse,
    doacross, inlining) read to make their per-loop or per-call-site
    choice.  The driver builds one per compile from its options; a pass
    asks it which switches are on, which machine to price for, what the
    profile measured at a loop, and — through the one query
    {!override} — whether the tuning plan pins the answer ahead of the
    pass's own cost model. *)

(** The optimizer's on/off switches. *)
type switch =
  [ `Scalar_opt | `While_conversion | `Indvar_substitution
  | `Strength_reduction | `Vectorize | `Parallelize | `Scalar_replacement
  | `Doacross | `Doacross_sync | `Pointsto | `Range | `Inline | `Interchange
  | `Fuse | `Vreuse ]

(** A resolved tuning plan: per-nest configurations keyed by source
    location (every loop header of a tuned nest maps to its nest's
    configuration) plus per-call-site inline verdicts. *)
type plan = {
  nests : (Vpc_support.Loc.t * Config.t) list;
  calls : (Vpc_support.Loc.t * bool) list;
}

(** Fold (nest, configuration) pairs into a plan; later pairs win. *)
val plan_of : (Fingerprint.nest * Config.t) list -> plan

(** What the plan can pin, one query per cost-gated choice, at the loop
    header it is asked for (an [Inline] query: at the call site).  The
    type parameter is the plan's answer; [None] leaves the choice to
    the pass's own policy. *)
type _ query =
  | Vector : Vpc_support.Loc.t -> (Config.mode option * int option) query
      (** scalar, serial-strip or parallel-strip code, and the strip
          length *)
  | Interchange : Vpc_support.Loc.t -> bool option query
      (** reorder the nest's levels *)
  | Fuse : Vpc_support.Loc.t * Vpc_support.Loc.t -> bool option query
      (** fuse the two adjacent loops; a [false] at either header wins
          over a [true] at the other *)
  | Vreuse : Vpc_support.Loc.t -> bool option query
      (** vector-register reuse in the loop *)
  | Doacross : Vpc_support.Loc.t -> bool option query
      (** post/wait pipelining of the loop *)
  | Inline : Vpc_support.Loc.t -> bool option query
      (** expand the call site *)

(** The queries one compile answered, with the decision each made. *)
type log

type t = {
  switches : switch list;  (** the switches that are on *)
  assume_noalias : bool;  (** pointer params get Fortran semantics *)
  vlen : int;  (** machine strip length; the paper uses 32 *)
  profile : Vpc_profile.Data.t option;
      (** measured trips, call counts and the machine they ran on *)
  plan : plan option;  (** [None]: nothing is overridden *)
  log : log option;  (** [Some]: every {!override} is recorded here *)
  report : (string -> unit) option;  (** one line per cost decision *)
  why_scalar : (string -> unit) option;
      (** one line per loop left scalar or serial, with the reason *)
}

val on : t -> switch -> bool

(** [override t q resolve] is the decision the pass acts on at [q]:
    [resolve] applied to the plan's answer ([None] included).  [resolve]
    must be complete — the pass's output may depend on the answer only
    through its result — and pure, capturing only small values (costs,
    flags), never IL: a recorded compile keeps it to replay later
    plans against. *)
val override : t -> 'a query -> ('a -> 'b) -> 'b

(** The plan's raw answer, unrecorded: for diagnostic text only.  A pass
    whose output depends on it directly breaks {!same_decisions}. *)
val answer : t -> 'a query -> 'a

(** A fresh, empty log for one compile. *)
val recorder : unit -> log

(** [same_decisions log plan]: every query the logged compile answered
    resolves under [plan] to the decision it made then.  The compile
    under [plan] then makes the same queries with the same decisions,
    so it builds the same program (by induction over the pipeline; the
    other inputs of the two compiles must be equal). *)
val same_decisions : log -> plan option -> bool

(** The profile's record of the loop headed at the location. *)
val measured :
  t -> Vpc_support.Loc.t -> (Vpc_profile.Key.t * Vpc_profile.Data.loop) option

(** Measured mean trips of the loop headed at the location. *)
val trips : t -> Vpc_support.Loc.t -> int option

(** The scheduling model and processor count the profile was measured
    under, else [static]. *)
val machine :
  t -> static:Vpc_titan.Cost.sched * int -> Vpc_titan.Cost.sched * int
