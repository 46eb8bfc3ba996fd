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

type t = {
  switches : switch list;  (** the switches that are on *)
  assume_noalias : bool;  (** pointer params get Fortran semantics *)
  vlen : int;  (** machine strip length; the paper uses 32 *)
  profile : Vpc_profile.Data.t option;
      (** measured trips, call counts and the machine they ran on *)
  plan : plan option;  (** [None]: nothing is overridden *)
  report : (string -> unit) option;  (** one line per cost decision *)
  why_scalar : (string -> unit) option;
      (** one line per loop left scalar or serial, with the reason *)
}

val on : t -> switch -> bool

(** What the plan can pin: one knob per tuned decision. *)
type _ knob =
  | Mode : Config.mode knob  (** scalar, serial vector or parallel vector *)
  | Strip : int knob  (** the strip length *)
  | Interchange : bool knob  (** reorder the nest's levels *)
  | Fuse : bool knob  (** fuse with the adjacent nest *)
  | Vreuse : bool knob  (** vector-register reuse in the loop *)
  | Doacross : bool knob  (** post/wait pipelining of the loop *)
  | Inline : bool knob  (** expand the call site *)

(** The plan's answer for [knob] at a loop header (an [Inline] knob: at
    a call site), or [None] to follow the pass's own policy. *)
val override : t -> 'a knob -> Vpc_support.Loc.t -> 'a option

(** The profile's record of the loop headed at the location. *)
val measured :
  t -> Vpc_support.Loc.t -> (Vpc_profile.Key.t * Vpc_profile.Data.loop) option

(** Measured mean trips of the loop headed at the location. *)
val trips : t -> Vpc_support.Loc.t -> int option

(** The scheduling model and processor count the profile was measured
    under, else [static]. *)
val machine :
  t -> static:Vpc_titan.Cost.sched * int -> Vpc_titan.Cost.sched * int
