(** Dependence tests on affine single-index subscripts: ZIV, strong SIV,
    GCD, and Banerjee bounds [Bane 76, Wolf 78, Alle 83].

    Reference 1 touches [D1 + c1*i], reference 2 [D2 + c2*j], for
    iterations in [0, trip); [delta = D2 - D1] comes from alias analysis.
    A dependence exists iff [c1*i - c2*j = delta] has a solution in
    range. *)

type verdict =
  | Independent
  | Dependent of { distance : int option; dist_lo : int option }
      (** [distance d]: reference 2 touches the common location [d]
          iterations after reference 1 ([d] < 0: before); [None]:
          unknown or varying.  [dist_lo] (meaningful only when
          [distance = None]): [Some l], l >= 1, asserts every solution
          is at distance >= l — the dependence is strictly forward but
          its exact distance is symbolic (proven from the range oracle's
          interval). *)

(** [dep ?dist_lo distance] builds a [Dependent] verdict ([dist_lo]
    defaults to [None]). *)
val dep : ?dist_lo:int -> int option -> verdict

type bound = int option  (** iteration count; [None] = unknown *)

(** The dispatcher: picks the strongest applicable test.  Sound: never
    reports [Independent] when a conflict exists (property-tested against
    brute force). *)
val affine : c1:int -> c2:int -> delta:int -> trip:bound -> verdict

type direction = Lt | Eq | Gt
(** Per-level iteration-order relation of a nest dependence: the source
    iteration is before ([Lt]), equal to ([Eq]), or after ([Gt]) the sink
    iteration at that level. *)

(** Feasible direction vectors for the dependence equation
    [Σ c1.(k)*i_k - Σ c2.(k)*j_k = delta] over [0 <= i_k, j_k <
    trips.(k)], one entry per nest level, outermost first.  Sound
    (GCD + per-level interval bounds): never omits a feasible vector. *)
val direction_vectors :
  c1:int array ->
  c2:int array ->
  delta:int ->
  trips:bound array ->
  direction list list

(** {1 Symbolic range oracle}

    When alias analysis answers May_alias, the byte distance between the
    bases is symbolic.  A scoped oracle — installed by the vectorizer
    from the range analysis — evaluates it: a point distance re-enters
    {!affine}; an interval feeds {!interval_affine}.  Without an
    installed oracle May_alias stays [Dependent]. *)

type oracle = {
  interval : Vpc_il.Expr.t -> int option * int option;
      (** sound bounds on an integer expression at the tested loop;
          [(None, None)] when nothing is known *)
  note : Vpc_il.Expr.t -> string -> unit;
      (** called when a dependence survives only because the range was
          too weak: the distance expression and what is known of it
          (feeds [--why-scalar]) *)
}

val with_oracle : oracle -> (unit -> 'a) -> 'a

(** Interval form of {!affine}: [delta] only known in [dlo, dhi] (either
    side possibly unbounded).  Sound: [Independent] only when no value
    in the interval admits a solution (no multiple of gcd(c1,c2) inside,
    or the interval clears the Banerjee span). *)
val interval_affine :
  c1:int -> c2:int -> dlo:int option -> dhi:int option -> trip:bound -> verdict

(** Test two extracted references (affine decomposition + alias
    analysis); conservative when either is non-affine. *)
val references :
  ?assume_noalias:bool ->
  trip:bound ->
  Subscript.reference ->
  Subscript.reference ->
  (string, Vpc_il.Ty.struct_def) Hashtbl.t ->
  verdict

(** [(hits, lookups)]: the domain's {!references} calls since it
    started.  Nothing is memoized, so hits is always 0. *)
val cache_stats : unit -> int * int
