(** Per-phase wall-clock self-profile ([titancc --timings]).

    A [t] accumulates elapsed seconds into named buckets in first-use
    order.  Phases may nest; each bucket records its full span, so
    nested buckets overlap.  The total counts only outermost spans: it is
    the wall time spent inside any bucket. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t phase f] runs [f], charging its wall time to [phase]
    (accumulating across calls).  Exceptions still charge the bucket. *)

val phases : t -> (string * float) list
(** Buckets in first-use order. *)

val report : t -> out_channel -> unit
(** Print the [--timings] table: one [[timings] phase seconds percent]
    line per bucket plus a total line. *)
