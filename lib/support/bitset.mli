(** Dense mutable bitsets for dataflow IN/OUT vectors, stored as
    [Sys.int_size]-bit words. *)

type t

(** [create n]: an empty set over the universe [0 .. n-1]. *)
val create : int -> t

val copy : t -> t
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val equal : t -> t -> bool

(** [blit ~src ~dst]: [dst := src]; both sets have the same universe. *)
val blit : src:t -> dst:t -> unit

(** [union_into a b]: [a := a ∪ b]; returns [true] if [a] changed. *)
val union_into : t -> t -> bool

(** [diff_into a b]: [a := a \ b]. *)
val diff_into : t -> t -> unit

(** [transfer ~gen ~kill a]: [a := (a \ kill) ∪ gen], the dataflow
    transfer function. *)
val transfer : gen:t -> kill:t -> t -> unit

val elements : t -> int list
val cardinal : t -> int
val is_empty : t -> bool
