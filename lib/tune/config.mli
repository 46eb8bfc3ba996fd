(** One loop nest's tuned optimization configuration: the point in the
    joint per-nest search space that [titancc --tune] found cycle-minimal
    on the Titan simulator.  Every field is an override; [None] (or [[]])
    means "whatever the static pipeline decides", so the all-default
    configuration compiles byte-identically to an untuned build.

    Configurations are stored location-free (see {!Fingerprint}) as
    sorted [key=value] fields, so the codec below must stay stable: it is
    what the tuned-profile store persists and what the compile daemon
    digests into its cache keys. *)

(** How the vectorizer should treat the nest's loops. *)
type mode =
  | Scalar    (** leave the serial DO loop alone *)
  | Vector    (** vectorize, serial strips (no [do parallel]) *)
  | Parallel  (** vectorize and spread strips over processors *)

type t = {
  mode : mode option;
  strip : int option;        (** strip length when vectorized *)
  interchange : bool option; (** consider reordering the nest's levels *)
  fuse : bool option;        (** consider fusing with an adjacent nest *)
  vreuse : bool option;      (** vector-register reuse inside the nest *)
  doacross : bool option;    (** post/wait pipelining of the nest *)
  inline_calls : (string * bool) list;
      (** callee name -> expand at the nest's call sites of that callee
          (sorted by name; absent callees follow the static policy) *)
}

(** All-default: every decision left to the static pipeline. *)
val default : t

val equal : t -> t -> bool

(** Canonical [key=value] field list, sorted by key, defaults omitted —
    the persisted form.  [of_fields] inverts it and rejects unknown keys
    or malformed values. *)
val to_fields : t -> (string * string) list

val of_fields : (string * string) list -> t

(** One-line rendering for [\[tune\]] report lines, e.g.
    ["mode=vector strip=16 fuse=off"]; ["default"] for {!default}. *)
val to_string : t -> string
