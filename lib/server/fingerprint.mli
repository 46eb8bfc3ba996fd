(** Content fingerprints for the compilation cache.

    All functions return hex MD5 digests of the IL serializer's output
    ([to_sexp ~name], one flat line) under canonical variable names.  The
    renderings normalize away representation accidents — source
    locations, statement ids, gensym counters, and raw program-wide
    variable ids (which shift whenever an earlier procedure changes
    size) — while keeping
    everything the optimizer and the printers can observe: names, types,
    storage classes, statement structure, and pragma bits.  Two
    procedures get equal fingerprints exactly when the compiler must
    produce byte-identical output for them under equal option sets,
    analysis contexts, and global sections. *)

open Vpc_il

val func : Prog.t -> Func.t -> string
(** Fingerprint of one function's lowered IL, id-normalized and
    location-free. *)

val func_locs : Func.t -> string
(** Digest of the function's source-location stream.  Mixed into cache
    keys only when a profile is supplied: profile entries are keyed by
    location, so location moves then become semantically relevant. *)

val structs : Prog.t -> string
(** Struct environment, tag-sorted. *)

val globals : Prog.t -> string
(** All globals in layout order with types, storage, and initializers
    (address-of references rendered by name).  Generated code embeds
    global addresses, so this digest guards every key of the unit. *)

val file : string -> string
(** Digest of a file's raw bytes (catalogs, profiles). *)

val digest_string : string -> string
