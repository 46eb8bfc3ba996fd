(** Location-free loop-nest fingerprints: the key under which tuned
    configurations are stored and replayed.  The fingerprint digests the
    nest's *shape* — nest depth, per-level trip counts, subscript
    strides, a dependence summary of the innermost body, and the body's
    operation mix — with variable ids alpha-normalized by first
    appearance, so it survives renames and edits elsewhere in the file
    (which shift source locations) while still separating nests whose
    best configuration could genuinely differ. *)

open Vpc_il

(** One outermost DO-loop nest, as the scout compile saw it. *)
type nest = {
  loc : Vpc_support.Loc.t;       (** the outermost loop header *)
  fp : string;                   (** hex digest of the canonical shape *)
  depth : int;                   (** nesting levels along the spine *)
  loop_locs : Vpc_support.Loc.t list;
      (** headers of every level, outermost first *)
  calls : (Vpc_support.Loc.t * string) list;
      (** direct call sites anywhere inside the nest (site, callee) *)
  trips : int option list;       (** constant trip per level, outermost
                                     first; [None] = symbolic *)
  weight : int;                  (** static cycle estimate: trip product
                                     times body cost — the ranking key
                                     when no profile is available *)
}

(** Every function's nests, in program order. *)
val nests : Prog.t -> nest list
