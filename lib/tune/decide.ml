(* The decision context of one compile: what every cost-gated pass reads
   before it chooses per loop or per call site.  Built once from the
   driver's options; the passes ask it which switches are on, what
   machine to price for, what the profile measured at a loop, and
   whether the tuning plan overrides their own cost model there. *)

module Loc = Vpc_support.Loc
module Profile = Vpc_profile
module Cost = Vpc_titan.Cost

type switch =
  [ `Scalar_opt | `While_conversion | `Indvar_substitution
  | `Strength_reduction | `Vectorize | `Parallelize | `Scalar_replacement
  | `Doacross | `Doacross_sync | `Pointsto | `Range | `Inline | `Interchange
  | `Fuse | `Vreuse ]

type plan = {
  nests : (Loc.t * Config.t) list;
  calls : (Loc.t * bool) list;
}

(* Each loop header of a nest maps to its configuration, each call site
   in it to the configuration's verdict for the callee.  Later pairs
   land in front, and lookups take the first match. *)
let plan_of pairs =
  List.fold_left
    (fun acc ((n : Fingerprint.nest), (cfg : Config.t)) ->
      {
        nests =
          List.map (fun l -> (l, cfg)) n.Fingerprint.loop_locs @ acc.nests;
        calls =
          List.filter_map
            (fun (site, callee) ->
              Option.map
                (fun v -> (site, v))
                (List.assoc_opt callee cfg.Config.inline_calls))
            n.Fingerprint.calls
          @ acc.calls;
      })
    { nests = []; calls = [] }
    pairs

type t = {
  switches : switch list;
  assume_noalias : bool;
  vlen : int;
  profile : Profile.Data.t option;
  plan : plan option;
  report : (string -> unit) option;
  why_scalar : (string -> unit) option;
}

let on t sw = List.mem sw t.switches

type _ knob =
  | Mode : Config.mode knob
  | Strip : int knob
  | Interchange : bool knob
  | Fuse : bool knob
  | Vreuse : bool knob
  | Doacross : bool knob
  | Inline : bool knob

let override : type a. t -> a knob -> Loc.t -> a option =
 fun t knob loc ->
  match t.plan with
  | None -> None
  | Some p -> (
      let nest get = Option.bind (List.assoc_opt loc p.nests) get in
      match knob with
      | Mode -> nest (fun c -> c.Config.mode)
      | Strip -> nest (fun c -> c.Config.strip)
      | Interchange -> nest (fun c -> c.Config.interchange)
      | Fuse -> nest (fun c -> c.Config.fuse)
      | Vreuse -> nest (fun c -> c.Config.vreuse)
      | Doacross -> nest (fun c -> c.Config.doacross)
      | Inline -> List.assoc_opt loc p.calls)

let measured t loc =
  match t.profile with
  | None -> None
  | Some data ->
      Option.bind (Profile.Key.of_loc loc) (fun key ->
          Option.map (fun lp -> (key, lp)) (Profile.Data.find_loop data key))

let trips t loc =
  Option.bind (measured t loc) (fun (_, lp) -> Profile.Data.mean_trips lp)

let machine t ~static =
  match t.profile with
  | Some data ->
      (Cost.sched_of_name data.Profile.Data.sched, data.Profile.Data.procs)
  | None -> static
