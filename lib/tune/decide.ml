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

(* What the plan can pin: one query per cost-gated choice, asked at a
   loop header (an [Inline] query: at a call site). *)
type _ query =
  | Vector : Loc.t -> (Config.mode option * int option) query
  | Interchange : Loc.t -> bool option query
  | Fuse : Loc.t * Loc.t -> bool option query
  | Vreuse : Loc.t -> bool option query
  | Doacross : Loc.t -> bool option query
  | Inline : Loc.t -> bool option query

(* One answered query: the query, the resolver that turned the plan's
   answer into the decision the pass acted on, and that decision. *)
type entry = Entry : 'a query * ('a -> 'b) * 'b -> entry

type log = entry list ref

type t = {
  switches : switch list;
  assume_noalias : bool;
  vlen : int;
  profile : Profile.Data.t option;
  plan : plan option;
  log : log option;
  report : (string -> unit) option;
  why_scalar : (string -> unit) option;
}

let on t sw = List.mem sw t.switches

let answer_of : type a. plan option -> a query -> a =
 fun plan q ->
  let nest loc get =
    match plan with
    | None -> None
    | Some p -> Option.bind (List.assoc_opt loc p.nests) get
  in
  match q with
  | Vector loc ->
      (nest loc (fun c -> c.Config.mode), nest loc (fun c -> c.Config.strip))
  | Interchange loc -> nest loc (fun c -> c.Config.interchange)
  | Fuse (l1, l2) -> (
      let f l = nest l (fun c -> c.Config.fuse) in
      match (f l1, f l2) with
      | Some false, _ | _, Some false -> Some false
      | Some true, _ | _, Some true -> Some true
      | None, None -> None)
  | Vreuse loc -> nest loc (fun c -> c.Config.vreuse)
  | Doacross loc -> nest loc (fun c -> c.Config.doacross)
  | Inline loc -> Option.bind plan (fun p -> List.assoc_opt loc p.calls)

let answer t q = answer_of t.plan q

let override t q resolve =
  let decision = resolve (answer t q) in
  Option.iter (fun log -> log := Entry (q, resolve, decision) :: !log) t.log;
  decision

let recorder () : log = ref []

(* The compile that filled [log] asked its queries in an order its own
   decisions fixed.  A compile under [plan] whose resolvers agree at
   every one of them acts identically at each, so by induction over the
   pipeline it asks the same queries and builds the same program. *)
let same_decisions (log : log) plan =
  List.for_all
    (fun (Entry (q, resolve, decision)) -> resolve (answer_of plan q) = decision)
    !log

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
