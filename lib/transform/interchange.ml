(* Loop interchange (paper §7).

   For every analyzable nest ([Nest.analyze]: normalized rectangular
   loops, stores-only innermost body, exact dependence information) the
   pass enumerates all loop orders — at most 3! = 6 — and keeps the
   cheapest legal one under the Titan cost model:

     legality       every direction vector, permuted into the candidate
                    order, stays lexicographically non-negative — no
                    dependence sink may run before its source;
     profitability  [Cost.nest_order_cycles]: a vectorizable inner
                    level (no dependence carried by the innermost loop)
                    dominates; stride-1 innermost access breaks ties.

   Trip counts come from the bounds when constant, else from a measured
   profile ([lib/profile]), else [Cost.default_trip].  Loops are never
   marked parallel here — the vectorizer's validated strip machinery
   supplies the parallelism once the right level is innermost. *)

open Vpc_il
open Vpc_dependence
module Cost = Vpc_titan.Cost
module Decide = Vpc_tune.Decide

type stats = {
  mutable nests_examined : int;        (* analyzable nests found *)
  mutable nests_interchanged : int;
  mutable orders_rejected_legality : int;
  mutable pgo_trip_nests : int;        (* a measured trip filled a gap *)
}

let new_stats () =
  {
    nests_examined = 0;
    nests_interchanged = 0;
    orders_rejected_legality = 0;
    pgo_trip_nests = 0;
  }

(* All permutations of 0..n-1, identity first. *)
let permutations n =
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x ->
            List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
          xs
  in
  List.map Array.of_list (perms (List.init n (fun i -> i)))

(* Trip count per level: constant bound, else measured profile, else the
   model's default. *)
let level_trips (decide : Decide.t) (levels : Nest.level list) :
    int array * bool =
  let used_pgo = ref false in
  let trip_of (l : Nest.level) =
    match l.Nest.trip with
    | Some t -> t
    | None -> (
        match Decide.trips decide l.Nest.loop_stmt.Stmt.loc with
        | Some t when t > 0 ->
            used_pgo := true;
            t
        | _ -> Cost.default_trip)
  in
  (Array.of_list (List.map trip_of levels), !used_pgo)

(* Estimated whole-nest cycles under one loop order. *)
let order_cost (decide : Decide.t) (nest : Nest.t) ~shape ~(trips : int array)
    (perm : int array) =
  let d = Array.length perm in
  let ptrips = Array.init d (fun k -> trips.(perm.(k))) in
  let inner = perm.(d - 1) in
  let vectorizable = not (Nest.inner_carries perm nest) in
  let inner_strides =
    List.map
      (fun (_, (m : Subscript.multi_affine)) -> m.Subscript.mcoeffs.(inner))
      nest.Nest.refs
  in
  let sched, procs = Decide.machine decide ~static:(Cost.Full, 1) in
  Cost.nest_order_cycles ~sched
    ~pgo_gates:(Option.is_some decide.Decide.profile)
    shape ~trips:ptrips ~vlen:decide.Decide.vlen ~procs
    ~parallelize:(Decide.on decide `Parallelize)
    ~vectorizable ~inner_strides

(* Rebuild the nest in the chosen order: hoistable prefixes (the limit
   temps of inner levels) move ahead of the whole nest, then each level
   keeps its original Do_loop statement (ids, locs, bounds, index) — only
   the nesting order changes. *)
let rebuild (nest : Nest.t) (perm : int array) : Stmt.t list =
  let levels = Array.of_list nest.Nest.levels in
  let prefixes =
    List.concat_map (fun (l : Nest.level) -> l.Nest.prefix) nest.Nest.levels
  in
  let rec chain k =
    let l = levels.(perm.(k)) in
    let body =
      if k = Array.length perm - 1 then nest.Nest.body else [ chain (k + 1) ]
    in
    { l.Nest.loop_stmt with Stmt.desc = Stmt.Do_loop { l.Nest.header with Stmt.body } }
  in
  prefixes @ [ chain 0 ]

let order_name prog (func : Func.t) (nest : Nest.t) (perm : int array) =
  let levels = Array.of_list nest.Nest.levels in
  String.concat ","
    (List.map
       (fun k ->
         let id = levels.(k).Nest.index in
         match Prog.find_var prog (Some func) id with
         | Some v -> v.Var.name
         | None -> string_of_int id)
       (Array.to_list perm))

let run ?(stats = new_stats ()) (decide : Decide.t) (prog : Prog.t)
    (func : Func.t) : bool =
  let changed = ref false in
  let try_nest (s : Stmt.t) : Stmt.t list option =
    match
      Nest.analyze ~assume_noalias:decide.Decide.assume_noalias ~prog ~func s
    with
    | None -> None
    | Some nest ->
        stats.nests_examined <- stats.nests_examined + 1;
        let d = Nest.depth nest in
        let shape = Cost.shape_of_stmts nest.Nest.body in
        let trips, used_pgo = level_trips decide nest.Nest.levels in
        if used_pgo then stats.pgo_trip_nests <- stats.pgo_trip_nests + 1;
        let legal, illegal =
          List.partition
            (fun p -> Nest.legal_permutation p nest)
            (permutations d)
        in
        stats.orders_rejected_legality <-
          stats.orders_rejected_legality + List.length illegal;
        (* normalized edges make the identity order always legal *)
        let scored =
          List.map (fun p -> (order_cost decide nest ~shape ~trips p, p)) legal
        in
        let id_cost, id_perm =
          match scored with c :: _ -> c | [] -> assert false
        in
        let best_cost, best =
          List.fold_left
            (fun (bc, bp) (c, p) -> if c < bc then (c, p) else (bc, bp))
            (id_cost, id_perm) scored
        in
        let reorders = best <> id_perm in
        let interchange =
          Decide.override decide (Decide.Interchange s.Stmt.loc) (function
            | Some false -> false
            | Some true -> reorders && best_cost <= id_cost
            | None -> reorders && best_cost < id_cost)
        in
        (match decide.Decide.report with
        | Some report ->
            report
              (Printf.sprintf
                 "interchange %s: nest (%s) est=%d%s: %s (%d order%s illegal)"
                 func.Func.name
                 (order_name prog func nest id_perm)
                 id_cost
                 (if interchange then
                    Printf.sprintf " -> (%s) est=%d"
                      (order_name prog func nest best)
                      best_cost
                  else "")
                 (if interchange then "interchanged" else "kept")
                 (List.length illegal)
                 (if List.length illegal = 1 then "" else "s"))
        | None -> ());
        if interchange then begin
          stats.nests_interchanged <- stats.nests_interchanged + 1;
          changed := true;
          Some (rebuild nest best)
        end
        else None
  in
  let rec walk stmts = List.concat_map walk_stmt stmts
  and walk_stmt (s : Stmt.t) : Stmt.t list =
    match s.Stmt.desc with
    | Stmt.Do_loop d -> (
        match try_nest s with
        | Some stmts -> stmts
        | None ->
            [ { s with Stmt.desc = Stmt.Do_loop { d with Stmt.body = walk d.body } } ])
    | Stmt.If (c, t, e) ->
        [ { s with Stmt.desc = Stmt.If (c, walk t, walk e) } ]
    | Stmt.While (li, c, b) ->
        [ { s with Stmt.desc = Stmt.While (li, c, walk b) } ]
    | _ -> [ s ]
  in
  func.Func.body <- walk func.Func.body;
  !changed
