(* The candidate search: bounded coordinate descent over the joint
   per-nest configuration space.

   The driver is deliberately ignorant of how candidates are compiled or
   scored — the [eval] closure owns that (the core library wires it to a
   full [Vpc.optimize] + Titan simulation; tests wire it to a toy
   function).  What lives here is the search discipline:

     - dimensions are swept in a fixed order, one value at a time, with
       all other coordinates held at the incumbent;
     - a candidate replaces the incumbent only when *strictly* cheaper,
       so ties break deterministically toward the static default and an
       all-tied space returns [None] (= keep the untuned compile);
     - every evaluated configuration is memoized by its canonical field
       list, so re-visiting a point during a later sweep is free;
     - an optional [settle] function answers candidates whose result is
       already known without evaluating them (the core library: a
       candidate that makes the same decisions as an earlier compile),
       and the stats record how many evaluations it saved. *)

type stats = {
  mutable evaluated : int;      (* eval calls that actually ran *)
  mutable pruned : int;         (* candidates answered by [settle] *)
  mutable rejected : int;       (* evals that returned None (illegal /
                                   output mismatch) *)
  mutable sim_seconds : float;  (* wall time inside [eval] *)
}

let new_stats () = { evaluated = 0; pruned = 0; rejected = 0; sim_seconds = 0.0 }

type dim = {
  dim_name : string;
  values : (Config.t -> Config.t) list;
      (* each value is a setter applied to the incumbent *)
}

(* Two passes over the dimension list: the second catches interactions
   the first sweep's order hid (e.g. a strip length that only wins once
   the nest is fused).  More passes yield diminishing returns against a
   budget that is real simulator time. *)
let max_sweeps = 2

let search ?(stats = new_stats ()) ?(settle = fun _ -> None) ~(dims : dim list)
    ~(eval : Config.t -> int option) ~(init : Config.t) ~(init_cycles : int)
    () : (Config.t * int) option =
  let memo = Hashtbl.create 32 in
  let evaluate cfg =
    let key = Config.to_fields cfg in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
        let r =
          match settle cfg with
          | Some r ->
              stats.pruned <- stats.pruned + 1;
              r
          | None ->
              let t0 = Unix.gettimeofday () in
              let r = eval cfg in
              stats.sim_seconds <-
                stats.sim_seconds +. (Unix.gettimeofday () -. t0);
              stats.evaluated <- stats.evaluated + 1;
              if r = None then stats.rejected <- stats.rejected + 1;
              r
        in
        Hashtbl.replace memo key r;
        r
  in
  Hashtbl.replace memo (Config.to_fields init) (Some init_cycles);
  let best = ref init and best_cycles = ref init_cycles in
  for _sweep = 1 to max_sweeps do
    List.iter
      (fun dim ->
        List.iter
          (fun set ->
            let cand = set !best in
            if not (Config.equal cand !best) then
              match evaluate cand with
              | Some c when c < !best_cycles ->
                  best := cand;
                  best_cycles := c
              | _ -> ())
          dim.values)
      dims
  done;
  if Config.equal !best init then None else Some (!best, !best_cycles)
