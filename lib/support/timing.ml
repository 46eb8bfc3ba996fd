(* Per-phase wall-clock self-profile.  A [t] accumulates seconds into
   named buckets in first-use order; the compiler driver wraps each
   pipeline phase in [time], and [--timings] prints the table so cache
   hits in server mode are attributable to the phases they skip. *)

type t = {
  mutable phases : (string * float ref) list;  (* reversed first-use order *)
  mutable depth : int;  (* buckets open now *)
  mutable outer : float;  (* seconds inside outermost buckets *)
}

let create () = { phases = []; depth = 0; outer = 0.0 }

let bucket t name =
  match List.assoc_opt name t.phases with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      t.phases <- (name, r) :: t.phases;
      r

let time t name f =
  let r = bucket t name in
  let t0 = Unix.gettimeofday () in
  t.depth <- t.depth + 1;
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      r := !r +. dt;
      t.depth <- t.depth - 1;
      if t.depth = 0 then t.outer <- t.outer +. dt)
    f

let phases t = List.rev_map (fun (name, r) -> (name, !r)) t.phases

let total t = t.outer

(* One line per phase, widest bucket first-use order preserved:
     [timings] parse         0.004s  12.3%
   Milliseconds would overflow on big monorepo batches; seconds with
   three decimals reads fine at both scales. *)
let to_string t =
  let ph = phases t in
  let tot = total t in
  let width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 5 ph
  in
  let line (name, s) =
    Printf.sprintf "[timings] %-*s %8.3fs %5.1f%%" width name s
      (if tot > 0.0 then 100.0 *. s /. tot else 0.0)
  in
  String.concat "\n" (List.map line ph @ [ line ("total", tot) ])

let report t oc = output_string oc (to_string t ^ "\n")
