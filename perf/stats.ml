(* Order statistics for the benchmark's reports. *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      List.nth s (max 1 (min n rank) - 1)

(* Samples strictly above the nearest-rank [p]th percentile's position.
   A percentile is reported only when at least ten samples lie beyond
   it, so p90 needs 100 samples. *)
let beyond p n =
  n - max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so a spread reads the same whichever of the
   two computes it. *)
let quartiles xs =
  let d = Array.of_list (sorted xs) in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
      List.iter
        (fun x -> if not (x > 0.0) then invalid_arg "Stats.geomean: x <= 0")
        xs;
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
