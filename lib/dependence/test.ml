(* Dependence tests on affine single-index subscripts: ZIV, strong SIV,
   and the GCD and Banerjee tests for the general case [Bane 76, Wolf 78,
   Alle 83].

   Both references run over iterations 0..U (U = trip-1, possibly
   unknown).  Reference 1 touches  D1 + c1*i,  reference 2 touches
   D2 + c2*j  with the byte distance  delta = D2 - D1  known from alias
   analysis; a dependence exists iff  c1*i - c2*j = delta  has a solution
   in range. *)

type verdict =
  | Independent
  | Dependent of { distance : int option; dist_lo : int option }
      (* [distance]: iterations when both strides are equal and the
         solution is unique; [None] = unknown/varying.  distance > 0:
         reference 2's access happens that many iterations after
         reference 1 touches the same location.  [dist_lo]: meaningful
         only when [distance = None] — [Some l] with l >= 1 asserts
         every solution has distance >= l (the dependence is strictly
         forward, at least [l] iterations apart), proven from the range
         oracle's interval on the symbolic byte distance.  [None] = no
         bound known. *)

let dep ?dist_lo distance = Dependent { distance; dist_lo }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Conservative iteration-count bound; [None] = unknown (unbounded). *)
type bound = int option

let ziv ~delta = if delta = 0 then dep (Some 0) else Independent

(* strong SIV: equal strides c: c*i - c*j = delta  ⇒  i - j = delta/c *)
let strong_siv ~c ~delta ~(trip : bound) =
  if delta mod c <> 0 then Independent
  else
    let d = -(delta / c) in
    (* location touched by ref1 at iteration i equals ref2 at j = i - delta/c;
       distance (j - i after normalization) = -delta/c in our convention *)
    let in_range =
      match trip with None -> true | Some u -> abs d < u
    in
    if in_range then dep (Some d) else Independent

(* weak-zero SIV: one reference is loop-invariant (stride 0); the other
   hits it in at most one iteration. *)
let weak_zero_siv ~c ~delta ~(trip : bound) =
  (* c*i = delta *)
  if c = 0 then if delta = 0 then dep None else Independent
  else if delta mod c <> 0 then Independent
  else
    let i = delta / c in
    let in_range =
      i >= 0 && match trip with None -> true | Some u -> i < u
    in
    if in_range then dep None else Independent

(* GCD test for c1*i - c2*j = delta. *)
let gcd_test ~c1 ~c2 ~delta =
  let g = gcd c1 c2 in
  if g = 0 then delta = 0
  else delta mod g = 0

(* Banerjee bounds: is delta within [min, max] of c1*i - c2*j for
   0 <= i, j <= U-1? *)
let banerjee ~c1 ~c2 ~delta ~(trip : bound) =
  match trip with
  | None -> true  (* unbounded: cannot exclude *)
  | Some u ->
      let m = u - 1 in
      if m < 0 then false
      else
        let pos x = max x 0 and neg x = min x 0 in
        let lo = (neg c1 * m) - (pos c2 * m) in
        let hi = (pos c1 * m) - (neg c2 * m) in
        delta >= lo && delta <= hi

(* Main entry: dependence between two affine references with byte strides
   [c1], [c2], and byte distance [delta] between their bases (base2 -
   base1), over [trip] iterations.  Accesses conflict on byte-address
   equality: the lowering keeps all scalar accesses width-aligned, so
   same-width references at unequal addresses never partially overlap. *)
let affine ~c1 ~c2 ~delta ~trip =
  if c1 = 0 && c2 = 0 then ziv ~delta
  else if c1 = c2 then strong_siv ~c:c1 ~delta ~trip
  else if c1 = 0 then weak_zero_siv ~c:c2 ~delta:(-delta) ~trip
  else if c2 = 0 then weak_zero_siv ~c:c1 ~delta ~trip
  else if not (gcd_test ~c1 ~c2 ~delta) then Independent
  else if not (banerjee ~c1 ~c2 ~delta ~trip) then Independent
  else dep None

(* ---- direction vectors over loop nests [Wolf 78, Alle 83] ---- *)

type direction = Lt | Eq | Gt

(* Feasible direction vectors for a dependence between two references in
   a nest of depth d: reference 1 touches  D1 + Σ c1.(k)*i_k,  reference
   2 touches  D2 + Σ c2.(k)*j_k,  each index over 0..trips.(k)-1,
   delta = D2 - D1.  A vector (d_0,...,d_{depth-1}) with d_k ∈ {<,=,>}
   is feasible when  Σ_k (c1.(k)*i_k - c2.(k)*j_k) = delta  has a
   solution with each (i_k, j_k) satisfying i_k d_k j_k.

   Per-level the term  f_k = c1.(k)*i - c2.(k)*j  ranges over an interval
   whose endpoints are attained at the corner points of the
   direction-constrained triangle (f_k is linear, so extrema sit on hull
   vertices); the whole-vector test sums the intervals and applies the
   GCD test across all levels.  Sound: intervals only over-approximate. *)
let direction_vectors ~(c1 : int array) ~(c2 : int array) ~delta
    ~(trips : bound array) : direction list list =
  let depth = Array.length c1 in
  let g = ref 0 in
  Array.iter (fun c -> g := gcd !g c) c1;
  Array.iter (fun c -> g := gcd !g c) c2;
  let gcd_ok = if !g = 0 then delta = 0 else delta mod !g = 0 in
  if not gcd_ok then []
  else begin
    (* extended interval: None = unbounded on that side *)
    let minl = List.fold_left min max_int and maxl = List.fold_left max min_int in
    let level_range k (dir : direction) : (int option * int option) option =
      let a = c1.(k) and b = c2.(k) in
      match trips.(k), dir with
      | Some t, _ when t <= 0 -> None (* the level never iterates *)
      | Some t, Eq ->
          let v = (a - b) * (t - 1) in
          Some (Some (min 0 v), Some (max 0 v))
      | Some t, Lt ->
          if t < 2 then None
          else
            let u = t - 1 in
            (* region 0 <= i < j <= u; hull corners (0,1),(0,u),(u-1,u) *)
            let vs = [ -b; -b * u; (a * (u - 1)) - (b * u) ] in
            Some (Some (minl vs), Some (maxl vs))
      | Some t, Gt ->
          if t < 2 then None
          else
            let u = t - 1 in
            (* region 0 <= j < i <= u; hull corners (1,0),(u,0),(u,u-1) *)
            let vs = [ a; a * u; (a * u) - (b * (u - 1)) ] in
            Some (Some (minl vs), Some (maxl vs))
      | None, Eq ->
          let d = a - b in
          if d = 0 then Some (Some 0, Some 0)
          else if d > 0 then Some (Some 0, None)
          else Some (None, Some 0)
      | None, Lt ->
          (* cone from vertex (0,1) along generators (0,1) and (1,1) *)
          let lo = if a - b < 0 || b > 0 then None else Some (-b) in
          let hi = if a - b > 0 || b < 0 then None else Some (-b) in
          Some (lo, hi)
      | None, Gt ->
          (* cone from vertex (1,0) along generators (1,0) and (1,1) *)
          let lo = if a - b < 0 || a < 0 then None else Some a in
          let hi = if a - b > 0 || a > 0 then None else Some a in
          Some (lo, hi)
    in
    let add_ext a b =
      match a, b with None, _ | _, None -> None | Some x, Some y -> Some (x + y)
    in
    let results = ref [] in
    let rec enum k dirs (lo, hi) =
      if k = depth then begin
        let ok_lo = match lo with None -> true | Some l -> delta >= l in
        let ok_hi = match hi with None -> true | Some h -> delta <= h in
        if ok_lo && ok_hi then results := List.rev dirs :: !results
      end
      else
        List.iter
          (fun dir ->
            match level_range k dir with
            | None -> ()
            | Some (l, h) ->
                enum (k + 1) (dir :: dirs) (add_ext lo l, add_ext hi h))
          [ Lt; Eq; Gt ]
    in
    enum 0 [] (Some 0, Some 0);
    List.rev !results
  end

(* ---- symbolic range oracle [§5: symbolic dependence testing] ----

   When alias analysis answers May_alias the bases differ by a symbolic
   byte distance.  A scoped oracle (installed by the vectorizer from the
   range analysis) can evaluate that distance: a point value re-enters
   the exact test battery above; an interval feeds interval forms of the
   GCD and Banerjee tests.  [note] reports the distance expression whose
   range was too weak, for [--why-scalar]. *)
type oracle = {
  interval : Vpc_il.Expr.t -> int option * int option;
      (* sound bounds on an integer expression at the tested loop;
         [(None, None)] when nothing is known *)
  note : Vpc_il.Expr.t -> string -> unit;
}

(* Domain-local for the same reason as {!Alias.oracle}: concurrent
   server pipelines each install their own range oracle. *)
let oracle_ref : oracle option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_oracle (o : oracle) f =
  let saved = Domain.DLS.get oracle_ref in
  Domain.DLS.set oracle_ref (Some o);
  Fun.protect ~finally:(fun () -> Domain.DLS.set oracle_ref saved) f

(* Interval counterpart of [affine]: delta is only known to lie in
   [dlo, dhi] (either side possibly unbounded).  Independence holds when
   no value in the interval admits a solution: either no multiple of
   gcd(c1,c2) lies inside, or the whole interval sits outside the
   Banerjee span of c1*i - c2*j over the trip range. *)
let interval_affine ~c1 ~c2 ~(dlo : int option) ~(dhi : int option)
    ~(trip : bound) : verdict =
  let g = gcd c1 c2 in
  let no_multiple =
    match dlo, dhi with
    | Some l, Some h when g > 1 ->
        let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
        let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b) in
        fdiv h g < cdiv l g
    | Some l, _ when g = 0 -> l > 0
    | _, Some h when g = 0 -> h < 0
    | _ -> false
  in
  if no_multiple then Independent
  else
    let outside_banerjee =
      match trip with
      | None -> false
      | Some u ->
          let m = u - 1 in
          m < 0
          ||
          let pos x = max x 0 and neg x = min x 0 in
          let blo = (neg c1 * m) - (pos c2 * m) in
          let bhi = (pos c1 * m) - (neg c2 * m) in
          (match dlo with Some l -> l > bhi | None -> false)
          || (match dhi with Some h -> h < blo | None -> false)
    in
    if outside_banerjee then Independent
    else
      (* Equal strides c: every surviving solution has iteration distance
         d = -delta/c.  The interval endpoint on the side that minimizes
         d then bounds it below; a bound >= 1 proves the dependence
         strictly forward, which is what a doacross loop can order with a
         cumulative sync even though the exact distance stays symbolic. *)
      let dist_lo =
        if c1 = c2 && c1 <> 0 then begin
          let c = c1 in
          let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
          let lo =
            if c > 0 then
              (* d = -delta/c decreases in delta: min at delta = dhi *)
              Option.map (fun h -> -fdiv h c) dhi
            else
              (* c < 0: d = delta/|c| increases in delta: min at dlo *)
              Option.map (fun l -> -fdiv (-l) (-c)) dlo
          in
          match lo with Some l when l >= 1 -> Some l | _ -> None
        end
        else None
      in
      dep ?dist_lo None

(* May_alias with both subscripts affine: ask the oracle for the byte
   distance between the bases. *)
let may_alias_affine (a1 : Subscript.affine) (a2 : Subscript.affine) ~trip :
    verdict =
  match Domain.DLS.get oracle_ref with
  | None -> dep None
  | Some o -> (
      let delta_e =
        Vpc_analysis.Simplify.expr
          (Vpc_il.Expr.binop Vpc_il.Expr.Sub a2.Subscript.base
             a1.Subscript.base Vpc_il.Ty.Int)
      in
      let c1 = a1.Subscript.coeff and c2 = a2.Subscript.coeff in
      match o.interval delta_e with
      | Some l, Some h when l = h -> affine ~c1 ~c2 ~delta:l ~trip
      | (dlo, dhi) as itv -> (
          match interval_affine ~c1 ~c2 ~dlo ~dhi ~trip with
          | Independent -> Independent
          | Dependent _ as dep ->
              let side = function None -> "*" | Some n -> string_of_int n in
              o.note delta_e
                (if itv = (None, None) then "unknown"
                 else
                   Printf.sprintf "only known to lie in [%s,%s]" (side dlo)
                     (side dhi));
              dep))

(* Calls counted per domain for the benchmark's dependence metrics. *)
let lookups : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let cache_stats () = (0, !(Domain.DLS.get lookups))

(* Test two references given their subscript decompositions and an alias
   verdict on their bases. *)
let references ?(assume_noalias = false) ~trip (r1 : Subscript.reference)
    (r2 : Subscript.reference) structs : verdict =
  ignore structs;
  incr (Domain.DLS.get lookups);
  match r1.Subscript.affine, r2.Subscript.affine with
  | Some a1, Some a2 -> (
      match Alias.bases ~assume_noalias a1.Subscript.base a2.Subscript.base with
      | Alias.No_alias -> Independent
      | Alias.Must_alias delta ->
          affine ~c1:a1.Subscript.coeff ~c2:a2.Subscript.coeff ~delta ~trip
      | Alias.May_alias -> may_alias_affine a1 a2 ~trip)
  | _ ->
      (* a non-affine reference may touch anything its base can reach *)
      (match
         ( Option.map (fun (a : Subscript.affine) -> a.Subscript.base) r1.affine,
           Option.map (fun (a : Subscript.affine) -> a.Subscript.base) r2.affine )
       with
      | Some b1, Some b2 when Alias.bases ~assume_noalias b1 b2 = Alias.No_alias ->
          Independent
      | _ -> dep None)
