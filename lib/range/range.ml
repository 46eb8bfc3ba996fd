(* Interprocedural symbolic value-range and scalar-evolution analysis.
   See range.mli for the overall design.

   Soundness policy for machine arithmetic: intervals are clamped to the
   32-bit signed range — any arithmetic whose exact result could leave
   that range collapses to top, so wrapping executions are covered.
   Affine forms, in contrast, model exact mathematics; they rely on the
   C license that signed overflow is undefined (and on the lowering
   keeping pointer arithmetic inside its object), which is also what the
   [--lint] overflow rule polices. *)

module Expr = Vpc_il.Expr
module Stmt = Vpc_il.Stmt
module Ty = Vpc_il.Ty
module Var = Vpc_il.Var
module Func = Vpc_il.Func
module Prog = Vpc_il.Prog

let int32_min = -0x8000_0000
let int32_max = 0x7fff_ffff

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)

module Interval = struct
  type t = { lo : int option; hi : int option }

  let top = { lo = None; hi = None }

  (* canonical empty interval *)
  let bot = { lo = Some 1; hi = Some 0 }

  let is_bot t =
    match t.lo, t.hi with Some l, Some h -> l > h | _ -> false

  let is_top t = t.lo = None && t.hi = None
  let norm t = if is_bot t then bot else t
  let point n = { lo = Some n; hi = Some n }
  let of_bounds lo hi = norm { lo; hi }

  let to_point t =
    match t.lo, t.hi with
    | Some l, Some h when l = h -> Some l
    | _ -> None

  let equal a b = norm a = norm b

  let contains t n =
    (match t.lo with None -> true | Some l -> n >= l)
    && match t.hi with None -> true | Some h -> n <= h

  let le_lo a b =
    (* lower bound a is at or below lower bound b *)
    match a, b with
    | None, _ -> true
    | _, None -> false
    | Some x, Some y -> x <= y

  let ge_hi a b =
    match a, b with
    | None, _ -> true
    | _, None -> false
    | Some x, Some y -> x >= y

  let subset a b =
    is_bot a || ((not (is_bot b)) && le_lo b.lo a.lo && ge_hi b.hi a.hi)

  let join a b =
    if is_bot a then b
    else if is_bot b then a
    else
      {
        lo = (if le_lo a.lo b.lo then a.lo else b.lo);
        hi = (if ge_hi a.hi b.hi then a.hi else b.hi);
      }

  let meet a b =
    if is_bot a || is_bot b then bot
    else
      norm
        {
          lo = (if le_lo a.lo b.lo then b.lo else a.lo);
          hi = (if ge_hi a.hi b.hi then b.hi else a.hi);
        }

  let widen old next =
    if is_bot old then next
    else if is_bot next then old
    else
      {
        lo = (if le_lo old.lo next.lo then old.lo else None);
        hi = (if ge_hi old.hi next.hi then old.hi else None);
      }

  (* Any exact result that could leave the 32-bit signed range may have
     wrapped at run time: give up on that interval entirely. *)
  let clamp t =
    if is_bot t then bot
    else
      let fits = function
        | None -> true
        | Some n -> n >= int32_min && n <= int32_max
      in
      if fits t.lo && fits t.hi then t else top

  (* extended integers for endpoint arithmetic *)
  type ext = Ninf | Fin of int | Pinf

  let elo t = match t.lo with None -> Ninf | Some n -> Fin n
  let ehi t = match t.hi with None -> Pinf | Some n -> Fin n
  let of_elo = function Ninf -> None | Fin n -> Some n | Pinf -> Some max_int
  let of_ehi = function Pinf -> None | Fin n -> Some n | Ninf -> Some min_int

  let eadd a b =
    match a, b with
    | Ninf, Pinf | Pinf, Ninf -> Fin 0 (* never happens on same-side sums *)
    | Ninf, _ | _, Ninf -> Ninf
    | Pinf, _ | _, Pinf -> Pinf
    | Fin x, Fin y -> Fin (x + y)

  let eneg = function Ninf -> Pinf | Pinf -> Ninf | Fin n -> Fin (-n)

  let emul a b =
    match a, b with
    | Fin 0, _ | _, Fin 0 -> Fin 0
    | Fin x, Fin y -> Fin (x * y)
    | (Pinf | Ninf), _ | _, (Pinf | Ninf) ->
        let sign = function
          | Pinf -> 1
          | Ninf -> -1
          | Fin n -> compare n 0
        in
        if sign a * sign b >= 0 then Pinf else Ninf

  let emin a b =
    match a, b with
    | Ninf, _ | _, Ninf -> Ninf
    | Pinf, x | x, Pinf -> x
    | Fin x, Fin y -> Fin (min x y)

  let emax a b =
    match a, b with
    | Pinf, _ | _, Pinf -> Pinf
    | Ninf, x | x, Ninf -> x
    | Fin x, Fin y -> Fin (max x y)

  let add a b =
    if is_bot a || is_bot b then bot
    else
      clamp { lo = of_elo (eadd (elo a) (elo b)); hi = of_ehi (eadd (ehi a) (ehi b)) }

  let neg a =
    if is_bot a then bot
    else clamp { lo = of_elo (eneg (ehi a)); hi = of_ehi (eneg (elo a)) }

  let sub a b = if is_bot a || is_bot b then bot else add a (neg b)

  let mul a b =
    if is_bot a || is_bot b then bot
    else
      let cands =
        [
          emul (elo a) (elo b);
          emul (elo a) (ehi b);
          emul (ehi a) (elo b);
          emul (ehi a) (ehi b);
        ]
      in
      let lo = List.fold_left emin Pinf cands in
      let hi = List.fold_left emax Ninf cands in
      clamp { lo = of_elo lo; hi = of_ehi hi }

  let truth (op : Expr.binop) a b : bool option =
    if is_bot a || is_bot b then None
    else
      let lt_always =
        match a.hi, b.lo with Some h, Some l -> h < l | _ -> false
      in
      let le_always =
        match a.hi, b.lo with Some h, Some l -> h <= l | _ -> false
      in
      let gt_always =
        match a.lo, b.hi with Some l, Some h -> l > h | _ -> false
      in
      let ge_always =
        match a.lo, b.hi with Some l, Some h -> l >= h | _ -> false
      in
      match op with
      | Expr.Lt ->
          if lt_always then Some true else if ge_always then Some false else None
      | Expr.Le ->
          if le_always then Some true else if gt_always then Some false else None
      | Expr.Gt ->
          if gt_always then Some true else if le_always then Some false else None
      | Expr.Ge ->
          if ge_always then Some true else if lt_always then Some false else None
      | Expr.Eq -> (
          if lt_always || gt_always then Some false
          else
            match to_point a, to_point b with
            | Some x, Some y -> Some (x = y)
            | _ -> None)
      | Expr.Ne -> (
          if lt_always || gt_always then Some true
          else
            match to_point a, to_point b with
            | Some x, Some y -> Some (x <> y)
            | _ -> None)
      | _ -> None

  let pp fmt t =
    if is_bot t then Format.fprintf fmt "empty"
    else
      let b fmt = function
        | None -> Format.fprintf fmt "*"
        | Some n -> Format.fprintf fmt "%d" n
      in
      Format.fprintf fmt "[%a,%a]" b t.lo b t.hi

  let to_string t = Format.asprintf "%a" pp t
end

(* ------------------------------------------------------------------ *)
(* Affine forms                                                        *)

module Affine = struct
  type sym = Svar of int | Saddr of int

  type t = { terms : (sym * int) list; const : int }

  let sym_compare (a : sym) (b : sym) = compare a b

  let norm terms =
    terms
    |> List.filter (fun (_, c) -> c <> 0)
    |> List.sort (fun (s1, _) (s2, _) -> sym_compare s1 s2)

  let const n = { terms = []; const = n }
  let sym s = { terms = [ (s, 1) ]; const = 0 }

  let add a b =
    let rec merge xs ys =
      match xs, ys with
      | [], r | r, [] -> r
      | (sx, cx) :: tx, (sy, cy) :: ty ->
          let c = sym_compare sx sy in
          if c < 0 then (sx, cx) :: merge tx ys
          else if c > 0 then (sy, cy) :: merge xs ty
          else
            let sum = cx + cy in
            if sum = 0 then merge tx ty else (sx, sum) :: merge tx ty
    in
    { terms = merge (norm a.terms) (norm b.terms); const = a.const + b.const }

  let scale k a =
    if k = 0 then const 0
    else { terms = List.map (fun (s, c) -> (s, c * k)) a.terms; const = a.const * k }

  let neg a = scale (-1) a
  let sub a b = add a (neg b)
  let to_const a = match norm a.terms with [] -> Some a.const | _ -> None
  let equal a b = to_const (sub a b) = Some 0

  let mentions a v =
    List.exists (fun (s, _) -> s = Svar v) (norm a.terms)

  let divisible_by a d =
    d <> 0
    && a.const mod d = 0
    && List.for_all (fun (_, c) -> c mod d = 0) (norm a.terms)

  let pp fmt a =
    let terms = norm a.terms in
    if terms = [] then Format.fprintf fmt "%d" a.const
    else begin
      List.iteri
        (fun i (s, c) ->
          let sep = if i = 0 then (if c < 0 then "-" else "") else if c < 0 then " - " else " + " in
          let c = abs c in
          let name = match s with Svar v -> Format.sprintf "v%d" v | Saddr v -> Format.sprintf "&v%d" v in
          if c = 1 then Format.fprintf fmt "%s%s" sep name
          else Format.fprintf fmt "%s%d*%s" sep c name)
        terms;
      if a.const > 0 then Format.fprintf fmt " + %d" a.const
      else if a.const < 0 then Format.fprintf fmt " - %d" (-a.const)
    end

  let to_string a = Format.asprintf "%a" pp a
end

type value = { itv : Interval.t; aff : Affine.t option }

let top_value = { itv = Interval.top; aff = None }
let value_of_interval itv = { itv; aff = None }
let value_of_const n = { itv = Interval.point n; aff = Some (Affine.const n) }

(* ------------------------------------------------------------------ *)
(* Scalar evolutions                                                   *)

module Evo = struct
  type t = { base : Affine.t; step : int }

  let advance e k = Affine.add e.base (Affine.const (e.step * k))

  (* The inner evolution as seen during outer iteration [k], for the
     common nest where the inner base shifts by the outer step each
     outer iteration (row walks: base + k*outer.step + j*inner.step). *)
  let compose ~(outer : t) k ~(inner : t) =
    { base = Affine.add inner.base (Affine.const (outer.step * k)); step = inner.step }
end

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries                                           *)

module IMap = Map.Make (Int)

type t = { params : (string, Interval.t IMap.t) Hashtbl.t }

let param_interval t fname id =
  match Hashtbl.find_opt t.params fname with
  | None -> Interval.top
  | Some m -> ( match IMap.find_opt id m with None -> Interval.top | Some i -> i)

(* ------------------------------------------------------------------ *)
(* Per-function environments                                           *)

type env = {
  vals : value IMap.t;
  varinfo : int -> Var.t option;
}

(* Interval implied by a variable's type alone. *)
let ty_interval (ty : Ty.t) =
  match ty with
  | Ty.Char -> Interval.of_bounds (Some (-128)) (Some 127)
  | _ -> Interval.top

(* Is [v] usable as a stable symbol in affine forms?  Its value must
   only change via explicit scalar assignment (which the dataflow sees
   and kills): integer or pointer scalars that are not volatile. *)
let symbolizable (v : Var.t) =
  (not v.Var.volatile)
  && (not (Var.is_memory_object v))
  && (Ty.is_integer v.Var.ty || Ty.is_pointer v.Var.ty)

let default_value (env : env) id =
  match env.varinfo id with
  | Some v when symbolizable v ->
      { itv = ty_interval v.Var.ty; aff = Some (Affine.sym (Affine.Svar id)) }
  | Some v -> { itv = ty_interval v.Var.ty; aff = None }
  | None -> top_value

let lookup env id =
  match IMap.find_opt id env.vals with
  | Some v -> v
  | None -> default_value env id

(* Re-evaluate an affine form as an interval: each variable symbol
   contributes the interval of its current binding, address symbols are
   unbounded.  Lets a client bound the non-address part of an address
   value (a subscript offset) after cancelling the base. *)
let interval_of_affine env (a : Affine.t) =
  List.fold_left
    (fun acc (s, c) ->
      let si =
        match s with
        | Affine.Svar id -> (lookup env id).itv
        | Affine.Saddr _ -> Interval.top
      in
      Interval.add acc (Interval.mul (Interval.point c) si))
    (Interval.point a.Affine.const)
    a.Affine.terms

(* A binding carrying no information beyond the default. *)
let is_default env id (v : value) =
  let d = default_value env id in
  Interval.equal v.itv d.itv
  &&
  match v.aff, d.aff with
  | None, None -> true
  | Some a, Some b -> Affine.equal a b
  | None, Some _ ->
      (* the tautological self-symbol carries no information either *)
      Interval.equal v.itv d.itv && Interval.is_top d.itv
  | Some _, None -> false

let set env id v =
  if is_default env id v then { env with vals = IMap.remove id env.vals }
  else { env with vals = IMap.add id v env.vals }

(* Kill affine forms that mention the (old) value of [id]. *)
let kill_mentions env id =
  let vals =
    IMap.map
      (fun v ->
        match v.aff with
        | Some a when Affine.mentions a id -> { v with aff = None }
        | _ -> v)
      env.vals
  in
  { env with vals }

(* [id] is assigned [v]: dependent forms die, then the binding lands.
   A volatile variable's value may change between the assignment and
   any later read, so it never gets a binding at all. *)
let assign env id v =
  let volatile =
    match env.varinfo id with Some var -> var.Var.volatile | None -> true
  in
  let v =
    match v.aff with
    | Some a when Affine.mentions a id -> { v with aff = None }
    | _ -> v
  in
  let env = kill_mentions env id in
  if volatile then { env with vals = IMap.remove id env.vals } else set env id v

let havoc env id =
  let env = kill_mentions env id in
  { env with vals = IMap.remove id env.vals }

(* {!havoc} every variable of [ids] in one sweep: their bindings go, and
   every form that mentions any of them dies. *)
let havoc_all env (ids : (int, unit) Hashtbl.t) =
  let mentions_any (a : Affine.t) =
    List.exists
      (fun (s, c) ->
        c <> 0
        && match s with Affine.Svar v -> Hashtbl.mem ids v | Affine.Saddr _ -> false)
      a.Affine.terms
  in
  let vals =
    IMap.filter_map
      (fun id v ->
        if Hashtbl.mem ids id then None
        else
          match v.aff with
          | Some a when mentions_any a -> Some { v with aff = None }
          | _ -> Some v)
      env.vals
  in
  { env with vals }

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

let rec eval env (e : Expr.t) : value =
  match e.Expr.desc with
  | Expr.Const_int n -> value_of_const n
  | Expr.Const_float _ -> top_value
  | Expr.Var id ->
      if Ty.is_integer e.Expr.ty || Ty.is_pointer e.Expr.ty then begin
        let v = lookup env id in
        match v.aff with
        | Some _ -> v
        | None -> (
            (* a join/widen may have dropped the binding's affine form,
               but [Svar id] — "the current value of id" — is always a
               correct one for a stable variable ({!assign} keeps every
               form that mentions [id] honest) *)
            match env.varinfo id with
            | Some vi when symbolizable vi ->
                { v with aff = Some (Affine.sym (Affine.Svar id)) }
            | _ -> v)
      end
      else top_value
  | Expr.Addr_of id -> { itv = Interval.top; aff = Some (Affine.sym (Affine.Saddr id)) }
  | Expr.Load _ -> top_value
  | Expr.Cast (ty, a) ->
      let va = eval env a in
      if Ty.is_integer ty && (Ty.is_integer a.Expr.ty || Ty.is_pointer a.Expr.ty)
      then
        if ty = Ty.Char then
          (* may wrap into the char range; keep only what survives *)
          if Interval.subset va.itv (ty_interval Ty.Char) then va
          else { itv = ty_interval Ty.Char; aff = None }
        else va
      else if Ty.is_pointer ty && (Ty.is_pointer a.Expr.ty || Ty.is_integer a.Expr.ty)
      then va
      else top_value
  | Expr.Unop (Expr.Neg, a) ->
      let va = eval env a in
      { itv = Interval.neg va.itv; aff = Option.map Affine.neg va.aff }
  | Expr.Unop (Expr.Lognot, a) -> (
      let va = eval env a in
      match Interval.to_point va.itv with
      | Some 0 -> value_of_const 1
      | Some _ -> value_of_const 0
      | None ->
          if Interval.contains va.itv 0 then
            value_of_interval (Interval.of_bounds (Some 0) (Some 1))
          else value_of_const 0)
  | Expr.Unop (Expr.Bitnot, a) ->
      (* ~x = -x - 1 *)
      let va = eval env a in
      {
        itv = Interval.sub (Interval.neg va.itv) (Interval.point 1);
        aff = Option.map (fun x -> Affine.sub (Affine.neg x) (Affine.const 1)) va.aff;
      }
  | Expr.Binop (op, a, b) -> eval_binop env op a b

and eval_binop env op a b =
  let va = eval env a and vb = eval env b in
  (* The affine form can be sharper than the structural interval: in
     [(p + 4*k) - p] the address symbols cancel and re-evaluating the
     residue [4*k] through [k]'s binding bounds a difference the
     interval arithmetic saw as top-minus-top.  Both are sound, so meet. *)
  let refine v =
    match v.aff with
    | None -> v
    | Some x -> { v with itv = Interval.meet v.itv (interval_of_affine env x) }
  in
  let both f g =
    refine
      {
        itv = f va.itv vb.itv;
        aff = (match va.aff, vb.aff with Some x, Some y -> g x y | _ -> None);
      }
  in
  match op with
  | Expr.Add -> both Interval.add (fun x y -> Some (Affine.add x y))
  | Expr.Sub -> both Interval.sub (fun x y -> Some (Affine.sub x y))
  | Expr.Mul -> (
      let aff =
        match (va.aff, Affine.to_const (Option.value vb.aff ~default:(Affine.sym (Affine.Svar (-1))))) with
        | Some x, Some k -> Some (Affine.scale k x)
        | _ -> (
            match (vb.aff, Option.bind va.aff Affine.to_const) with
            | Some y, Some k -> Some (Affine.scale k y)
            | _ -> None)
      in
      match aff with
      | Some _ -> { itv = Interval.mul va.itv vb.itv; aff }
      | None -> { itv = Interval.mul va.itv vb.itv; aff = None })
  | Expr.Div -> (
      match Interval.to_point vb.itv with
      | Some c when c > 0 ->
          (* truncating division is monotone in the numerator for a
             positive divisor *)
          let d = function None -> None | Some n -> Some (n / c) in
          value_of_interval
            (Interval.of_bounds (d va.itv.Interval.lo) (d va.itv.Interval.hi))
      | _ -> top_value)
  | Expr.Rem -> (
      match Interval.to_point vb.itv with
      | Some c when c <> 0 ->
          let m = abs c - 1 in
          let base =
            match va.itv.Interval.lo with
            | Some l when l >= 0 -> Interval.of_bounds (Some 0) (Some m)
            | _ -> Interval.of_bounds (Some (-m)) (Some m)
          in
          (* |a mod c| <= |a| as well *)
          let refine =
            match va.itv.Interval.lo, va.itv.Interval.hi with
            | Some l, Some h when l >= 0 -> Interval.of_bounds (Some 0) (Some h)
            | _ -> Interval.top
          in
          value_of_interval (Interval.meet base refine)
      | _ -> top_value)
  | Expr.Shl -> (
      match Interval.to_point vb.itv with
      | Some k when k >= 0 && k < 31 ->
          let f = 1 lsl k in
          {
            itv = Interval.mul va.itv (Interval.point f);
            aff = Option.map (Affine.scale f) va.aff;
          }
      | _ -> top_value)
  | Expr.Shr -> (
      match Interval.to_point vb.itv with
      | Some k when k >= 0 && k < 63 ->
          (* arithmetic shift is monotone *)
          let d = function None -> None | Some n -> Some (n asr k) in
          value_of_interval
            (Interval.of_bounds (d va.itv.Interval.lo) (d va.itv.Interval.hi))
      | _ -> top_value)
  | Expr.Band -> (
      (* x & m with 0 <= m is within [0, m] in two's complement *)
      let nonneg_mask v =
        match v.itv.Interval.lo, v.itv.Interval.hi with
        | Some l, Some h when l >= 0 -> Some h
        | _ -> None
      in
      match nonneg_mask vb, nonneg_mask va with
      | Some m, _ | _, Some m ->
          value_of_interval (Interval.of_bounds (Some 0) (Some m))
      | None, None -> top_value)
  | Expr.Bor | Expr.Bxor -> (
      (* nonnegative inputs below a power of two stay below it *)
      let bound v =
        match v.itv.Interval.lo, v.itv.Interval.hi with
        | Some l, Some h when l >= 0 -> Some h
        | _ -> None
      in
      match bound va, bound vb with
      | Some ha, Some hb ->
          let rec up n = if n - 1 >= ha && n - 1 >= hb then n - 1 else up (n * 2) in
          value_of_interval (Interval.of_bounds (Some 0) (Some (up 1)))
      | _ -> top_value)
  | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> (
      match truth_values op va vb with
      | Some true -> value_of_const 1
      | Some false -> value_of_const 0
      | None -> value_of_interval (Interval.of_bounds (Some 0) (Some 1)))

(* Truth of [a op b] from two values: affine difference first (it
   cancels common symbols), then plain interval comparison. *)
and truth_values op va vb : bool option =
  let via_aff =
    match va.aff, vb.aff with
    | Some x, Some y -> (
        match Affine.to_const (Affine.sub x y) with
        | Some d -> Interval.truth op (Interval.point d) (Interval.point 0)
        | None -> None)
    | _ -> None
  in
  match via_aff with
  | Some r -> Some r
  | None -> Interval.truth op va.itv vb.itv

let interval_of_expr env e = (eval env e).itv

let truth env (cond : Expr.t) : bool option =
  match cond.Expr.desc with
  | Expr.Binop (((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), a, b)
    when Ty.is_integer a.Expr.ty || Ty.is_pointer a.Expr.ty ->
      truth_values op (eval env a) (eval env b)
  | _ when Ty.is_integer cond.Expr.ty -> (
      let v = eval env cond in
      match Interval.to_point v.itv with
      | Some 0 -> Some false
      | Some _ -> Some true
      | None -> if Interval.contains v.itv 0 then None else Some true)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Condition-driven refinement                                         *)

let negate_op : Expr.binop -> Expr.binop = function
  | Expr.Eq -> Expr.Ne
  | Expr.Ne -> Expr.Eq
  | Expr.Lt -> Expr.Ge
  | Expr.Le -> Expr.Gt
  | Expr.Gt -> Expr.Le
  | Expr.Ge -> Expr.Lt
  | op -> op

let swap_op : Expr.binop -> Expr.binop = function
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le
  | op -> op

(* Narrow [x]'s interval knowing [x op bound] holds. *)
let narrow_interval (x : Interval.t) (op : Expr.binop) (bound : Interval.t) =
  if Interval.is_bot x || Interval.is_bot bound then Interval.bot
  else
    let open Interval in
    let dec = Option.map (fun n -> n - 1) and inc = Option.map (fun n -> n + 1) in
    match op with
    | Expr.Lt -> meet x (of_bounds None (dec bound.hi))
    | Expr.Le -> meet x (of_bounds None bound.hi)
    | Expr.Gt -> meet x (of_bounds (inc bound.lo) None)
    | Expr.Ge -> meet x (of_bounds bound.lo None)
    | Expr.Eq -> meet x bound
    | Expr.Ne -> (
        match to_point bound with
        | Some p ->
            if x.lo = Some p then of_bounds (Some (p + 1)) x.hi
            else if x.hi = Some p then of_bounds x.lo (Some (p - 1))
            else x
        | None -> x)
    | _ -> x

(* Peel casts that do not change integer values. *)
let rec strip_cast (e : Expr.t) =
  match e.Expr.desc with
  | Expr.Cast (ty, a)
    when Ty.is_integer ty && ty <> Ty.Char && Ty.is_integer a.Expr.ty ->
      strip_cast a
  | _ -> e

let rec assume (b : bool) (cond : Expr.t) env =
  match cond.Expr.desc with
  | Expr.Unop (Expr.Lognot, e) -> assume (not b) e env
  | Expr.Binop (((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), e1, e2)
    when Ty.is_integer e1.Expr.ty ->
      let op = if b then op else negate_op op in
      let refine_side env (x : Expr.t) op (other : Expr.t) =
        match (strip_cast x).Expr.desc with
        | Expr.Var id -> (
            match env.varinfo id with
            | Some v when symbolizable v ->
                let cur = lookup env id in
                let bound = (eval env other).itv in
                let itv = narrow_interval cur.itv op bound in
                set env id { cur with itv }
            | _ -> env)
        | _ -> env
      in
      let env = refine_side env e1 op e2 in
      refine_side env e2 (swap_op op) e1
  | Expr.Var _ when Ty.is_integer cond.Expr.ty ->
      let op = if b then Expr.Ne else Expr.Eq in
      let cur_refine env =
        match (strip_cast cond).Expr.desc with
        | Expr.Var id -> (
            match env.varinfo id with
            | Some v when symbolizable v ->
                let cur = lookup env id in
                let itv = narrow_interval cur.itv op (Interval.point 0) in
                set env id { cur with itv }
            | _ -> env)
        | _ -> env
      in
      cur_refine env
  | _ -> env

(* ------------------------------------------------------------------ *)
(* Environment lattice                                                 *)

let join_value env id (a : value) (b : value) =
  ignore env;
  ignore id;
  {
    itv = Interval.join a.itv b.itv;
    aff =
      (match a.aff, b.aff with
      | Some x, Some y when Affine.equal x y -> Some x
      | _ -> None);
  }

let join_env (a : env) (b : env) : env =
  let keys = IMap.merge (fun _ x y -> if x = None && y = None then None else Some ()) a.vals b.vals in
  IMap.fold
    (fun id () acc ->
      let va = lookup a id and vb = lookup b id in
      set acc id (join_value a id va vb))
    keys
    { a with vals = IMap.empty }

let widen_env (old : env) (next : env) : env =
  let keys = IMap.merge (fun _ x y -> if x = None && y = None then None else Some ()) old.vals next.vals in
  IMap.fold
    (fun id () acc ->
      let vo = lookup old id and vn = lookup next id in
      let itv = Interval.widen vo.itv vn.itv in
      let aff =
        match vo.aff, vn.aff with
        | Some x, Some y when Affine.equal x y -> Some x
        | _ -> None
      in
      set acc id { itv; aff })
    keys
    { old with vals = IMap.empty }

let env_equal (a : env) (b : env) =
  IMap.equal
    (fun (x : value) (y : value) ->
      Interval.equal x.itv y.itv
      &&
      match x.aff, y.aff with
      | None, None -> true
      | Some p, Some q -> Affine.equal p q
      | _ -> false)
    a.vals b.vals

(* ------------------------------------------------------------------ *)
(* Per-function dataflow                                               *)

type fenv = {
  entry : env;
  before : (int, env) Hashtbl.t;
  evos : (int, Evo.t) Hashtbl.t;
}

let env_before fe id = Hashtbl.find_opt fe.before id

type fctx = {
  fe : fenv;
  (* variables memory writes / calls may modify *)
  unsafe : (int, unit) Hashtbl.t;
  (* variables any statement of the function assigns *)
  assigned : (int, unit) Hashtbl.t;
}

let havoc_unsafe ctx env = havoc_all env ctx.unsafe
let havoc_assigned ctx env = havoc_all env ctx.assigned

let max_widen_rounds = 30

let rec exec ctx ~record env (s : Stmt.t) : env =
  if record then Hashtbl.replace ctx.fe.before s.Stmt.id env;
  match s.Stmt.desc with
  | Stmt.Nop | Stmt.Goto _ | Stmt.Return _ -> env
  | Stmt.Label _ ->
      (* join point with unknown predecessors: anything the function
         assigns (reachable via goto) may hold any value here *)
      havoc_assigned ctx env
  | Stmt.Assign (Stmt.Lvar id, e) -> assign env id (eval env e)
  | Stmt.Assign (Stmt.Lmem _, _) -> havoc_unsafe ctx env
  | Stmt.Vector _ | Stmt.Vdef _ -> havoc_unsafe ctx env
  | Stmt.Call (dst, _, _) ->
      let env = havoc_unsafe ctx env in
      (match dst with
      | Some (Stmt.Lvar id) -> havoc env id
      | Some (Stmt.Lmem _) | None -> env)
  | Stmt.If (c, then_s, else_s) ->
      let t_out = exec_list ctx ~record (assume true c env) then_s in
      let e_out = exec_list ctx ~record (assume false c env) else_s in
      join_env t_out e_out
  | Stmt.While (_, c, body) ->
      let stable = fix_loop ctx env ~enter:(assume true c) ~body in
      if record then
        ignore (exec_list ctx ~record (assume true c stable) body);
      assume false c stable
  | Stmt.Do_loop d ->
      let lo_v = eval env d.Stmt.lo and hi_v = eval env d.Stmt.hi in
      let step = Expr.const_int_val d.Stmt.step in
      (match step, lo_v.aff with
      | Some st, Some base when st <> 0 ->
          Hashtbl.replace ctx.fe.evos s.Stmt.id { Evo.base; step = st }
      | _ -> ());
      let idx_itv =
        match step with
        | Some st when st > 0 ->
            Interval.of_bounds lo_v.itv.Interval.lo hi_v.itv.Interval.hi
        | Some st when st < 0 ->
            Interval.of_bounds hi_v.itv.Interval.lo lo_v.itv.Interval.hi
        | _ -> Interval.top
      in
      let enter env = assign env d.Stmt.index { itv = idx_itv; aff = None } in
      let stable = fix_loop ctx env ~enter ~body:d.Stmt.body in
      if record then ignore (exec_list ctx ~record (enter stable) d.Stmt.body);
      (* after the loop the index sits one step past the last iteration
         (or at lo when the loop never entered) *)
      let after_itv =
        match step with
        | Some st ->
            Interval.join lo_v.itv
              (Interval.add idx_itv (Interval.point st))
        | None -> Interval.top
      in
      assign stable d.Stmt.index { itv = after_itv; aff = None }

and exec_list ctx ~record env stmts =
  List.fold_left (fun env s -> exec ctx ~record env s) env stmts

(* Widening fixpoint for one loop: [enter] refines the environment on
   entry to the body (guard assumption / index bounds). *)
and fix_loop ctx env ~enter ~body =
  let rec go cur n =
    let out = exec_list ctx ~record:false (enter cur) body in
    let merged = join_env cur out in
    let next = if n >= 2 then widen_env cur merged else merged in
    if env_equal next cur || n > max_widen_rounds then next else go next (n + 1)
  in
  go env 0

let analyze_func (t : t) (prog : Prog.t) (f : Func.t) : fenv =
  let varinfo id = Prog.find_var prog (Some f) id in
  let entry =
    List.fold_left
      (fun env pid ->
        match varinfo pid with
        | Some v when symbolizable v ->
            let itv =
              Interval.meet (ty_interval v.Var.ty)
                (param_interval t f.Func.name pid)
            in
            set env pid
              { itv; aff = Some (Affine.sym (Affine.Svar pid)) }
        | _ -> env)
      { vals = IMap.empty; varinfo }
      f.Func.params
  in
  let unsafe = Hashtbl.create 16 in
  Hashtbl.iter (fun id () -> Hashtbl.replace unsafe id ()) (Func.addressed_vars f);
  Hashtbl.iter
    (fun id (v : Var.t) -> if Var.is_global v then Hashtbl.replace unsafe id ())
    f.Func.vars;
  Hashtbl.iter
    (fun id (g : Prog.global) ->
      ignore g;
      Hashtbl.replace unsafe id ())
    prog.Prog.globals;
  let assigned = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Stmt.defined_var s with
      | Some id -> Hashtbl.replace assigned id ()
      | None -> ())
    (Func.all_stmts f);
  let fe = { entry; before = Hashtbl.create 64; evos = Hashtbl.create 8 } in
  let ctx = { fe; unsafe; assigned } in
  ignore (exec_list ctx ~record:true entry f.Func.body);
  fe

(* ------------------------------------------------------------------ *)
(* Whole-program analysis: seed parameter intervals from call sites    *)

let analyze (prog : Prog.t) : t =
  let has_indirect =
    List.exists
      (fun (f : Func.t) ->
        List.exists
          (fun s ->
            match s.Stmt.desc with
            | Stmt.Call (_, Stmt.Indirect _, _) -> true
            | _ -> false)
          (Func.all_stmts f))
      prog.Prog.funcs
  in
  let called = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun s ->
          match s.Stmt.desc with
          | Stmt.Call (_, Stmt.Direct name, _) -> Hashtbl.replace called name ()
          | _ -> ())
        (Func.all_stmts f))
    prog.Prog.funcs;
  let t = { params = Hashtbl.create 16 } in
  (* What one function contributes to its callees' summaries under the
     current [t]: each visible direct call's callee, and the intervals of
     its arguments, in statement order. *)
  let contributions (f : Func.t) =
    let fe = analyze_func t prog f in
    List.filter_map
      (fun s ->
        match s.Stmt.desc with
        | Stmt.Call (_, Stmt.Direct name, args) -> (
            match Prog.find_func prog name, env_before fe s.Stmt.id with
            | Some callee, Some env
              when List.length callee.Func.params = List.length args ->
                Some
                  ( name,
                    callee.Func.params,
                    List.map (fun arg -> (eval env arg).itv) args )
            | _ -> None)
        | _ -> None)
      (Func.all_stmts f)
  in
  (* Join every contribution into fresh summaries for [t]. *)
  let summarize contribs =
    let next : (string, Interval.t IMap.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (List.iter (fun (callee, params, itvs) ->
           let cur =
             match Hashtbl.find_opt next callee with
             | Some m -> m
             | None -> IMap.empty
           in
           let m =
             List.fold_left2
               (fun m pid itv ->
                 let itv =
                   match IMap.find_opt pid m with
                   | Some prev -> Interval.join prev itv
                   | None -> itv
                 in
                 IMap.add pid itv m)
               cur params itvs
           in
           Hashtbl.replace next callee m))
      contribs;
    Hashtbl.reset t.params;
    if not has_indirect then
      Hashtbl.iter
        (fun name m ->
          (* only procedures whose callers are all visible *)
          if Hashtbl.mem called name then Hashtbl.replace t.params name m)
        next
  in
  (* Descending Kleene iteration from top: each round re-analyzes every
     function under the previous round's summaries, then re-joins the
     argument values seen at every visible call site.  Every prefix of
     the descent over-approximates the concrete argument sets, so
     stopping after two rounds is sound.  [analyze_func] reads [t] only
     through {!param_interval}, so a function whose parameters all stay
     top (no summary: [main], an uncalled function, or any function once
     the program calls indirectly) sees round 1's entry again, and round
     2 reuses its round-1 contributions. *)
  let round1 = List.map contributions prog.Prog.funcs in
  summarize round1;
  let entry_unchanged (f : Func.t) =
    List.for_all
      (fun pid -> Interval.is_top (param_interval t f.Func.name pid))
      f.Func.params
  in
  summarize
    (List.map2
       (fun f c1 -> if entry_unchanged f then c1 else contributions f)
       prog.Prog.funcs round1);
  t
