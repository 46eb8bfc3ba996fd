(* Loop fusion (paper §7).

   Adjacent conformable DO loops — flat loops or whole nests of equal
   depth and bounds — are merged into one loop so the vectorizer sees a
   single body: longer vector sections, one strip loop, one barrier.

   Each candidate is analyzed as a [Nest] unit (depth 1–3, stores-only
   body, exact dependence information).  Originally every iteration of
   the first loop runs before any iteration of the second; fusion makes
   iteration I run both bodies, so it is legal exactly when no conflict
   between the two bodies has a lexicographically negative direction
   vector (second-loop access strictly before the first-loop access that
   touches the same location).  Same-iteration conflicts are fine: the
   first body stays textually first.  Scalar state cannot leak between
   the parts — stores-only bodies define no scalars.

   The while→DO limit temps sitting between the loops (the second
   loop's preheader) are kept ahead of the fused loop when provably
   unaffected by the first loop; the second nest's inner-level limit
   temps hoist out the same way.  Profitability is a Titan cost
   comparison of the two separate nests against the fused one. *)

open Vpc_il
open Vpc_dependence
module Cost = Vpc_titan.Cost
module Decide = Vpc_tune.Decide

type stats = {
  mutable pairs_examined : int;        (* adjacent analyzable pairs *)
  mutable loops_fused : int;
  mutable rejected_conformability : int;
  mutable rejected_dependence : int;
  mutable rejected_cost : int;
}

let new_stats () =
  {
    pairs_examined = 0;
    loops_fused = 0;
    rejected_conformability = 0;
    rejected_dependence = 0;
    rejected_cost = 0;
  }

(* ---- helpers ---- *)

let rec subst_expr map (e : Expr.t) : Expr.t =
  match e.Expr.desc with
  | Expr.Var v -> (
      match List.assoc_opt v map with
      | Some v' -> { e with Expr.desc = Expr.Var v' }
      | None -> e)
  | Expr.Load p -> { e with Expr.desc = Expr.Load (subst_expr map p) }
  | Expr.Binop (op, a, b) ->
      { e with Expr.desc = Expr.Binop (op, subst_expr map a, subst_expr map b) }
  | Expr.Unop (op, a) -> { e with Expr.desc = Expr.Unop (op, subst_expr map a) }
  | Expr.Cast (t, a) -> { e with Expr.desc = Expr.Cast (t, subst_expr map a) }
  | Expr.Const_int _ | Expr.Const_float _ | Expr.Addr_of _ -> e

(* Function-wide scalar definition counts and (single) defining rhs, for
   resolving symbolic bounds through their limit temps. *)
let scalar_def_info (func : Func.t) =
  let count = Hashtbl.create 16 and rhs = Hashtbl.create 16 in
  let bump v =
    Hashtbl.replace count v
      (1 + Option.value (Hashtbl.find_opt count v) ~default:0)
  in
  List.iter
    (fun s ->
      Stmt.iter
        (fun (st : Stmt.t) ->
          match st.Stmt.desc with
          | Stmt.Assign (Stmt.Lvar v, e) ->
              bump v;
              Hashtbl.replace rhs v e
          | Stmt.Call (Some (Stmt.Lvar v), _, _) ->
              bump v;
              Hashtbl.remove rhs v
          | Stmt.Do_loop d ->
              bump d.Stmt.index;
              Hashtbl.remove rhs d.Stmt.index
          | _ -> ())
        s)
    func.Func.body;
  (count, rhs)

(* The value a bound variable must hold: its unique defining rhs, when
   that rhs is a pure function of never-assigned locals (parameters).
   Lets [limit_9 = n-1] and [limit_13 = n-1] compare equal. *)
let resolve_bound (func : Func.t) (count, rhs) (e : Expr.t) : Expr.t =
  match e.Expr.desc with
  | Expr.Var v when Hashtbl.find_opt count v = Some 1 -> (
      let unsafe = Func.addressed_vars func in
      match Hashtbl.find_opt rhs v with
      | Some r
        when (not (Expr.contains_load r))
             && List.for_all
                  (fun u ->
                    (not (Hashtbl.mem count u))
                    && Func.find_var func u <> None
                    && not (Hashtbl.mem unsafe u))
                  (Expr.read_vars r) ->
          r
      | _ -> e)
  | _ -> e

let conformable func def_info (n1 : Nest.t) (n2 : Nest.t) =
  Nest.depth n1 = Nest.depth n2
  && List.for_all2
       (fun (a : Nest.level) (b : Nest.level) ->
         match a.Nest.trip, b.Nest.trip with
         | Some t1, Some t2 -> t1 = t2
         | _ ->
             Expr.equal
               (resolve_bound func def_info a.Nest.header.Stmt.hi)
               (resolve_bound func def_info b.Nest.header.Stmt.hi))
       n1.Nest.levels n2.Nest.levels

(* Vars defined (scalars and loop indices) and used anywhere in [s]. *)
let def_use_sets (s : Stmt.t) =
  let defs = Hashtbl.create 8 and uses = Hashtbl.create 16 in
  Stmt.iter
    (fun (st : Stmt.t) ->
      (match Stmt.defined_var st with
      | Some v -> Hashtbl.replace defs v ()
      | None -> ());
      (match st.Stmt.desc with
      | Stmt.Do_loop d -> Hashtbl.replace defs d.Stmt.index ()
      | _ -> ());
      List.iter (fun v -> Hashtbl.replace uses v ()) (Stmt.shallow_uses st))
    s;
  (defs, uses)

(* A statement sitting between the two loops may stay ahead of the fused
   loop when the first loop cannot observe or affect it: a pure scalar
   assignment whose inputs the first loop does not define and whose
   target the first loop neither reads nor writes. *)
let mid_safe (defs1, uses1) (m : Stmt.t) =
  match m.Stmt.desc with
  | Stmt.Assign (Stmt.Lvar v, rhs) ->
      (not (Expr.contains_load rhs))
      && (not (Hashtbl.mem defs1 v))
      && (not (Hashtbl.mem uses1 v))
      && List.for_all
           (fun u -> not (Hashtbl.mem defs1 u))
           (Expr.read_vars rhs)
  | _ -> false

(* Any conflict between the two bodies whose direction vector is
   lexicographically negative?  ([trips] from the first nest; the
   bounds are conformable.) *)
let fusion_preventing ~assume_noalias (n1 : Nest.t) (n2 : Nest.t)
    ~(trips : Test.bound array) =
  List.exists
    (fun ((r1 : Subscript.reference), (m1 : Subscript.multi_affine)) ->
      List.exists
        (fun ((r2 : Subscript.reference), (m2 : Subscript.multi_affine)) ->
          (r1.Subscript.kind = Subscript.Write
          || r2.Subscript.kind = Subscript.Write)
          &&
          match
            Alias.bases ~assume_noalias m1.Subscript.mbase m2.Subscript.mbase
          with
          | Alias.No_alias -> false
          | Alias.May_alias -> true
          | Alias.Must_alias delta ->
              List.exists
                (fun dirs -> Nest.lex_sign dirs < 0)
                (Test.direction_vectors ~c1:m1.Subscript.mcoeffs
                   ~c2:m2.Subscript.mcoeffs ~delta ~trips))
        n2.Nest.refs)
    n1.Nest.refs

(* Would the fused loop's innermost level carry a cross-body dependence
   (in either direction)?  Such statements would stay scalar, so the
   cost model treats the fused body as unvectorizable. *)
let cross_inner_carried ~assume_noalias (n1 : Nest.t) (n2 : Nest.t)
    ~(trips : Test.bound array) =
  let depth = Array.length trips in
  let ident = Array.init depth (fun i -> i) in
  let carried_between (refs1 : (Subscript.reference * Subscript.multi_affine) list) refs2 =
    List.exists
      (fun ((r1 : Subscript.reference), (m1 : Subscript.multi_affine)) ->
        List.exists
          (fun ((r2 : Subscript.reference), (m2 : Subscript.multi_affine)) ->
            (r1.Subscript.kind = Subscript.Write
            || r2.Subscript.kind = Subscript.Write)
            &&
            match
              Alias.bases ~assume_noalias m1.Subscript.mbase
                m2.Subscript.mbase
            with
            | Alias.No_alias -> false
            | Alias.May_alias -> true
            | Alias.Must_alias delta ->
                List.exists
                  (fun dirs ->
                    Nest.lex_sign dirs <> 0
                    && Nest.carrier_level ident
                         { Nest.src = 0; dst = 0; kind = Graph.Flow; dirs }
                       = Some (depth - 1))
                  (Test.direction_vectors ~c1:m1.Subscript.mcoeffs
                     ~c2:m2.Subscript.mcoeffs ~delta ~trips))
          refs2)
      refs1
  in
  carried_between n1.Nest.refs n2.Nest.refs

(* ---- rebuilding ---- *)

(* The first nest's loops, with the fused innermost body; inner-level
   prefixes of the first nest stay in place. *)
let rec chain (levels : Nest.level list) (body : Stmt.t list) : Stmt.t =
  match levels with
  | [] -> assert false
  | [ l ] ->
      { l.Nest.loop_stmt with Stmt.desc = Stmt.Do_loop { l.Nest.header with Stmt.body } }
  | l :: (next :: _ as rest) ->
      let inner = chain rest body in
      {
        l.Nest.loop_stmt with
        Stmt.desc =
          Stmt.Do_loop
            { l.Nest.header with Stmt.body = next.Nest.prefix @ [ inner ] };
      }

let fused_cost_report (decide : Decide.t) ~shape1 ~shape2 ~trips ~v1 ~v2 ~vf
    =
  let sched, procs = Decide.machine decide ~static:(Cost.Full, 1) in
  let cost shape ~vectorizable =
    Cost.nest_order_cycles ~sched shape ~trips ~vlen:decide.Decide.vlen ~procs
      ~parallelize:(Decide.on decide `Parallelize)
      ~vectorizable ~inner_strides:[]
  in
  let c1 = cost shape1 ~vectorizable:v1 in
  let c2 = cost shape2 ~vectorizable:v2 in
  let cf = cost (Cost.add_shape shape1 shape2) ~vectorizable:vf in
  (c1, c2, cf)

(* ---- the pass ---- *)

let run ?(stats = new_stats ()) (decide : Decide.t) (prog : Prog.t)
    (func : Func.t) : bool =
  let changed = ref false in
  let def_info = scalar_def_info func in
  let analyze s =
    Nest.analyze ~assume_noalias:decide.Decide.assume_noalias ~min_depth:1
      ~prog ~func s
  in
  (* measured trip for the cost model when a bound is unknown *)
  let trip_of (l : Nest.level) =
    match l.Nest.trip with
    | Some t -> t
    | None -> (
        match Decide.trips decide l.Nest.loop_stmt.Stmt.loc with
        | Some t when t > 0 -> t
        | _ -> Cost.default_trip)
  in
  (* try to fuse loop [s1] with the next loop further down [rest];
     returns the replacement for s1 :: rest on success *)
  let try_fuse (s1 : Stmt.t) (rest : Stmt.t list) : Stmt.t list option =
    match analyze s1 with
    | None -> None
    | Some n1 -> (
        let du1 = def_use_sets s1 in
        let rec find_partner mids = function
          | ({ Stmt.desc = Stmt.Do_loop _; _ } as s2) :: tail ->
              Some (List.rev mids, s2, tail)
          | m :: tail when mid_safe du1 m -> find_partner (m :: mids) tail
          | _ -> None
        in
        match find_partner [] rest with
        | None -> None
        | Some (mids, s2, tail) -> (
            match analyze s2 with
            | None -> None
            | Some n2 ->
                stats.pairs_examined <- stats.pairs_examined + 1;
                if not (conformable func def_info n1 n2) then begin
                  stats.rejected_conformability <-
                    stats.rejected_conformability + 1;
                  None
                end
                else
                  let trips =
                    Array.of_list
                      (List.map (fun (l : Nest.level) -> l.Nest.trip) n1.Nest.levels)
                  in
                  if
                    fusion_preventing
                      ~assume_noalias:decide.Decide.assume_noalias n1 n2 ~trips
                  then begin
                    stats.rejected_dependence <- stats.rejected_dependence + 1;
                    (match decide.Decide.report with
                    | Some report ->
                        report
                          (Printf.sprintf
                             "fuse %s: adjacent loops: fusion-preventing \
                              dependence, kept separate"
                             func.Func.name)
                    | None -> ());
                    None
                  end
                  else begin
                    let depth = Nest.depth n1 in
                    let ident = Array.init depth (fun i -> i) in
                    let shape1 = Cost.shape_of_stmts n1.Nest.body in
                    let shape2 = Cost.shape_of_stmts n2.Nest.body in
                    let v1 = not (Nest.inner_carries ident n1) in
                    let v2 = not (Nest.inner_carries ident n2) in
                    let vf =
                      v1 && v2
                      && not
                           (cross_inner_carried
                              ~assume_noalias:decide.Decide.assume_noalias n1 n2
                              ~trips)
                    in
                    let cost_trips =
                      Array.of_list (List.map trip_of n1.Nest.levels)
                    in
                    let c1, c2, cf =
                      fused_cost_report decide ~shape1 ~shape2
                        ~trips:cost_trips ~v1 ~v2 ~vf
                    in
                    let keep_separate =
                      Decide.override decide
                        (Decide.Fuse (s1.Stmt.loc, s2.Stmt.loc))
                        (function
                          | Some fuse -> not fuse
                          | None -> cf >= c1 + c2)
                    in
                    if keep_separate then begin
                      stats.rejected_cost <- stats.rejected_cost + 1;
                      (match decide.Decide.report with
                      | Some report ->
                          report
                            (Printf.sprintf
                               "fuse %s: est separate=%d+%d fused=%d: kept \
                                separate"
                               func.Func.name c1 c2 cf)
                      | None -> ());
                      None
                    end
                    else begin
                      (match decide.Decide.report with
                      | Some report ->
                          report
                            (Printf.sprintf
                               "fuse %s: est separate=%d+%d fused=%d: fused"
                               func.Func.name c1 c2 cf)
                      | None -> ());
                      stats.loops_fused <- stats.loops_fused + 1;
                      changed := true;
                      let map =
                        List.map2
                          (fun (a : Nest.level) (b : Nest.level) ->
                            (b.Nest.index, a.Nest.index))
                          n1.Nest.levels n2.Nest.levels
                      in
                      let body2 =
                        List.map
                          (Stmt.map_exprs_shallow (subst_expr map))
                          n2.Nest.body
                      in
                      let prefixes2 =
                        List.concat_map
                          (fun (l : Nest.level) -> l.Nest.prefix)
                          n2.Nest.levels
                      in
                      let fused =
                        chain n1.Nest.levels (n1.Nest.body @ body2)
                      in
                      Some (mids @ prefixes2 @ (fused :: tail))
                    end
                  end))
  in
  let rec walk stmts =
    let stmts = List.map walk_stmt stmts in
    scan stmts
  and scan = function
    | [] -> []
    | ({ Stmt.desc = Stmt.Do_loop _; _ } as s1) :: rest -> (
        match try_fuse s1 rest with
        | Some replacement -> scan replacement
        | None -> s1 :: scan rest)
    | s :: rest -> s :: scan rest
  and walk_stmt (s : Stmt.t) : Stmt.t =
    match s.Stmt.desc with
    | Stmt.Do_loop d ->
        { s with Stmt.desc = Stmt.Do_loop { d with Stmt.body = walk d.Stmt.body } }
    | Stmt.If (c, t, e) -> { s with Stmt.desc = Stmt.If (c, walk t, walk e) }
    | Stmt.While (li, c, b) ->
        { s with Stmt.desc = Stmt.While (li, c, walk b) }
    | _ -> s
  in
  func.Func.body <- walk func.Func.body;
  !changed
