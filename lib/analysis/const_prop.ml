(* Constant propagation with unreachable-code elimination (paper §8).

   Constants include address constants (&a, &a + 12): §9's daxpy example
   depends on propagating them into subscript positions.  When an [if]
   condition folds to a constant the dead arm is spliced out and the
   whole analysis re-runs — this subsumes the paper's requeue heuristic
   ("all constant assignments whose definitions can reach any statement in
   this list are then added to the heap for another round") by re-examining
   every statement, trading a little compile time for simplicity. *)

open Vpc_il

type stats = {
  mutable substitutions : int;
  mutable branches_folded : int;
  mutable loops_deleted : int;
  mutable stmts_removed : int;
  mutable range_folds : int;
      (* branches decided by value ranges, not literal constants *)
}

let new_stats () =
  {
    substitutions = 0;
    branches_folded = 0;
    loops_deleted = 0;
    stmts_removed = 0;
    range_folds = 0;
  }

(* One substitution pass over the use-def chains [ud] of the function's
   current body: returns true if anything changed. *)
let substitute_pass ud (func : Func.t) stats =
  let changed = ref false in
  let subst_in_stmt (s : Stmt.t) =
    let rewrite (e : Expr.t) =
      Expr.map
        (fun e ->
          match e.Expr.desc with
          | Expr.Var v -> (
              match Reaching.reaching ud ~stmt_id:s.Stmt.id ~var:v with
              | Reaching.Unknown -> e
              | Reaching.Defs [] -> e
              | Reaching.Defs (d0 :: rest) -> (
                  match d0.Reaching.d_value with
                  | Some value
                    when Simplify.is_propagation_constant value
                         && List.for_all
                              (fun d ->
                                match d.Reaching.d_value with
                                | Some v2 -> Expr.equal value v2
                                | None -> false)
                              rest ->
                      changed := true;
                      stats.substitutions <- stats.substitutions + 1;
                      Expr.cast e.Expr.ty value
                  | _ -> e))
          | _ -> e)
        e
    in
    let s' = Stmt.map_exprs_shallow rewrite s in
    Simplify.stmt_exprs_simplify s'
  in
  let rec walk stmts = List.map walk_stmt stmts
  and walk_stmt (s : Stmt.t) =
    let s = subst_in_stmt s in
    match s.Stmt.desc with
    | Stmt.If (c, t, e) -> { s with desc = Stmt.If (c, walk t, walk e) }
    | Stmt.While (li, c, body) -> { s with desc = Stmt.While (li, c, walk body) }
    | Stmt.Do_loop d -> { s with desc = Stmt.Do_loop { d with body = walk d.body } }
    | _ -> s
  in
  func.Func.body <- walk func.Func.body;
  !changed

let count_stmts stmts =
  let n = ref 0 in
  Stmt.iter_list (fun _ -> incr n) stmts;
  !n

(* Fold branches whose conditions are now constant, and loops proven to
   run zero times.  Statements containing labels cannot be deleted safely
   if the label is a goto target elsewhere, so we check. *)
let fold_pass ?range (func : Func.t) stats =
  (* [range s cond]: a truth value for [cond] at statement [s] that the
     symbolic range analysis can prove — comparisons whose operands have
     disjoint known ranges fold even when neither side is a literal
     constant (the loop-bound guards the lowerer emits, typically). *)
  let range_truth (s : Stmt.t) (c : Expr.t) =
    match range with None -> None | Some f -> f s c
  in
  let changed = ref false in
  (* collect goto targets *)
  let targets = Hashtbl.create 8 in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Goto l -> Hashtbl.replace targets l ()
      | _ -> ())
    func.Func.body;
  let deletable stmts =
    let ok = ref true in
    List.iter
      (fun s ->
        Stmt.iter
          (fun s ->
            match s.Stmt.desc with
            | Stmt.Label l when Hashtbl.mem targets l -> ok := false
            | _ -> ())
          s)
      stmts;
    !ok
  in
  let rec walk stmts = List.concat_map walk_stmt stmts
  and walk_stmt (s : Stmt.t) : Stmt.t list =
    match s.Stmt.desc with
    | Stmt.If (c, then_, else_) -> (
        let decided =
          match Simplify.const_truth c with
          | Some _ as t -> t
          | None -> (
              match range_truth s c with
              | Some _ as t ->
                  stats.range_folds <- stats.range_folds + 1;
                  t
              | None -> None)
        in
        match decided with
        | Some truth ->
            let live = if truth then then_ else else_ in
            let dead = if truth then else_ else then_ in
            if deletable dead then begin
              changed := true;
              stats.branches_folded <- stats.branches_folded + 1;
              stats.stmts_removed <- stats.stmts_removed + count_stmts dead;
              walk live
            end
            else [ { s with desc = Stmt.If (c, walk then_, walk else_) } ]
        | None -> [ { s with desc = Stmt.If (c, walk then_, walk else_) } ])
    | Stmt.While (li, c, body) -> (
        match Simplify.const_truth c with
        | Some false when deletable body ->
            changed := true;
            stats.loops_deleted <- stats.loops_deleted + 1;
            stats.stmts_removed <- stats.stmts_removed + count_stmts body;
            []
        | _ -> [ { s with desc = Stmt.While (li, c, walk body) } ])
    | Stmt.Do_loop d -> (
        let zero_trip =
          match d.lo.Expr.desc, d.hi.Expr.desc, d.step.Expr.desc with
          | Expr.Const_int lo, Expr.Const_int hi, Expr.Const_int step ->
              (step >= 0 && lo > hi) || (step < 0 && lo < hi)
          | _ -> false
        in
        match zero_trip with
        | true when deletable d.body ->
            changed := true;
            stats.loops_deleted <- stats.loops_deleted + 1;
            stats.stmts_removed <- stats.stmts_removed + count_stmts d.body;
            (* the loop still assigns its index the initial value *)
            [ { s with desc = Stmt.Assign (Stmt.Lvar d.index, d.lo) } ]
        | _ -> [ { s with desc = Stmt.Do_loop { d with body = walk d.body } } ])
    | _ -> [ s ]
  in
  func.Func.body <- walk func.Func.body;
  !changed

let max_rounds = 25

(* A round that folded nothing only rewrote expressions in place, so the
   next round refreshes its use-def chains instead of rebuilding them
   ({!Reaching.refresh} says when that is exact). *)
let run ?(stats = new_stats ()) ?range (prog : Prog.t) (func : Func.t) =
  let any = ref false in
  let rec go round prev =
    if round < max_rounds then begin
      let ud =
        match Option.bind prev Reaching.refresh with
        | Some ud -> ud
        | None -> Reaching.build ~prog func
      in
      let s = substitute_pass ud func stats in
      let f = fold_pass ?range func stats in
      if s || f then begin
        any := true;
        go (round + 1) (if f then None else Some ud)
      end
    end
  in
  go 0 None;
  !any
