(* While→DO loop conversion (paper §5.2).

   "Since C for loops are converted to while loops by the front end, this
   transformation is essential to success."  A while loop converts when:

     - its condition tests a single integer variable [i] against a
       loop-invariant bound (or plain [while (i)] counting down to zero);
     - [i] receives exactly one net update of the form i = i ± c per
       iteration, possibly through a temp chain (temp = i; i = temp - s),
       at the top level of the body, with [c] a positive constant;
     - no branch enters the loop body from outside, and none leaves it
       (break / goto out / return), so the trip count is fixed;
     - nothing volatile is involved.

   The emitted loop is normalized: [do dummy = 0, trip-1, 1], which is the
   form §9's listings show (do fortran temp_i = 0, n-1, 1), and the form
   induction-variable substitution wants. *)

open Vpc_il

type stats = {
  mutable converted : int;
  mutable rejected_branch_in : int;
  mutable rejected_branch_out : int;
  mutable rejected_no_induction : int;
  mutable rejected_condition : int;
  mutable rejected_volatile : int;
}

let new_stats () =
  {
    converted = 0;
    rejected_branch_in = 0;
    rejected_branch_out = 0;
    rejected_no_induction = 0;
    rejected_condition = 0;
    rejected_volatile = 0;
  }

type candidate_cond =
  | Nonzero                      (* while (i) *)
  | Rel of Expr.binop * Expr.t   (* i relop bound, normalized to var-first *)

(* Recognize the condition shape and the variable it governs. *)
let cond_shape (cond : Expr.t) : (int * candidate_cond) option =
  let flip : Expr.binop -> Expr.binop = function
    | Expr.Lt -> Expr.Gt
    | Expr.Le -> Expr.Ge
    | Expr.Gt -> Expr.Lt
    | Expr.Ge -> Expr.Le
    | op -> op
  in
  match cond.Expr.desc with
  | Expr.Var v -> Some (v, Nonzero)
  | Expr.Binop ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Ne) as op, a, b)
    -> (
      match a.Expr.desc, b.Expr.desc with
      | Expr.Var v, _ -> Some (v, Rel (op, b))
      | _, Expr.Var v -> Some (v, Rel (flip op, a))
      | _ -> None)
  | _ -> None

(* The recognized per-iteration step of the candidate induction
   variable. *)
type step =
  | Step_const of int
  | Step_sym_down of Expr.t
      (* i = i - s with s a loop-invariant expression — the paper's own
         §5.2 example ("DO dummy = n, 1, -s").  Conversion assumes s > 0
         at run time, exactly as the paper's compiler did; a
         non-positive stride was already a (near-)non-terminating loop. *)

(* Net per-iteration step of variable [i], when the body updates it exactly
   once at top level as i = i ± c (or through a one-temp chain). *)
let induction_step (ud : Vpc_analysis.Reaching.t) body i : step option =
  (* all defs of i anywhere in the body *)
  let defs = ref [] in
  let nested = ref false in
  List.iter
    (fun (s : Stmt.t) ->
      (match s.Stmt.desc with
      | Stmt.Assign (Stmt.Lvar v, rhs) when v = i -> defs := (s, rhs) :: !defs
      | _ -> ());
      (* any def of i not at top level? *)
      Stmt.iter
        (fun inner ->
          if inner.Stmt.id <> s.Stmt.id then
            match Vpc_analysis.Reaching.strong_def_of inner with
            | Some (v, _) when v = i -> nested := true
            | _ -> ())
        s)
    body;
  if !nested then None
  else
    match !defs with
    | [ (def_stmt, rhs) ] -> (
        (* an invariant subtrahend qualifies as a symbolic downward step *)
        let invariant_sym (e : Expr.t) =
          (not (Expr.is_const e)) && Vpc_analysis.Reaching.invariant_in ud body e
        in
        (* direct form: i = i ± c, or i = i - s with invariant s *)
        let direct (rhs : Expr.t) =
          match rhs.Expr.desc with
          | Expr.Binop (Expr.Add, { desc = Expr.Var v; _ }, { desc = Expr.Const_int c; _ })
            when v = i ->
              Some (Step_const c)
          | Expr.Binop (Expr.Add, { desc = Expr.Const_int c; _ }, { desc = Expr.Var v; _ })
            when v = i ->
              Some (Step_const c)
          | Expr.Binop (Expr.Sub, { desc = Expr.Var v; _ }, { desc = Expr.Const_int c; _ })
            when v = i ->
              Some (Step_const (-c))
          | Expr.Binop (Expr.Sub, { desc = Expr.Var v; _ }, s)
            when v = i && invariant_sym s ->
              Some (Step_sym_down s)
          | _ -> None
        in
        match direct rhs with
        | Some st -> Some st
        | None -> (
            (* temp chain: temp = i; ...; i = temp ± c, temp's unique
               reaching def at the update is that copy *)
            let via_temp t =
              match
                Vpc_analysis.Reaching.unique_def ud ~stmt_id:def_stmt.Stmt.id
                  ~var:t
              with
              | Some d -> (
                  match d.Vpc_analysis.Reaching.d_value with
                  | Some { Expr.desc = Expr.Var v; _ } when v = i -> true
                  | _ -> false)
              | None -> false
            in
            match rhs.Expr.desc with
            | Expr.Binop (Expr.Add, { desc = Expr.Var t; _ }, { desc = Expr.Const_int c; _ })
              when via_temp t ->
                Some (Step_const c)
            | Expr.Binop (Expr.Sub, { desc = Expr.Var t; _ }, { desc = Expr.Const_int c; _ })
              when via_temp t ->
                Some (Step_const (-c))
            | Expr.Binop (Expr.Sub, { desc = Expr.Var t; _ }, s)
              when via_temp t && invariant_sym s ->
                Some (Step_sym_down s)
            | Expr.Var t when via_temp t -> None  (* i = temp: no step *)
            | _ -> None))
    | _ -> None

(* Trip count expression for the loop; C truncating division is fine for
   the ceiling forms because a non-positive numerator yields a
   non-positive trip, which the DO loop treats as zero iterations. *)
let trip_count_expr i_e (shape : candidate_cond) (step : step) : Expr.t option =
  let open Expr in
  let int_ e = cast Ty.Int e in
  let sub a b = binop Sub a b Ty.Int in
  let add_c e c = if c = 0 then e else binop Add e (int_const c) Ty.Int in
  let div e c = if c = 1 then e else binop Div e (int_const c) Ty.Int in
  match shape, step with
  | Nonzero, Step_const s when s < 0 ->
      (* while (i) { i -= |s| }: ceil(i0 / |s|) *)
      let s = -s in
      Some (div (add_c (int_ i_e) (s - 1)) s)
  | Nonzero, Step_sym_down s ->
      (* §5.2's own example: while (i) { ... i = temp - s; }.
         trip = ceil(i0 / s) = (i0 + s - 1) / s, assuming s > 0 *)
      let s = int_ s in
      Some
        (binop Div
           (binop Add (int_ i_e) (sub s (int_const 1)) Ty.Int)
           s Ty.Int)
  | Nonzero, Step_const _ -> None
  | Rel (Lt, b), Step_const c when c > 0 ->
      Some (div (add_c (sub (int_ b) (int_ i_e)) (c - 1)) c)
  | Rel (Le, b), Step_const c when c > 0 ->
      Some (div (add_c (sub (int_ b) (int_ i_e)) c) c)
  | Rel (Gt, b), Step_const c when c < 0 ->
      let c = -c in
      Some (div (add_c (sub (int_ i_e) (int_ b)) (c - 1)) c)
  | Rel (Ge, b), Step_const c when c < 0 ->
      let c = -c in
      Some (div (add_c (sub (int_ i_e) (int_ b)) c) c)
  | Rel (Ne, b), Step_const 1 -> Some (sub (int_ b) (int_ i_e))
  | Rel (Ne, b), Step_const (-1) -> Some (sub (int_ i_e) (int_ b))
  | Rel _, _ -> None

let expr_reads_volatile (prog : Prog.t) (func : Func.t) e =
  List.exists
    (fun v ->
      match Prog.find_var prog (Some func) v with
      | Some vm -> vm.Var.volatile
      | None -> true)
    (Expr.read_vars e)

(* Attempt to convert one while loop; returns the replacement statements
   (a preheader limit binding plus the DO loop). *)
let convert_loop (prog : Prog.t) (func : Func.t)
    (ud : Vpc_analysis.Reaching.t) stats (s : Stmt.t) ~independent cond body :
    Stmt.t list option =
  let reject field =
    field ();
    None
  in
  if expr_reads_volatile prog func cond then
    reject (fun () -> stats.rejected_volatile <- stats.rejected_volatile + 1)
  else if Vpc_analysis.Cfg.has_branch_into func body then
    reject (fun () -> stats.rejected_branch_in <- stats.rejected_branch_in + 1)
  else if
    Vpc_analysis.Cfg.has_branch_out_of body
    || List.exists
         (fun s ->
           let found = ref false in
           Stmt.iter
             (fun s ->
               match s.Stmt.desc with
               | Stmt.Goto _ -> found := true
               | _ -> ())
             s;
           !found)
         body
  then reject (fun () -> stats.rejected_branch_out <- stats.rejected_branch_out + 1)
  else
    match cond_shape cond with
    | None -> reject (fun () -> stats.rejected_condition <- stats.rejected_condition + 1)
    | Some (i, shape) -> (
        let i_var =
          match Func.find_var func i with
          | Some v -> v
          | None -> Var.make ~id:i ~name:"?" ~ty:Ty.Int ()
        in
        if i_var.volatile || not (Ty.is_integer i_var.ty) then
          reject (fun () -> stats.rejected_volatile <- stats.rejected_volatile + 1)
        else if Vpc_analysis.Reaching.is_unsafe ud i then
          reject (fun () ->
              stats.rejected_no_induction <- stats.rejected_no_induction + 1)
        else
          (* bound must be invariant in the body *)
          let bound_invariant =
            match shape with
            | Nonzero -> true
            | Rel (_, b) -> Vpc_analysis.Reaching.invariant_in ud body b
          in
          if not bound_invariant then
            reject (fun () ->
                stats.rejected_condition <- stats.rejected_condition + 1)
          else
            match induction_step ud body i with
            | None ->
                reject (fun () ->
                    stats.rejected_no_induction <-
                      stats.rejected_no_induction + 1)
            | Some step -> (
                match trip_count_expr (Expr.var i_var) shape step with
                | None ->
                    reject (fun () ->
                        stats.rejected_condition <- stats.rejected_condition + 1)
                | Some trip ->
                    let b = Builder.ctx prog func in
                    let dummy = Builder.fresh_temp b ~name:"dummy" Ty.Int in
                    let hi =
                      Vpc_analysis.Simplify.expr
                        (Expr.binop Expr.Sub trip (Expr.int_const 1) Ty.Int)
                    in
                    (* DO bounds must be loop-entry values: the body may
                       update the variables the trip count reads, so bind
                       the limit to a preheader temporary. *)
                    let pre, hi =
                      if Expr.is_const hi then ([], hi)
                      else
                        let bind_stmt, tv = Builder.bind b ~name:"limit" hi in
                        ([ bind_stmt ], tv)
                    in
                    stats.converted <- stats.converted + 1;
                    Some
                      (pre
                      @ [
                          {
                            s with
                            Stmt.desc =
                              Stmt.Do_loop
                                {
                                  index = dummy.Var.id;
                                  lo = Expr.int_const 0;
                                  hi;
                                  step = Expr.int_const 1;
                                  body;
                                  parallel = false;
                                  independent;
                                  sync = [];
                                };
                          };
                        ])))

(* Convert every eligible while loop in one pre-order walk against a
   single [Reaching] build, continuing into each new DO body.  The paper
   repairs the use-def graph as each loop converts (§5.2); here the one
   build stays exact without repair: [Cfg] wires [While] and [Do_loop]
   with the same edges and a conversion keeps the loop's statement id,
   the only new definitions are of the fresh [limit] and [dummy]
   temporaries, which no other loop's checks read, and the unsafe set is
   unchanged. *)
let run ?(stats = new_stats ()) (prog : Prog.t) (func : Func.t) =
  let has_while = ref false in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with Stmt.While _ -> has_while := true | _ -> ())
    func.Func.body;
  if not !has_while then false
  else
  let ud = Vpc_analysis.Reaching.build ~prog func in
  let changed = ref false in
  let rec walk stmts = List.concat_map walk_stmt stmts
  and walk_stmt (s : Stmt.t) : Stmt.t list =
    match s.Stmt.desc with
    | Stmt.While (li, cond, body) -> (
        match
          convert_loop prog func ud stats s
            ~independent:li.Stmt.pragma_independent cond body
        with
        | Some replacement ->
            changed := true;
            walk replacement
        | None -> [ { s with desc = Stmt.While (li, cond, walk body) } ])
    | Stmt.If (c, t, e) ->
        (* else arm first: this fixes the numbering of fresh temps,
           which shows in the optimized IL *)
        let e = walk e in
        let t = walk t in
        [ { s with desc = Stmt.If (c, t, e) } ]
    | Stmt.Do_loop d ->
        [ { s with desc = Stmt.Do_loop { d with body = walk d.body } } ]
    | _ -> [ s ]
  in
  func.Func.body <- walk func.Func.body;
  !changed
