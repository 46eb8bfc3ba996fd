(* Inline expansion of procedure calls (paper §7).

   Call sites are replaced by the callee body with fresh variables and
   labels; arguments bind to [in_]-prefixed parameter copies, exactly the
   §9 shape:

       in_x = &a; in_y = &b; ... if (in_n <= 0) goto lb_1; ... lb_1:;

   Returns become a store to a result temporary and a goto to a fresh exit
   label.  Statics were already promoted to globals by the front end, so
   their single storage survives inlining.  Functions are processed
   callees-first ("order is very important"), and recursion — which "can
   lead to infinite inlining if care is not taken" — is cut by refusing
   cycles and bounding depth. *)

open Vpc_il
module Profile = Vpc_profile
module Pointsto = Vpc_pointsto.Pointsto

module Decide = Vpc_tune.Decide

(* Expansion-chain bound: the recursion cutoff. *)
let max_depth = 8

(* Per-caller statement budget, enforced only with a profile. *)
let max_total_growth = 4000

type stats = {
  mutable calls_inlined : int;
  mutable calls_skipped_recursive : int;
  mutable calls_skipped_size : int;
  mutable calls_skipped_unknown : int;  (* no body available (library) *)
  mutable calls_skipped_cold : int;     (* measured count = 0 *)
  mutable calls_skipped_budget : int;   (* growth budget exhausted *)
  mutable calls_ranked_blocking : int;
      (* in-loop sites whose mod/ref summary blocks vectorization *)
}

let new_stats () =
  {
    calls_inlined = 0;
    calls_skipped_recursive = 0;
    calls_skipped_size = 0;
    calls_skipped_unknown = 0;
    calls_skipped_cold = 0;
    calls_skipped_budget = 0;
    calls_ranked_blocking = 0;
  }

let func_size (f : Func.t) = List.length (Func.all_stmts f)

(* Expand one call site within [caller]; returns the replacement
   statements. *)
let expand_call (prog : Prog.t) (caller : Func.t) (callee : Func.t)
    (dst : Stmt.lvalue option) (args : Expr.t list) : Stmt.t list =
  let b = Builder.ctx prog caller in
  let var_map = Hashtbl.create 16 in
  (* Fresh copies of every callee-local variable, cloned in ascending
     callee-id order and renamed with a caller-local index (the size of
     the caller's variable table, which grows by one per clone): both
     the clone order and the printed names are then functions of the
     two functions alone, never of how many variables the rest of the
     program happened to allocate first. *)
  List.iter
    (fun (v : Var.t) ->
      let old_id = v.Var.id in
      let id = Prog.fresh_var_id prog in
      let name =
        if List.mem old_id callee.Func.params then "in_" ^ v.Var.name
        else
          Printf.sprintf "%s_i%d" v.Var.name
            (Hashtbl.length caller.Func.vars)
      in
      Hashtbl.replace var_map old_id id;
      Func.add_var caller
        { v with Var.id; name; storage = Var.Auto; is_temp = true })
    (Func.locals callee);
  (* fresh labels *)
  let label_map = Hashtbl.create 4 in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Label l ->
          if not (Hashtbl.mem label_map l) then
            Hashtbl.replace label_map l (Func.fresh_label caller "in")
      | _ -> ())
    callee.Func.body;
  let exit_label = Func.fresh_label caller "lb" in
  let ret_var =
    if callee.Func.ret_ty = Ty.Void then None
    else Some (Builder.fresh_temp b ~name:"ret" callee.Func.ret_ty)
  in
  let renaming =
    { Clone.var_map; label_map; stmt_gen = caller.Func.stmt_gen }
  in
  (* parameter binding *)
  let bind_params =
    List.map2
      (fun param_id arg ->
        let v = Func.var_exn callee param_id in
        let new_id = Hashtbl.find var_map param_id in
        Builder.assign_id b new_id (Expr.cast v.Var.ty arg))
      callee.Func.params args
  in
  (* clone the body, rewriting returns *)
  let body = Clone.clone_stmts renaming callee.Func.body in
  let rewrite_return (s : Stmt.t) : Stmt.t list =
    match s.Stmt.desc with
    | Stmt.Return (Some e) -> (
        match ret_var with
        | Some rv ->
            [
              Builder.assign b rv e;
              Builder.goto b exit_label;
            ]
        | None -> [ Builder.goto b exit_label ])
    | Stmt.Return None -> [ Builder.goto b exit_label ]
    | _ -> [ s ]
  in
  let body = Stmt.map_list rewrite_return body in
  let epilogue =
    Builder.label b exit_label
    ::
    (match dst, ret_var with
    | Some lv, Some rv ->
        [ Builder.stmt b (Stmt.Assign (lv, Expr.var rv)) ]
    | _ -> [])
  in
  bind_params @ body @ epilogue

(* Site selection for one caller.  The §7 policy inlines every eligible
   site leaf-first; with measured data we instead rank sites by
   attributed cycles (call count × mean callee time), skip sites the run
   proved cold, and stop when the growth budget is spent.  Sites the
   profile has no data for keep the static policy (rank 0, source
   order), so an empty profile selects exactly the static set.

   Mod/ref summaries add a second signal: a call inside a loop whose
   callee writes memory (or does io, or has no summary) starves the
   dependence test of facts, so vectorizing the enclosing loop needs the
   body spelled out — those sites are ranked ahead of everything else.
   Without a profile the ranking changes only reporting order (the
   budget is not enforced and expansion replaces calls in body order),
   keeping points-to-only compilation byte-identical to the §7 policy. *)
type site_verdict = Inline_site | Cold_site | Budget_site

let plan_sites (decide : Decide.t) ~pointsto ~max_callee_stmts stats
    (prog : Prog.t) (caller : Func.t) ~eligible : (int, site_verdict) Hashtbl.t
    =
  let sites = ref [] in
  let record ~in_loop (s : Stmt.t) name args =
    if eligible name then
      match Prog.find_func prog name with
      | Some callee
        when func_size callee <= max_callee_stmts
             && List.length args = List.length callee.Func.params ->
          sites := (s, callee, in_loop) :: !sites
      | Some _ | None -> ()
  in
  let rec walk ~in_loop stmts =
    List.iter
      (fun (s : Stmt.t) ->
        match s.Stmt.desc with
        | Stmt.Call (_, Stmt.Direct name, args) -> record ~in_loop s name args
        | Stmt.If (_, t, e) ->
            walk ~in_loop t;
            walk ~in_loop e
        | Stmt.While (_, _, b) -> walk ~in_loop:true b
        | Stmt.Do_loop d -> walk ~in_loop:true d.Stmt.body
        | _ -> ())
      stmts
  in
  walk ~in_loop:false caller.Func.body;
  let sites = List.rev !sites in
  let measure (s : Stmt.t) =
    match decide.Decide.profile with
    | None -> None
    | Some profile -> (
        match Profile.Key.of_loc s.Stmt.loc with
        | None -> None
        | Some k ->
            Option.map (fun c -> (k, c)) (Profile.Data.find_call profile k))
  in
  let blocking (callee : Func.t) ~in_loop =
    in_loop
    &&
    match pointsto with
    | Some pt -> Pointsto.blocks_vectorization pt callee.Func.name
    | None -> false
  in
  (* vectorization-blocking in-loop sites first, then hottest first; the
     sort is stable, so unranked sites keep their source order *)
  let ranked =
    List.stable_sort
      (fun (a, ca, la) (b, cb, lb) ->
        let block s = if s then 1 else 0 in
        let c =
          Int.compare (block (blocking cb ~in_loop:lb))
            (block (blocking ca ~in_loop:la))
        in
        if c <> 0 then c
        else
          let rank s =
            match measure s with
            | Some (_, c) -> c.Profile.Data.cycles
            | None -> 0
          in
          Int.compare (rank b) (rank a))
      sites
  in
  let verdicts = Hashtbl.create 16 in
  (* the growth budget is a profile-guided policy; without measurements
     the §7 policy has no budget and selects every site *)
  let budget =
    ref (if decide.Decide.profile = None then max_int else max_total_growth)
  in
  let say fmt = Printf.ksprintf (fun m ->
      match decide.Decide.report with Some r -> r m | None -> ()) fmt
  in
  List.iter
    (fun ((s : Stmt.t), callee, in_loop) ->
      if blocking callee ~in_loop then begin
        stats.calls_ranked_blocking <- stats.calls_ranked_blocking + 1;
        say
          "call %s -> %s: mod/ref summary blocks vectorization of the \
           enclosing loop -> inline first"
          (Vpc_support.Loc.to_string s.Stmt.loc)
          callee.Func.name
      end;
      match measure s with
      | Some (k, c) when c.Profile.Data.count = 0 ->
          stats.calls_skipped_cold <- stats.calls_skipped_cold + 1;
          say "call %s -> %s: measured cold -> keep the call"
            (Profile.Key.to_string k) callee.Func.name;
          Hashtbl.replace verdicts s.Stmt.id Cold_site
      | m ->
          let size = func_size callee in
          if size <= !budget then begin
            (if !budget <> max_int then budget := !budget - size);
            Hashtbl.replace verdicts s.Stmt.id Inline_site;
            match m with
            | Some (k, c) ->
                say "call %s -> %s: count=%d cycles=%d -> inline (budget left %d)"
                  (Profile.Key.to_string k) callee.Func.name
                  c.Profile.Data.count c.Profile.Data.cycles !budget
            | None -> ()
          end
          else begin
            stats.calls_skipped_budget <- stats.calls_skipped_budget + 1;
            say "call %s -> %s: size %d over remaining budget %d -> keep the call"
              (Vpc_support.Loc.to_string s.Stmt.loc) callee.Func.name size !budget;
            Hashtbl.replace verdicts s.Stmt.id Budget_site
          end)
    ranked;
  verdicts

(* Inline eligible calls in [caller]'s body.  Each function is expanded
   exactly once ([done_set]), callees before callers; [stack] holds the
   expansion chain for the recursion cutoff.  A call that survives inside
   an expanded callee (because it was recursive or too large) is inlined
   as-is and never re-expanded — this is what bounds recursive inlining. *)
let rec expand_in_function (decide : Decide.t) ~eligible ~pointsto
    ~max_callee_stmts stats (prog : Prog.t) (caller : Func.t) ~stack ~done_set
    =
  if Hashtbl.mem done_set caller.Func.name then ()
  else begin
    Hashtbl.replace done_set caller.Func.name ();
    let plan =
      match (decide.Decide.profile, pointsto) with
      | None, None -> None
      | _ ->
          Some
            (plan_sites decide ~pointsto ~max_callee_stmts stats prog caller
               ~eligible)
    in
    (* The fate of an eligible call site, given the plan's answer: the
       first reason to keep the call, in the order they are checked, or
       [`Expand]. *)
    let verdict (s : Stmt.t) name nargs =
      let planned =
        match plan with
        | None -> true
        | Some verdicts -> (
            match Hashtbl.find_opt verdicts s.Stmt.id with
            | Some (Cold_site | Budget_site) -> false
            | Some Inline_site | None -> true)
      in
      let callee = Prog.find_func prog name in
      let known = callee <> None in
      let recursive = List.mem name stack || List.length stack >= max_depth in
      let too_big, arity_ok =
        match callee with
        | Some c ->
            ( func_size c > max_callee_stmts,
              nargs = List.length c.Func.params )
        | None -> (false, false)
      in
      Decide.override decide (Decide.Inline s.Stmt.loc) (fun pinned ->
          if not (Option.value pinned ~default:planned) then `Unselected
          else if not known then `Unknown
          else if recursive then `Recursive
          else if pinned <> Some true && too_big then `Too_big
          else if not arity_ok then `Arity_mismatch
          else `Expand)
    in
    let replace (s : Stmt.t) : Stmt.t list =
      match s.Stmt.desc with
      | Stmt.Call (dst, Stmt.Direct name, args) when eligible name -> (
          match verdict s name (List.length args) with
          | `Unselected | `Arity_mismatch -> [ s ]
          | `Unknown ->
              stats.calls_skipped_unknown <- stats.calls_skipped_unknown + 1;
              [ s ]
          | `Recursive ->
              stats.calls_skipped_recursive <-
                stats.calls_skipped_recursive + 1;
              [ s ]
          | `Too_big ->
              stats.calls_skipped_size <- stats.calls_skipped_size + 1;
              [ s ]
          | `Expand ->
              let callee = Option.get (Prog.find_func prog name) in
              (* make sure the callee itself is fully expanded first *)
              expand_in_function decide ~eligible ~pointsto ~max_callee_stmts
                stats prog callee ~stack:(name :: stack) ~done_set;
              stats.calls_inlined <- stats.calls_inlined + 1;
              expand_call prog caller callee dst args)
      | _ -> [ s ]
    in
    caller.Func.body <- Stmt.map_list replace caller.Func.body
  end

(* Expand calls across the whole program, callees before callers. *)
let expand ?only ?pointsto ?(max_callee_stmts = 200) ?(stats = new_stats ())
    (decide : Decide.t) (prog : Prog.t) =
  let eligible name =
    match only with Some names -> List.mem name names | None -> true
  in
  let done_set = Hashtbl.create 8 in
  List.iter
    (fun f ->
      expand_in_function decide ~eligible ~pointsto ~max_callee_stmts stats
        prog f ~stack:[ f.Func.name ] ~done_set)
    prog.Prog.funcs
