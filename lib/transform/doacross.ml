(* Doacross parallelization.

   Two paths live here.  The original §10 path handles pointer-chasing
   while loops under the independence pragma:

     "a prime example of such a loop is code that operates on a linked
      list.  Such a loop cannot be vectorized with any benefit, but it can
      be spread across multiple processors by pulling the code for moving
      to the next element into the serialized portion of the parallel
      loop.  ...  it does require an assumption that each motion down a
      pointer goes to independent storage."

   For a while loop carrying the independence pragma, the body splits
   into a *serial prefix* — the statements computing the loop-carried
   scalar state (the pointer advance, counters, anything the condition
   needs) — and a *parallel rest* (the memory work).  The prefix is moved
   to the front behind per-iteration copies of the values the rest reads,
   and the loop is marked [doacross]; the Titan simulator then charges
   the prefix serially and spreads the rest over processors.

   The second path pipelines counted DO loops whose carried dependences
   all have known constant distance — recurrences, wavefronts,
   Gauss–Seidel sweeps the vectorizer must leave serial.  Iterations are
   spread round-robin over processors and each crossing dependence is
   ordered point-to-point: the source iteration posts a counter after the
   last statement of the edge's source, the sink iteration waits before
   its first read.  Redundant synchronization is then eliminated — an
   edge is covered when a chain of retained sync edges transitively
   orders it — and a pipeline cost model decides doacross vs serial. *)

open Vpc_il
open Vpc_dependence
module Cost = Vpc_titan.Cost
module Decide = Vpc_tune.Decide

type stats = {
  (* §10 while-loop doacross *)
  mutable loops_transformed : int;
  mutable rejected_shape : int;     (* calls, gotos, non-assign serial *)
  mutable rejected_dependence : int;(* parallel part feeds serial part *)
  mutable no_carried : int;         (* no carried scalar state to serialize,
                                       or nothing left to spread *)
  (* DO-loop post/wait pipelining *)
  mutable do_pipelined : int;
  mutable syncs_placed : int;       (* post/wait pairs kept *)
  mutable syncs_eliminated : int;   (* carried edges covered transitively *)
  mutable do_rejected_scalar : int; (* carried register recurrence *)
  mutable do_rejected_distance : int;(* carried distance unknown/unbounded *)
  mutable do_rejected_cost : int;   (* pipeline model prefers serial *)
}

let new_stats () =
  {
    loops_transformed = 0;
    rejected_shape = 0;
    rejected_dependence = 0;
    no_carried = 0;
    do_pipelined = 0;
    syncs_placed = 0;
    syncs_eliminated = 0;
    do_rejected_scalar = 0;
    do_rejected_distance = 0;
    do_rejected_cost = 0;
  }

(* The pipeline model's machine when no profile measured the loop. *)
let static_machine = (Cost.Full, 4)

(* ------------------------------------------------------------------ *)
(* §10 while-loop path                                                *)
(* ------------------------------------------------------------------ *)

(* Top-level positions defining each scalar var, or None when some var has
   a nested definition (we do not untangle those). *)
let top_defs (body : Stmt.t array) : (int, int list) Hashtbl.t option =
  let defs = Hashtbl.create 8 in
  let nested = ref false in
  Array.iteri
    (fun pos (s : Stmt.t) ->
      (match s.Stmt.desc with
      | Stmt.Assign (Stmt.Lvar v, _) ->
          Hashtbl.replace defs v
            (Option.value (Hashtbl.find_opt defs v) ~default:[] @ [ pos ])
      | _ -> ());
      Stmt.iter
        (fun inner ->
          if inner.Stmt.id <> s.Stmt.id then
            match inner.Stmt.desc with
            | Stmt.Assign (Stmt.Lvar _, _) | Stmt.Call (Some (Stmt.Lvar _), _, _)
              ->
                nested := true
            | _ -> ())
        s)
    body;
  if !nested then None else Some defs

(* Positions (including nested statements and the loop condition, encoded
   as position -1) where each var is read. *)
let uses_by_var cond (body : Stmt.t array) : (int, int list) Hashtbl.t =
  let uses = Hashtbl.create 8 in
  let add v pos =
    Hashtbl.replace uses v
      (Option.value (Hashtbl.find_opt uses v) ~default:[] @ [ pos ])
  in
  List.iter (fun v -> add v (-1)) (Expr.read_vars cond);
  Array.iteri
    (fun pos s ->
      Stmt.iter (fun inner -> List.iter (fun v -> add v pos) (Stmt.shallow_uses inner)) s)
    body;
  uses

let has_control (body : Stmt.t array) =
  let bad = ref false in
  Array.iter
    (fun s ->
      Stmt.iter
        (fun inner ->
          match inner.Stmt.desc with
          | Stmt.Goto _ | Stmt.Label _ | Stmt.Return _ | Stmt.Call _
          | Stmt.While _ | Stmt.Do_loop _ ->
              bad := true
          | _ -> ())
        s)
    body;
  !bad

let process_loop prog (func : Func.t) stats (s : Stmt.t)
    (li : Stmt.loop_info) cond (body_l : Stmt.t list) : Stmt.t option =
  let body = Array.of_list body_l in
  let n = Array.length body in
  if has_control body then begin
    stats.rejected_shape <- stats.rejected_shape + 1;
    None
  end
  else
    match top_defs body with
    | None ->
        stats.rejected_shape <- stats.rejected_shape + 1;
        None
    | Some defs ->
        let uses = uses_by_var cond body in
        (* loop-carried scalar vars: used by the condition, or used at a
           position not after their first definition *)
        let carried = Hashtbl.create 4 in
        Hashtbl.iter
          (fun v def_positions ->
            match def_positions with
            | [] -> ()
            | first_def :: _ ->
                let vuses = Option.value (Hashtbl.find_opt uses v) ~default:[] in
                if List.exists (fun p -> p <= first_def) vuses then
                  Hashtbl.replace carried v ())
          defs;
        (* close over what the carried updates themselves read *)
        let changed = ref true in
        while !changed do
          changed := false;
          Hashtbl.iter
            (fun v () ->
              List.iter
                (fun pos ->
                  match body.(pos).Stmt.desc with
                  | Stmt.Assign (Stmt.Lvar _, rhs) ->
                      List.iter
                        (fun w ->
                          if Hashtbl.mem defs w && not (Hashtbl.mem carried w)
                          then begin
                            Hashtbl.replace carried w ();
                            changed := true
                          end)
                        (Expr.read_vars rhs)
                  | _ -> ())
                (Option.value (Hashtbl.find_opt defs v) ~default:[]))
            carried
        done;
        let is_serial pos =
          match body.(pos).Stmt.desc with
          | Stmt.Assign (Stmt.Lvar v, _) -> Hashtbl.mem carried v
          | _ -> false
        in
        let serial_pos = List.filter is_serial (List.init n (fun i -> i)) in
        let parallel_pos =
          List.filter (fun i -> not (is_serial i)) (List.init n (fun i -> i))
        in
        if serial_pos = [] || parallel_pos = [] then begin
          (* distinct outcomes, distinct counters: a loop with no carried
             scalar state (or nothing but that state) is not a dependence
             rejection — --why-scalar must not conflate the two *)
          stats.no_carried <- stats.no_carried + 1;
          None
        end
        else begin
          (* safety: parallel statements must not define carried vars, and
             every parallel read of a carried var must precede its first
             serial definition (so the front-of-loop copy is its value) *)
          let ok = ref true in
          List.iter
            (fun pos ->
              match body.(pos).Stmt.desc with
              | Stmt.Assign (Stmt.Lvar v, _) when Hashtbl.mem carried v ->
                  ok := false
              | _ -> ())
            parallel_pos;
          Hashtbl.iter
            (fun v () ->
              let first_def =
                match Hashtbl.find_opt defs v with
                | Some (p :: _) -> p
                | _ -> max_int
              in
              List.iter
                (fun pos ->
                  if (not (is_serial pos))
                     && List.mem v
                          (let acc = ref [] in
                           Stmt.iter
                             (fun inner ->
                               acc := Stmt.shallow_uses inner @ !acc)
                             body.(pos);
                           !acc)
                     && pos > first_def
                  then ok := false)
                parallel_pos)
            carried;
          if not !ok then begin
            stats.rejected_dependence <- stats.rejected_dependence + 1;
            None
          end
          else begin
            let b = Builder.ctx prog func in
            (* copies of carried vars the parallel part reads *)
            let copies = ref [] in
            let substs = ref [] in
            (* ascending var-id order: the emitted copy statements must
               not depend on hash-bucket layout *)
            List.iter
              (fun v ->
                let read_by_parallel =
                  List.exists
                    (fun pos ->
                      let acc = ref [] in
                      Stmt.iter
                        (fun inner -> acc := Stmt.shallow_uses inner @ !acc)
                        body.(pos);
                      List.mem v !acc)
                    parallel_pos
                in
                if read_by_parallel then begin
                  let meta = Prog.var_exn prog (Some func) v in
                  let cur =
                    Builder.fresh_temp b ~name:(meta.Var.name ^ "_cur")
                      meta.Var.ty
                  in
                  copies := Builder.assign b cur (Expr.var meta) :: !copies;
                  substs := (v, Expr.var cur) :: !substs
                end)
              (Hashtbl.fold (fun v () acc -> v :: acc) carried []
              |> List.sort compare);
            let subst_deep (st : Stmt.t) =
              let rewrite e =
                List.fold_left
                  (fun e (v, by) -> Expr.subst_var v by e)
                  e !substs
              in
              let rec deep st =
                let st = Stmt.map_exprs_shallow rewrite st in
                match st.Stmt.desc with
                | Stmt.If (c, t, e) ->
                    { st with Stmt.desc = Stmt.If (c, List.map deep t, List.map deep e) }
                | _ -> st
              in
              deep st
            in
            let serial_stmts = List.map (fun i -> body.(i)) serial_pos in
            let parallel_stmts =
              List.map (fun i -> subst_deep body.(i)) parallel_pos
            in
            let new_body = !copies @ serial_stmts @ parallel_stmts in
            let info =
              {
                li with
                Stmt.doacross = true;
                serial_prefix = List.length !copies + List.length serial_stmts;
              }
            in
            stats.loops_transformed <- stats.loops_transformed + 1;
            Some { s with Stmt.desc = Stmt.While (info, cond, new_body) }
          end
        end

(* ------------------------------------------------------------------ *)
(* DO-loop post/wait pipelining                                       *)
(* ------------------------------------------------------------------ *)

let is_normalized (d : Stmt.do_loop) =
  Expr.is_zero d.Stmt.lo
  && (match d.Stmt.step.Expr.desc with Expr.Const_int 1 -> true | _ -> false)

let contains_inner_loop (body : Stmt.t list) =
  List.exists
    (fun s ->
      let found = ref false in
      Stmt.iter
        (fun inner ->
          match inner.Stmt.desc with
          | Stmt.While _ | Stmt.Do_loop _ -> found := true
          | _ -> ())
        s;
      !found)
    body

(* Does a chain of sync edges from [syncs] transitively order the carried
   edge (src, dst, dist)?  A chain e1..em works when src <= post(e1),
   wait(e_j) <= post(e_{j+1}), wait(em) <= dst — each <= supplied by
   same-iteration program order — and the distances sum to *exactly*
   [dist].  A partial sum is unsound: nothing orders the same statement
   across two iterations running on different processors, so "covered at
   distance k < dist" proves nothing about distance dist.

   A *cumulative* sync of distance c orders its wait at iteration i after
   the posts of ALL iterations <= i-c, so it closes a chain whenever its
   remaining budget is at least c (any distance >= c is covered at once);
   it is always terminal — what follows its wait would need exact
   arithmetic it no longer has.

   With [cum] set the covered edge itself is only a lower bound: every
   distance >= [dist] must be ordered, which only a single cumulative
   sync of distance <= [dist] (post after [src], wait before [dst])
   provides — exact chains cover one distance at a time. *)
let covers (syncs : Stmt.dsync list) ~src ~dst ~dist ~cum =
  if cum then
    List.exists
      (fun (y : Stmt.dsync) ->
        y.Stmt.cum && y.Stmt.post_after >= src && y.Stmt.wait_before <= dst
        && y.Stmt.distance <= dist)
      syncs
  else begin
    let seen = Hashtbl.create 16 in
    let budget = ref 4096 in
    let rec from_pos pos remaining =
      (* invariant: the chain so far is ordered after the completion of
         body position [pos - 1] (i.e. may attach to any post >= pos) at
         iteration offset dist - remaining *)
      decr budget;
      !budget > 0
      && (not (Hashtbl.mem seen (pos, remaining)))
      && begin
           Hashtbl.replace seen (pos, remaining) ();
           List.exists
             (fun (y : Stmt.dsync) ->
               y.Stmt.post_after >= pos
               && y.Stmt.distance <= remaining
               &&
               if y.Stmt.cum then y.Stmt.wait_before <= dst
               else
                 (y.Stmt.distance = remaining && y.Stmt.wait_before <= dst)
                 || from_pos y.Stmt.wait_before (remaining - y.Stmt.distance))
             syncs
         end
    in
    from_pos src dist
  end

(* One post/wait pair per carried edge — post after the edge's source
   statement, wait before its destination — then redundant-sync
   elimination.  Long-distance edges are considered for removal first
   (chains of shorter retained edges are what cover them); the survivors
   get channels in ascending (post, wait, distance) order so the output
   is deterministic.  Returns the retained syncs and the number of
   eliminated candidates. *)
let place_syncs (carried : Graph.edge list) : Stmt.dsync list * int =
  let quads =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Graph.edge) ->
           match e.Graph.distance, e.Graph.dist_lo with
           | Some d, _ when d >= 1 -> Some (e.Graph.src, e.Graph.dst, d, false)
           | None, Some l when l >= 1 ->
               (* symbolic distance, proven >= l: cumulative sync at l *)
               Some (e.Graph.src, e.Graph.dst, l, true)
           | _ -> None)
         carried)
  in
  let order =
    List.sort
      (fun (s1, t1, d1, c1) (s2, t2, d2, c2) ->
        compare (-d1, s1, t1, c1) (-d2, s2, t2, c2))
      quads
  in
  let to_sync (s, t, d, c) =
    { Stmt.chan = 0; distance = d; post_after = s; wait_before = t; cum = c }
  in
  let rec prune kept = function
    | [] -> kept
    | ((s, t, d, c) as e) :: rest ->
        let others = List.map to_sync (kept @ rest) in
        if covers others ~src:s ~dst:t ~dist:d ~cum:c then prune kept rest
        else prune (e :: kept) rest
  in
  let kept = List.sort compare (prune [] order) in
  ( List.mapi
      (fun i (s, t, d, c) ->
        { Stmt.chan = i; distance = d; post_after = s; wait_before = t;
          cum = c })
      kept,
    List.length quads - List.length kept )

let kind_name = function
  | Graph.Flow -> "flow"
  | Graph.Anti -> "anti"
  | Graph.Output -> "output"

let process_do (decide : Decide.t) ?range stats prog (func : Func.t)
    (live : Vpc_analysis.Liveness.t Lazy.t) (s : Stmt.t) (d : Stmt.do_loop) :
    Stmt.t option =
  let body = d.Stmt.body in
  let n = List.length body in
  (* the plan is asked twice: whether it pins the loop serial before
     any analysis, and, once the pipeline is priced, whether the loop
     is pipelined *)
  let query = Decide.Doacross s.Stmt.loc in
  let pinned_serial = Decide.override decide query (( = ) (Some false)) in
  let why fmt =
    Format.kasprintf
      (fun msg ->
        match decide.Decide.why_scalar with
        | Some say ->
            say
              (Printf.sprintf "%s: loop at %s stays serial: %s" func.Func.name
                 (Vpc_support.Loc.to_string s.Stmt.loc)
                 msg)
        | None -> ())
      fmt
  in
  let straight =
    List.for_all
      (fun (st : Stmt.t) ->
        match st.Stmt.desc with Stmt.Assign _ | Stmt.Nop -> true | _ -> false)
      body
  in
  if pinned_serial then None  (* autotuner pinned this loop serial *)
  else if n = 0 || not straight then begin
    stats.rejected_shape <- stats.rejected_shape + 1;
    None
  end
  else begin
    let defined_in_body, mem_written =
      Vpc_analysis.Reaching.vars_defined_in body
    in
    let unsafe = Func.addressed_vars func in
    let invariant (e : Expr.t) =
      ((not (Expr.contains_load e)) || not mem_written)
      && List.for_all
           (fun v ->
             v <> d.Stmt.index
             && (not (Hashtbl.mem defined_in_body v))
             && ((not mem_written) || not (Hashtbl.mem unsafe v))
             &&
             match Prog.find_var prog (Some func) v with
             | Some vm -> not vm.Var.volatile
             | None -> false)
           (Expr.read_vars e)
    in
    let volatile_var v =
      match Prog.find_var prog (Some func) v with
      | Some vm -> vm.Var.volatile
      | None -> false
    in
    let touches_volatile =
      List.exists
        (fun (st : Stmt.t) ->
          List.exists volatile_var (Stmt.shallow_uses st)
          || match Stmt.defined_var st with
             | Some v -> volatile_var v
             | None -> false)
        body
    in
    if touches_volatile then begin
      stats.rejected_shape <- stats.rejected_shape + 1;
      None
    end
    else begin
      let trip_expr =
        Vpc_analysis.Simplify.expr
          (Expr.binop Expr.Add d.Stmt.hi (Expr.int_const 1) Ty.Int)
      in
      let trip_const = Expr.const_int_val trip_expr in
      let graph =
        match range with
        | None ->
            Graph.build ~assume_noalias:decide.Decide.assume_noalias
              ~trip:trip_const body ~index:d.Stmt.index ~invariant
        | Some itv ->
            (* a symbolic trip's upper bound is a sound stand-in: a larger
               trip only widens what the tests must exclude *)
            let trip_bound =
              match trip_const with
              | Some _ as t -> t
              | None -> snd (itv s trip_expr)
            in
            let oracle =
              { Test.interval = (fun e -> itv s e); Test.note = (fun _ _ -> ()) }
            in
            Test.with_oracle oracle (fun () ->
                Graph.build ~assume_noalias:decide.Decide.assume_noalias
                  ~trip:trip_bound body ~index:d.Stmt.index ~invariant)
      in
      if not graph.Graph.analyzable then begin
        stats.rejected_shape <- stats.rejected_shape + 1;
        None
      end
      else begin
        let carried = Graph.carried_edges graph in
        let mem_carried =
          List.filter (fun (e : Graph.edge) -> e.Graph.through_memory) carried
        in
        if mem_carried = [] then None  (* nothing to synchronize *)
        else begin
          (* The graph's carried scalar edges are conservative: a
             statement updating a temp it read gets a self edge even when
             an earlier same-iteration def kills the carried value.  The
             body is straight-line, so the precise test is direct: a
             genuine register recurrence reads some variable before the
             iteration's first definition of it. *)
          let first_def = Hashtbl.create 8 in
          List.iteri
            (fun pos (st : Stmt.t) ->
              match Stmt.defined_var st with
              | Some v when not (Hashtbl.mem first_def v) ->
                  Hashtbl.replace first_def v pos
              | _ -> ())
            body;
          let scalar_rec = ref None in
          List.iteri
            (fun pos (st : Stmt.t) ->
              List.iter
                (fun v ->
                  if v <> d.Stmt.index && !scalar_rec = None then
                    match Hashtbl.find_opt first_def v with
                    | Some dp when dp >= pos -> scalar_rec := Some v
                    | _ -> ())
                (Stmt.shallow_uses st))
            body;
          let scalar_rec = !scalar_rec in
          let live_out =
            List.find_opt
              (fun v ->
                v <> d.Stmt.index
                && Vpc_analysis.Liveness.live_out_of (Lazy.force live)
                     ~stmt_id:s.Stmt.id ~var:v)
              (List.filter_map Stmt.defined_var body)
          in
          let synchronizable (e : Graph.edge) =
            match e.Graph.distance, e.Graph.dist_lo with
            | Some dd, _ -> dd >= 1
            | None, Some l -> l >= 1  (* cumulative sync on the bound *)
            | None, None -> false
          in
          let unknown_dist =
            List.find_opt (fun e -> not (synchronizable e)) mem_carried
          in
          match scalar_rec, live_out, unknown_dist with
          | Some v, _, _ ->
              stats.do_rejected_scalar <- stats.do_rejected_scalar + 1;
              why
                "%s carries a register recurrence post/wait cannot order"
                (match Prog.find_var prog (Some func) v with
                | Some vm -> vm.Var.name
                | None -> Printf.sprintf "var%d" v);
              None
          | None, Some v, _ ->
              stats.do_rejected_scalar <- stats.do_rejected_scalar + 1;
              why
                "body defines %s, which is live after the loop (another \
                 processor would hold the final value)"
                (match Prog.find_var prog (Some func) v with
                | Some vm -> vm.Var.name
                | None -> Printf.sprintf "var%d" v);
              None
          | None, None, Some e ->
              stats.do_rejected_distance <- stats.do_rejected_distance + 1;
              (* only worth a why-line when some other edge *was*
                 synchronizable: an all-unknown loop was already explained
                 by the vectorizer (the unresolved alias pair), and this
                 pass adds nothing *)
              let some_known = List.exists synchronizable mem_carried in
              if some_known then
                why
                  "carried %s dependence (stmt %d -> stmt %d) has no \
                   constant distance (nor a lower bound) to synchronize"
                  (kind_name e.Graph.kind) e.Graph.src e.Graph.dst;
              None
          | None, None, None ->
              let syncs, eliminated = place_syncs mem_carried in
              (* pipeline cost model: per-statement cycle offsets give
                 each edge its distance-normalized stage latency *)
              let shape = Cost.shape_of_stmts body in
              let stmt_cost st =
                let sh = Cost.shape_of_stmts [ st ] in
                max 1 (sh.Cost.mem_refs + sh.Cost.flops + sh.Cost.iops)
              in
              let prefix = Array.make (n + 1) 0 in
              List.iteri
                (fun i st -> prefix.(i + 1) <- prefix.(i) + stmt_cost st)
                body;
              let dedges =
                List.map
                  (fun (y : Stmt.dsync) ->
                    {
                      Cost.post_offset = prefix.(y.Stmt.post_after + 1);
                      Cost.wait_offset = prefix.(y.Stmt.wait_before);
                      Cost.ddist = y.Stmt.distance;
                    })
                  syncs
              in
              let trips, (sched, procs) =
                match Decide.trips decide s.Stmt.loc with
                | Some t when t > 0 ->
                    (t, Decide.machine decide ~static:static_machine)
                | _ ->
                    ( (match trip_const with
                      | Some t when t > 0 -> t
                      | _ -> Cost.default_trip),
                      static_machine )
              in
              let serial = Cost.scalar_loop_cycles ~sched shape ~trips in
              let pipelined =
                Cost.doacross_loop_cycles ~sched shape ~trips ~procs dedges
              in
              let pipeline =
                Decide.override decide query (function
                  | Some pin -> pin
                  | None -> pipelined < serial)
              in
              if not pipeline then begin
                stats.do_rejected_cost <- stats.do_rejected_cost + 1;
                why
                  "pipeline model prefers serial (est doacross=%d serial=%d \
                   at %d procs, %d syncs)"
                  pipelined serial procs (List.length syncs);
                None
              end
              else begin
                stats.do_pipelined <- stats.do_pipelined + 1;
                stats.syncs_placed <- stats.syncs_placed + List.length syncs;
                stats.syncs_eliminated <-
                  stats.syncs_eliminated + eliminated;
                (match decide.Decide.report with
                | Some report ->
                    report
                      (Printf.sprintf
                         "%s: loop at %s: doacross est serial=%d pipelined=%d \
                          at %d procs (%d syncs, %d eliminated)"
                         func.Func.name
                         (Vpc_support.Loc.to_string s.Stmt.loc)
                         serial pipelined procs (List.length syncs) eliminated)
                | None -> ());
                Some { s with Stmt.desc = Stmt.Do_loop { d with sync = syncs } }
              end
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(* Apply the while path to pragma-marked loops the earlier phases could
   not turn into DO loops, and the post/wait path to serial counted
   loops whose carried dependences have constant distance. *)
let run ?(stats = new_stats ()) ?range (decide : Decide.t) (prog : Prog.t)
    (func : Func.t) =
  let changed = ref false in
  let live = lazy (Vpc_analysis.Liveness.build func) in
  let rec walk stmts = List.map walk_stmt stmts
  and walk_stmt (s : Stmt.t) =
    match s.Stmt.desc with
    | Stmt.While (li, cond, body)
      when Decide.on decide `Doacross && li.Stmt.pragma_independent
           && not li.Stmt.doacross
      -> (
        match process_loop prog func stats s li cond (walk body) with
        | Some s' ->
            changed := true;
            s'
        | None -> s)
    | Stmt.While (li, c, body) ->
        { s with desc = Stmt.While (li, c, walk body) }
    | Stmt.If (c, t, e) -> { s with desc = Stmt.If (c, walk t, walk e) }
    | Stmt.Do_loop d ->
        let d = { d with Stmt.body = walk d.Stmt.body } in
        let s = { s with desc = Stmt.Do_loop d } in
        if
          Decide.on decide `Doacross_sync
          && (not d.Stmt.parallel) && d.Stmt.sync = []
          && is_normalized d
          && not (contains_inner_loop d.Stmt.body)
        then
          match process_do decide ?range stats prog func live s d with
          | Some s' ->
              changed := true;
              s'
          | None -> s
        else s
    | _ -> s
  in
  func.Func.body <- walk func.Func.body;
  !changed
