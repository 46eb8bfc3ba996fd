(* The vectorizer and parallelizer.

   Allen–Kennedy codegen over the statement dependence graph: Tarjan
   SCCs of a DO-loop body, loop distribution in topological order, vector
   statement generation for dependence-free assignments, strip mining to
   the machine vector length, and "do parallel" spreading of independent
   strips over processors — producing exactly the §9 shape:

       do parallel vi = 0, 99, 32 {
         vr = min(99, vi+31);
         a[vi:vr:1] = b[vi:vr:1] + c[vi:vr:1];
       }

   Statement groups that carry a dependence cycle stay as sequential DO
   loops; groups connected by scalar flow are kept together (no scalar
   expansion). *)

open Vpc_il
open Vpc_dependence
module Profile = Vpc_profile
module Cost = Vpc_titan.Cost
module Decide = Vpc_tune.Decide
module Config = Vpc_tune.Config

(* Facts the symbolic range analysis can prove about an expression at a
   loop header, supplied as closures so this library does not depend on
   the analysis' representation. *)
type range_facts = {
  rf_interval : Stmt.t -> Expr.t -> int option * int option;
      (* sound bounds on an integer expression's value on entry to the
         given loop statement; (None, None) = unknown *)
  rf_divisible : Stmt.t -> Expr.t -> int -> bool;
      (* is the expression provably a multiple of the divisor? *)
}

(* What to do with one loop: the static policy's answer, or the one the
   profile (PGO) or the autotuner resolves ahead of it. *)
type pgo_choice = {
  keep_scalar : bool;      (* below break-even: leave the DO loop alone *)
  strip_parallel : bool;   (* spread vector strips over processors *)
  scalar_parallel : bool;  (* spread sequential groups over processors *)
  chosen_vlen : int;
}

type stats = {
  mutable loops_examined : int;
  mutable loops_vectorized : int;     (* at least one vector stmt emitted *)
  mutable loops_parallelized : int;   (* at least one do-parallel emitted *)
  mutable stmts_vectorized : int;
  mutable loops_rejected_shape : int;     (* calls/control flow in body *)
  mutable loops_rejected_dependence : int;(* carried cycles everywhere *)
  mutable short_vector_loops : int;       (* trip <= vlen: no strip loop *)
  mutable strip_loops_shared : int;       (* strip loops holding >1 vector stmt *)
  mutable pgo_scalar_loops : int;   (* profile said: stay scalar *)
  mutable pgo_serial_strips : int;  (* profile said: vector, drop parallel *)
  mutable pgo_strip_adjusted : int; (* profile picked a shorter strip *)
  mutable strip_guards_dropped : int;
      (* range analysis proved every strip full: no length clamp *)
}

let new_stats () =
  {
    loops_examined = 0;
    loops_vectorized = 0;
    loops_parallelized = 0;
    stmts_vectorized = 0;
    loops_rejected_shape = 0;
    loops_rejected_dependence = 0;
    short_vector_loops = 0;
    strip_loops_shared = 0;
    pgo_scalar_loops = 0;
    pgo_serial_strips = 0;
    pgo_strip_adjusted = 0;
    strip_guards_dropped = 0;
  }

(* ----------------------------------------------------------------- *)
(* Union-find over statement groups                                  *)
(* ----------------------------------------------------------------- *)

let rec uf_find parent i =
  if parent.(i) = i then i
  else begin
    parent.(i) <- uf_find parent parent.(i);
    parent.(i)
  end

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(ra) <- rb

(* ----------------------------------------------------------------- *)
(* Vector expression construction                                    *)
(* ----------------------------------------------------------------- *)

exception Not_vectorizable

(* Strip codegen decision derived from the range analysis (see
   [range_trip] in [process_loop]). *)
type trip_shape =
  | Trip_unknown
  | Trip_full                   (* trip is a multiple of the strip length *)
  | Trip_short                  (* symbolic trip proven within [1, vlen] *)

(* A section's element type is read off its base's pointee type (by the
   verifier, the interpreter, and codegen), but the affine decomposition
   can leave the invariant base typed as the enclosing aggregate — e.g.
   vs[i].pos[j] vectorized along i keeps a struct-typed base.  Retype the
   base to point at the accessed element; a no-op whenever the types
   already agree. *)
let retype_section elt (sec : Stmt.section) : Stmt.section =
  match sec.Stmt.base.Expr.ty with
  | Ty.Ptr t when Ty.equal t elt -> sec
  | _ -> { sec with Stmt.base = Expr.cast (Ty.Ptr elt) sec.Stmt.base }

(* Convert the RHS of a vector candidate into a vexpr.  [affine_of]
   decomposes addresses; [invariant] tests loop-invariance; [shift]
   rebases a section's start to the strip loop variable. *)
let rec to_vexpr ~invariant ~affine ~mk_section (e : Expr.t) : Stmt.vexpr =
  if invariant e then Stmt.Vscalar e
  else
    match e.Expr.desc with
    | Expr.Load p -> (
        match affine p with
        | Some (a : Subscript.affine) ->
            Stmt.Vsec (retype_section e.Expr.ty (mk_section a))
        | None -> raise Not_vectorizable)
    | Expr.Var _ when Ty.is_integer e.Expr.ty -> iota ~affine ~mk_section e
    | Expr.Binop (op, a, b) -> (
        try
          Stmt.Vbin
            ( op,
              to_vexpr ~invariant ~affine ~mk_section a,
              to_vexpr ~invariant ~affine ~mk_section b )
        with Not_vectorizable when Ty.is_integer e.Expr.ty ->
          iota ~affine ~mk_section e)
    | Expr.Unop (op, a) -> Stmt.Vun (op, to_vexpr ~invariant ~affine ~mk_section a)
    | Expr.Cast (ty, a) ->
        Stmt.Vcast (ty, to_vexpr ~invariant ~affine ~mk_section a)
    | _ -> raise Not_vectorizable

(* An affine integer expression of the loop index becomes an iota vector
   shifted like a section. *)
and iota ~affine ~mk_section (e : Expr.t) : Stmt.vexpr =
  match affine e with
  | Some (a : Subscript.affine) ->
      (* reuse the section shifting: a strip starting at [start] sees
         values base + coeff*start + coeff*i *)
      let sec = mk_section a in
      Stmt.Viota (sec.Stmt.base, Expr.int_const a.Subscript.coeff)
  | None -> raise Not_vectorizable

(* ----------------------------------------------------------------- *)
(* Per-loop driver                                                   *)
(* ----------------------------------------------------------------- *)

let simplify = Vpc_analysis.Simplify.expr

let is_normalized (d : Stmt.do_loop) =
  Expr.is_zero d.lo
  && (match d.step.Expr.desc with Expr.Const_int 1 -> true | _ -> false)

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

(* Scalar variables assigned at top level of the body. *)
let scalar_defs body =
  List.filter_map
    (fun (s : Stmt.t) ->
      match s.Stmt.desc with
      | Stmt.Assign (Stmt.Lvar v, _) -> Some v
      | _ -> None)
    body

(* ----------------------------------------------------------------- *)
(* Profile-guided decisions                                          *)
(* ----------------------------------------------------------------- *)

(* Operation mix of one iteration, for the Titan cost model. *)
let body_shape (body : Stmt.t list) : Cost.shape = Cost.shape_of_stmts body

(* Register-residency candidates of a scalar loop body: stores whose own
   right-hand side reads back the identical address — the accumulator
   idiom [a[i] = a[i] + ...].  Once the downstream reuse pass localizes
   such a section, its load AND its store stay in a vector register
   across the enclosing serial loop, thinning every strip's memory
   traffic by two references. *)
let residency_candidates ~noalias (body : Stmt.t list) : int =
  (* a pointer the body itself bumps has no single value, so a same-base
     load/store pair through it walks memory rather than revisiting one
     section: Must_alias through such a root would misprice the loop *)
  let defined_in_body, _ = Vpc_analysis.Reaching.vars_defined_in body in
  let variant v = Hashtbl.mem defined_in_body v in
  List.fold_left
    (fun acc (s : Stmt.t) ->
      match s.Stmt.desc with
      | Stmt.Assign (Stmt.Lmem addr, rhs) ->
          let self = ref false in
          Expr.iter
            (fun (e : Expr.t) ->
              match e.Expr.desc with
              | Expr.Load p
                when (match
                        Alias.bases ~assume_noalias:noalias ~variant p addr
                      with
                     | Alias.Must_alias 0 -> true
                     | Alias.No_alias | Alias.Must_alias _ | Alias.May_alias ->
                         false) ->
                  self := true
              | _ -> ())
            rhs;
          if !self then acc + 2 else acc
      | _ -> acc)
    0 body

(* Consult the measured mean trip count against the Titan cost model,
   returning the choice and, when a report sink is set, its report line.
   Absent data (no key, never measured) returns [None]: the static
   policy applies unchanged, which keeps compilation with an empty
   profile byte-identical to compilation without one.  A loop measured
   cold (entered zero times) also returns [None] — there is nothing to
   win there either way. *)
let pgo_decide (decide : Decide.t) (loop_stmt : Stmt.t) (body : Stmt.t list) :
    (pgo_choice * string option) option =
  match Decide.measured decide loop_stmt.Stmt.loc with
  | None -> None
  | Some (key, lp) -> (
      let base_vlen = decide.Decide.vlen in
      match Profile.Data.mean_trips lp with
      | None | Some 0 -> None
      | Some trips ->
          let shape = body_shape body in
          let sched, procs = Decide.machine decide ~static:(Cost.Full, 1) in
          let parallelize = Decide.on decide `Parallelize in
          let scalar = Cost.scalar_loop_cycles ~sched shape ~trips in
          (* candidate strip lengths: the machine length, plus a
             balanced length that spreads the measured trips evenly
             over the processors *)
          let balanced = max 1 ((trips + procs - 1) / procs) in
          let candidates =
            if balanced < base_vlen then [ base_vlen; balanced ]
            else [ base_vlen ]
          in
          let consider (best_cost, best) vlen ~parallel =
            if parallel && (procs <= 1 || not parallelize) then
              (best_cost, best)
            else
              let c =
                Cost.vector_loop_cycles shape ~trips ~vlen ~procs ~parallel
              in
              if c < best_cost then (c, Some (vlen, parallel))
              else (best_cost, best)
          in
          let vcost, vbest =
            List.fold_left
              (fun acc vlen ->
                consider (consider acc vlen ~parallel:false) vlen
                  ~parallel:true)
              (max_int, None) candidates
          in
          (* with the reuse pass downstream, an accumulator loop's
             vector form is priced with its resident sections out of
             the memory traffic; residency needs serial strips *)
          let resident =
            if Decide.on decide `Vreuse then
              min
                (residency_candidates ~noalias:decide.Decide.assume_noalias
                   body)
                shape.Cost.mem_refs
            else 0
          in
          let rcost =
            if resident = 0 then max_int
            else
              Cost.reuse_vector_loop_cycles shape ~trips ~vlen:base_vlen
                ~resident ~reps:Cost.default_trip
          in
          let keep_scalar = scalar <= min vcost rcost in
          let scalar_parallel =
            parallelize
            && Cost.parallel_scalar_cycles ~sched shape ~trips ~procs
               < scalar
          in
          let chosen_vlen, strip_parallel =
            if rcost < vcost then (base_vlen, false)
            else
              match vbest with
              | Some (v, p) -> (v, p)
              | None -> (base_vlen, false)
          in
          let line () =
            let be =
              Cost.vector_break_even ~sched shape ~vlen:base_vlen ~procs
                ~parallelize
            in
            Printf.sprintf
              "loop %s: measured trips≈%d (%d entries): est scalar=%d \
               vector=%d%s (strip %d%s) break-even=%s -> %s"
              (Profile.Key.to_string key)
              trips lp.Profile.Data.entries scalar
              (if vcost = max_int then -1 else vcost)
              (if rcost = max_int then ""
               else Printf.sprintf " reuse=%d" rcost)
              chosen_vlen
              (if strip_parallel then Printf.sprintf " x%d procs" procs
               else " serial")
              (match be with Some b -> string_of_int b | None -> "never")
              (if keep_scalar then "scalar"
               else if strip_parallel then "vector do-parallel"
               else "vector serial")
          in
          Some
            ( { keep_scalar; strip_parallel; scalar_parallel; chosen_vlen },
              Option.map (fun _ -> line ()) decide.Decide.report ))

(* The treatment the pass acts on, given the plan's answer: a mode pins
   scalar, serial-strip or parallel-strip code, a strip length alone
   keeps the static parallel choice, and no answer keeps [static] (the
   profile's choice, else the static policy).  Fields the code generated
   for it never reads are normalized away, so answers that build the
   same loop resolve to equal choices. *)
let resolve_choice ~vlen ~parallelize ~static (mode, strip) =
  let pinned keep par =
    {
      keep_scalar = keep;
      strip_parallel = par;
      scalar_parallel = par;
      chosen_vlen = Option.value strip ~default:vlen;
    }
  in
  let c =
    match (mode, strip) with
    | Some Config.Scalar, _ -> pinned true false
    | Some Config.Vector, _ -> pinned false false
    | Some Config.Parallel, _ -> pinned false true
    | None, Some _ -> pinned false parallelize
    | None, None -> static
  in
  if c.keep_scalar then
    {
      keep_scalar = true;
      strip_parallel = false;
      scalar_parallel = false;
      chosen_vlen = 0;
    }
  else
    {
      c with
      strip_parallel = parallelize && c.strip_parallel;
      scalar_parallel = parallelize && c.scalar_parallel;
    }

let process_loop (decide : Decide.t) ?range stats prog (func : Func.t)
    (live : Vpc_analysis.Liveness.t) (loop_stmt : Stmt.t) (d : Stmt.do_loop) :
    Stmt.t list option =
  stats.loops_examined <- stats.loops_examined + 1;
  let body = d.body in
  let defined_in_body, mem_written = Vpc_analysis.Reaching.vars_defined_in body in
  let unsafe_vars = Func.addressed_vars func in
  let invariant (e : Expr.t) =
    ((not (Expr.contains_load e)) || not mem_written)
    && List.for_all
         (fun v ->
           v <> d.index
           && (not (Hashtbl.mem defined_in_body v))
           && ((not mem_written) || not (Hashtbl.mem unsafe_vars v))
           &&
           match Prog.find_var prog (Some func) v with
           | Some vm -> not vm.Var.volatile
           | None -> false)
         (Expr.read_vars e)
  in
  let trip_expr = simplify (Expr.binop Expr.Add d.hi (Expr.int_const 1) Ty.Int) in
  let trip_const = Expr.const_int_val trip_expr in
  (* a tuned per-nest override pins the treatment outright; otherwise
     measured trip counts, when a profile has them for this loop *)
  let parallelize = Decide.on decide `Parallelize in
  let query = Decide.Vector loop_stmt.Stmt.loc in
  let tuned = Decide.answer decide query <> (None, None) in
  let pgo = pgo_decide decide loop_stmt d.body in
  let choice =
    let static =
      match pgo with
      | Some (c, _) -> c
      | None ->
          {
            keep_scalar = false;
            strip_parallel = true;
            scalar_parallel = true;
            chosen_vlen = decide.Decide.vlen;
          }
    in
    Decide.override decide query
      (resolve_choice ~vlen:decide.Decide.vlen ~parallelize ~static)
  in
  (match (pgo, decide.Decide.report) with
  | Some (_, Some line), Some report when not tuned -> report line
  | _ -> ());
  match choice with
  | { keep_scalar = true; _ } ->
      stats.pgo_scalar_loops <- stats.pgo_scalar_loops + 1;
      (match decide.Decide.why_scalar with
      | Some say ->
          say
            (Printf.sprintf
               "%s: loop at %s stays scalar: %s puts it below the vector \
                break-even"
               func.Func.name
               (Vpc_support.Loc.to_string loop_stmt.Stmt.loc)
               (if tuned then "the tuned configuration" else "profile"))
      | None -> ());
      None  (* below break-even: the serial DO loop is the fast version *)
  | _ ->
  let strip_vlen = choice.chosen_vlen in
  let strip_par_ok = choice.strip_parallel in
  let scalar_par_ok = choice.scalar_parallel in
  let assume_noalias = decide.Decide.assume_noalias || d.independent in
  let pp_e0 ppf e = Pp.pp_expr { Pp.prog; Pp.func = Some func } ppf e in
  (* distances the range analysis could not bound, for --why-scalar *)
  let range_notes = ref [] in
  let graph =
    match range with
    | None ->
        Graph.build ~assume_noalias ~trip:trip_const body ~index:d.index
          ~invariant
    | Some rf ->
        (* a symbolic trip count's upper bound is a sound stand-in for
           the exact trip everywhere the tests consume it: a larger trip
           only widens the solution range they must exclude *)
        let trip_bound =
          match trip_const with
          | Some _ as t -> t
          | None -> snd (rf.rf_interval loop_stmt trip_expr)
        in
        let oracle =
          {
            Test.interval = (fun e -> rf.rf_interval loop_stmt e);
            Test.note =
              (fun e what ->
                range_notes :=
                  Format.asprintf "the byte distance %a is %s" pp_e0 e what
                  :: !range_notes);
          }
        in
        Test.with_oracle oracle (fun () ->
            Graph.build ~assume_noalias ~trip:trip_bound body ~index:d.index
              ~invariant)
  in
  (* What the range analysis proves about the trip count, for strip
     codegen: a trip that is a known multiple of the strip length makes
     every strip full (the per-strip length computation and clamp
     disappear); a symbolic trip proven within [1, vlen] needs no strip
     loop at all.  A constant non-multiple trip keeps the runtime clamp:
     peeling the remainder out of a parallel strip loop would serialize
     it against the full strips, which costs more on a multiprocessor
     than the clamp saves. *)
  let range_trip =
    match range with
    | None -> Trip_unknown
    | Some rf -> (
        match trip_const with
        | Some t when t > strip_vlen && t mod strip_vlen = 0 -> Trip_full
        | Some _ -> Trip_unknown
        | None ->
            if rf.rf_divisible loop_stmt trip_expr strip_vlen then Trip_full
            else (
              match rf.rf_interval loop_stmt trip_expr with
              | Some l, Some h when l >= 1 && h <= strip_vlen -> Trip_short
              | _ -> Trip_unknown))
  in
  (* --why-scalar: name what kept this loop out of vector form *)
  let why fmt =
    Format.kasprintf
      (fun msg ->
        match decide.Decide.why_scalar with
        | Some say ->
            say
              (Printf.sprintf "%s: loop at %s stays scalar: %s"
                 func.Func.name
                 (Vpc_support.Loc.to_string loop_stmt.Stmt.loc)
                 msg)
        | None -> ())
      fmt
  in
  let pp_e ppf e = Pp.pp_expr { Pp.prog; Pp.func = Some func } ppf e in
  let stmt_loc (s : Stmt.t) = Vpc_support.Loc.to_string s.Stmt.loc in
  (* the first write-involving reference pair the alias analysis could
     not separate, re-deriving each verdict the dependence graph used *)
  let unresolved_alias_pair () =
    let arr = Array.of_list body in
    let refs = Array.of_list graph.Graph.refs in
    let variant v = Hashtbl.mem defined_in_body v in
    let verdict (r1 : Subscript.reference) (r2 : Subscript.reference) =
      match r1.Subscript.affine, r2.Subscript.affine with
      | Some a1, Some a2 ->
          Alias.bases ~assume_noalias a1.Subscript.base a2.Subscript.base
      | _ ->
          Alias.bases ~assume_noalias ~variant r1.Subscript.addr
            r2.Subscript.addr
    in
    let found = ref None in
    (try
       for i = 0 to Array.length refs - 1 do
         for j = i to Array.length refs - 1 do
           let r1 = refs.(i) and r2 = refs.(j) in
           if
             (r1.Subscript.kind = Subscript.Write
             || r2.Subscript.kind = Subscript.Write)
             && verdict r1 r2 = Alias.May_alias
           then begin
             found := Some (r1, r2);
             raise Exit
           end
         done
       done
     with Exit -> ());
    Option.map
      (fun ((r1 : Subscript.reference), (r2 : Subscript.reference)) ->
        let describe (r : Subscript.reference) =
          let loc =
            if r.Subscript.ref_pos >= 0 && r.Subscript.ref_pos < Array.length arr
            then stmt_loc arr.(r.Subscript.ref_pos)
            else "?"
          in
          Format.asprintf "%s of %a (at %s)"
            (match r.Subscript.kind with
            | Subscript.Write -> "store"
            | Subscript.Read -> "load")
            pp_e r.Subscript.addr loc
        in
        (describe r1, describe r2))
      !found
  in
  if not graph.Graph.analyzable then begin
    stats.loops_rejected_shape <- stats.loops_rejected_shape + 1;
    (if decide.Decide.why_scalar <> None then
       let offender =
         List.find_opt
           (fun (s : Stmt.t) ->
             match s.Stmt.desc with Stmt.Assign _ -> false | _ -> true)
           body
       in
       match offender with
       | Some ({ Stmt.desc = Stmt.Call (_, Stmt.Direct name, _); _ } as s) ->
           why
             "body calls %s (at %s); dependence analysis needs the call \
              inlined or its effects bounded"
             name (stmt_loc s)
       | Some s ->
           why "body statement at %s is not an assignment" (stmt_loc s)
       | None -> why "body is not analyzable");
    None
  end
  else begin
    let sccs = Graph.sccs graph in
    (* merge SCCs connected by scalar (non-memory) dependences, then merge
       any cycles the contraction created, to fixpoint *)
    let n = graph.Graph.nstmts in
    let parent = Array.init n (fun i -> i) in
    List.iter
      (fun comp ->
        match comp with
        | first :: rest -> List.iter (fun m -> uf_union parent first m) rest
        | [] -> ())
      sccs;
    List.iter
      (fun (e : Graph.edge) ->
        if not e.through_memory then uf_union parent e.src e.dst)
      graph.Graph.edges;
    (* collapse cycles among groups until the group graph is a DAG *)
    let rec collapse () =
      let group_of i = uf_find parent i in
      (* build group graph *)
      let groups = Hashtbl.create 8 in
      for i = 0 to n - 1 do
        let g = group_of i in
        Hashtbl.replace groups g
          (i :: Option.value (Hashtbl.find_opt groups g) ~default:[])
      done;
      let gids = Hashtbl.fold (fun g _ acc -> g :: acc) groups [] in
      let idx_of = Hashtbl.create 8 in
      List.iteri (fun i g -> Hashtbl.replace idx_of g i) gids;
      let gn = List.length gids in
      let succs = Array.make gn [] in
      List.iter
        (fun (e : Graph.edge) ->
          let a = Hashtbl.find idx_of (group_of e.src) in
          let b = Hashtbl.find idx_of (group_of e.dst) in
          if a <> b && not (List.mem b succs.(a)) then succs.(a) <- b :: succs.(a))
        graph.Graph.edges;
      (* find a cycle via DFS; if found, merge its members and retry *)
      let color = Array.make gn 0 in
      let cycle = ref None in
      let stack = ref [] in
      let rec dfs u =
        if !cycle = None then begin
          color.(u) <- 1;
          stack := u :: !stack;
          List.iter
            (fun v ->
              if !cycle = None then
                if color.(v) = 1 then begin
                  (* extract cycle u..v from stack *)
                  let rec take acc = function
                    | x :: rest ->
                        if x = v then x :: acc else take (x :: acc) rest
                    | [] -> acc
                  in
                  cycle := Some (take [] !stack)
                end
                else if color.(v) = 0 then dfs v)
            succs.(u);
          color.(u) <- 2;
          stack := List.tl !stack
        end
      in
      for u = 0 to gn - 1 do
        if color.(u) = 0 then dfs u
      done;
      match !cycle with
      | Some (first :: rest) when rest <> [] ->
          let gids_arr = Array.of_list gids in
          List.iter
            (fun gi -> uf_union parent gids_arr.(first) gids_arr.(gi))
            rest;
          collapse ()
      | _ -> ()
    in
    if n > 0 then collapse ();
    (* final groups in topological order *)
    let group_of i = uf_find parent i in
    let groups = Hashtbl.create 8 in
    for i = n - 1 downto 0 do
      let g = group_of i in
      Hashtbl.replace groups g
        (i :: Option.value (Hashtbl.find_opt groups g) ~default:[])
    done;
    let group_list = Hashtbl.fold (fun _ members acc -> members :: acc) groups [] in
    (* topological order via Kahn on group DAG, position-stable *)
    let gmap = Hashtbl.create 8 in
    List.iteri (fun i members -> List.iter (fun m -> Hashtbl.replace gmap m i) members)
      group_list;
    let gn = List.length group_list in
    let garr = Array.of_list group_list in
    let succs = Array.make gn [] and indeg = Array.make gn 0 in
    List.iter
      (fun (e : Graph.edge) ->
        let a = Hashtbl.find gmap e.src and b = Hashtbl.find gmap e.dst in
        if a <> b && not (List.mem b succs.(a)) then begin
          succs.(a) <- b :: succs.(a);
          indeg.(b) <- indeg.(b) + 1
        end)
      graph.Graph.edges;
    let ready = ref [] in
    for i = gn - 1 downto 0 do
      if indeg.(i) = 0 then ready := i :: !ready
    done;
    let min_pos g = List.fold_left min max_int garr.(g) in
    let sort_ready l = List.sort (fun a b -> compare (min_pos a) (min_pos b)) l in
    ready := sort_ready !ready;
    let ordered = ref [] in
    let rec kahn () =
      match !ready with
      | [] -> ()
      | g :: rest ->
          ready := rest;
          ordered := garr.(g) :: !ordered;
          List.iter
            (fun j ->
              indeg.(j) <- indeg.(j) - 1;
              if indeg.(j) = 0 then ready := sort_ready (j :: !ready))
            succs.(g);
          kahn ()
    in
    kahn ();
    let ordered_groups = List.rev !ordered in
    let body_arr = Array.of_list body in
    (* --- emit each group --- *)
    let b = Builder.ctx prog func in
    let any_vector = ref false in
    let any_parallel = ref false in
    let affine_of e =
      match Subscript.affine_of ~index:d.index ~invariant e with
      | Some a when invariant a.Subscript.base -> Some a
      | Some _ | None -> None
    in
    let rec emit_group members : Stmt.t list =
      let members = List.sort compare members in
      let group_stmts = List.map (fun i -> body_arr.(i)) members in
      let carried_inside = Graph.has_carried_cycle graph members in
      let vector_candidate =
        Decide.on decide `Vectorize && (not carried_inside)
        &&
        match members, group_stmts with
        | [ _pos ], [ { Stmt.desc = Stmt.Assign (Stmt.Lmem addr, rhs); _ } ] -> (
            match affine_of addr with
            | Some a when a.Subscript.coeff <> 0 -> Some (addr, a, rhs) |> Option.is_some
            | _ -> false)
        | _ -> false
      in
      if vector_candidate then begin
        match members, group_stmts with
        | [ _pos ], [ ({ Stmt.desc = Stmt.Assign (Stmt.Lmem addr, rhs); _ } as st) ] -> (
            let a = Option.get (affine_of addr) in
            let elt = match addr.Expr.ty with Ty.Ptr t -> t | t -> t in
            try
              (* Build the vector statement over a strip starting at
                 [strip_var] (an expression) with [count] elements. *)
              let build_vector ~start ~count =
                let shift (base : Expr.t) (coeff : int) =
                  if Expr.is_zero start then base
                  else
                    simplify
                      (Expr.binop Expr.Add base
                         (Expr.binop Expr.Mul (Expr.int_const coeff) start Ty.Int)
                         base.Expr.ty)
                in
                let mk_section (af : Subscript.affine) =
                  {
                    Stmt.base = shift af.Subscript.base af.Subscript.coeff;
                    count;
                    stride = Expr.int_const af.Subscript.coeff;
                  }
                in
                let invariant_v e = invariant e in
                let affine_v e = affine_of e in
                let vsrc = to_vexpr ~invariant:invariant_v ~affine:affine_v ~mk_section rhs in
                let vdst = retype_section elt (mk_section a) in
                Builder.stmt b ~loc:st.Stmt.loc
                  (Stmt.Vector { vdst; vsrc; velt = elt })
              in
              let result =
                match trip_const, range_trip with
                | Some t, _ when t <= strip_vlen ->
                    (* short vector: no strip loop needed (§5.2's graphics
                       remark) *)
                    stats.short_vector_loops <- stats.short_vector_loops + 1;
                    [ build_vector ~start:(Expr.int_const 0) ~count:trip_expr ]
                | _, Trip_short ->
                    (* symbolic trip, but the range analysis bounds it by
                       one strip: bare short-vector code again *)
                    stats.short_vector_loops <- stats.short_vector_loops + 1;
                    [ build_vector ~start:(Expr.int_const 0) ~count:trip_expr ]
                | _, shape ->
                    (* strip-mined loop, parallel across processors *)
                    let vi = Builder.fresh_temp b ~name:"vi" Ty.Int in
                    let vi_e = Expr.var vi in
                    let parallel = parallelize && strip_par_ok in
                    if parallelize && not strip_par_ok then
                      stats.pgo_serial_strips <- stats.pgo_serial_strips + 1;
                    if strip_vlen <> decide.Decide.vlen then
                      stats.pgo_strip_adjusted <- stats.pgo_strip_adjusted + 1;
                    if parallel then any_parallel := true;
                    let strip_loop ~hi body_stmts =
                      Builder.do_loop b ~parallel ~independent:d.independent
                        ~index:vi.Var.id ~lo:(Expr.int_const 0) ~hi
                        ~step:(Expr.int_const strip_vlen) body_stmts
                    in
                    (match shape with
                    | Trip_full ->
                        (* every strip is full: the per-strip length
                           computation and clamp disappear *)
                        stats.strip_guards_dropped <-
                          stats.strip_guards_dropped + 1;
                        [
                          strip_loop ~hi:d.hi
                            [
                              build_vector ~start:vi_e
                                ~count:(Expr.int_const strip_vlen);
                            ];
                        ]
                    | Trip_unknown | Trip_short ->
                        let len = Builder.fresh_temp b ~name:"vlen" Ty.Int in
                        let len_stmts =
                          [
                            Builder.assign b len
                              (simplify
                                 (Expr.binop Expr.Sub trip_expr vi_e Ty.Int));
                            Builder.if_ b
                              (Expr.binop Expr.Gt (Expr.var len)
                                 (Expr.int_const strip_vlen) Ty.Int)
                              [ Builder.assign b len (Expr.int_const strip_vlen) ]
                              [];
                          ]
                        in
                        let vstmt =
                          build_vector ~start:vi_e ~count:(Expr.var len)
                        in
                        [ strip_loop ~hi:d.hi (len_stmts @ [ vstmt ]) ])
              in
              any_vector := true;
              stats.stmts_vectorized <- stats.stmts_vectorized + 1;
              result
            with Not_vectorizable -> sequential_group members group_stmts carried_inside)
        | _ -> sequential_group members group_stmts carried_inside
      end
      else sequential_group members group_stmts carried_inside
    and sequential_group members group_stmts carried_inside : Stmt.t list =
      ignore members;
      (* A dependence-free scalar group can still be spread over
         processors if its scalar definitions die with the loop. *)
      let parallel_ok =
        parallelize && scalar_par_ok && (not carried_inside)
        && List.for_all
             (fun v ->
               not
                 (Vpc_analysis.Liveness.live_out_of live
                    ~stmt_id:loop_stmt.Stmt.id ~var:v))
             (scalar_defs group_stmts)
      in
      if parallel_ok then any_parallel := true;
      [
        Builder.do_loop b ~parallel:parallel_ok ~independent:d.independent
          ~index:d.index ~lo:d.lo ~hi:d.hi ~step:d.step group_stmts;
      ]
    in
    (* --- strip sharing (fusion option) ---
       Consecutive singleton vector groups linked by nothing stronger
       than loop-independent (distance-0) dependences can live in ONE
       strip loop: one vi/len pair, one do-parallel, one barrier.  A
       carried dependence between two groups would cross processor
       boundaries inside a shared parallel strip, so such groups keep
       separate loops. *)
    let vec_info members =
      match members with
      | [ pos ] -> (
          match body_arr.(pos) with
          | { Stmt.desc = Stmt.Assign (Stmt.Lmem addr, rhs); _ } as st
            when Decide.on decide `Vectorize
                 && not (Graph.has_carried_cycle graph members) -> (
              match affine_of addr with
              | Some a when a.Subscript.coeff <> 0 -> Some (pos, st, addr, a, rhs)
              | _ -> None)
          | _ -> None)
      | _ -> None
    in
    let carried_between p1 p2 =
      List.exists
        (fun (e : Graph.edge) ->
          e.carried
          && ((e.src = p1 && e.dst = p2) || (e.src = p2 && e.dst = p1)))
        graph.Graph.edges
    in
    let emit_run run : Stmt.t list =
      match run with
      | [] -> []
      | [ (_, members) ] -> emit_group members
      | _ -> (
          let infos = List.map fst run in
          let mk ~start ~count (st, addr, a, rhs) =
            let shift (base : Expr.t) (coeff : int) =
              if Expr.is_zero start then base
              else
                simplify
                  (Expr.binop Expr.Add base
                     (Expr.binop Expr.Mul (Expr.int_const coeff) start Ty.Int)
                     base.Expr.ty)
            in
            let mk_section (af : Subscript.affine) =
              {
                Stmt.base = shift af.Subscript.base af.Subscript.coeff;
                count;
                stride = Expr.int_const af.Subscript.coeff;
              }
            in
            let vsrc = to_vexpr ~invariant ~affine:affine_of ~mk_section rhs in
            let elt = match addr.Expr.ty with Ty.Ptr t -> t | t -> t in
            ( st.Stmt.loc,
              { Stmt.vdst = retype_section elt (mk_section a); vsrc; velt = elt }
            )
          in
          try
            (* validate every group before allocating temps or stmts, so
               a Not_vectorizable body falls the whole run back to the
               one-loop-per-group path with no side effects *)
            List.iter
              (fun (_pos, st, addr, a, rhs) ->
                ignore
                  (mk ~start:(Expr.int_const 0) ~count:trip_expr
                     (st, addr, a, rhs)))
              infos;
            match trip_const, range_trip with
            | Some t, _ when t <= strip_vlen ->
                (* short vectors need no strip loop; nothing to share *)
                List.concat_map (fun (_, members) -> emit_group members) run
            | _, Trip_short ->
                List.concat_map (fun (_, members) -> emit_group members) run
            | _, shape ->
                let vi = Builder.fresh_temp b ~name:"vi" Ty.Int in
                let vi_e = Expr.var vi in
                let mk_vstmts ~start ~count ~tally =
                  List.map
                    (fun (_pos, st, addr, a, rhs) ->
                      let loc, v = mk ~start ~count (st, addr, a, rhs) in
                      if tally then
                        stats.stmts_vectorized <- stats.stmts_vectorized + 1;
                      Builder.stmt b ~loc (Stmt.Vector v))
                    infos
                in
                let parallel = parallelize && strip_par_ok in
                if parallelize && not strip_par_ok then
                  stats.pgo_serial_strips <- stats.pgo_serial_strips + 1;
                if strip_vlen <> decide.Decide.vlen then
                  stats.pgo_strip_adjusted <- stats.pgo_strip_adjusted + 1;
                if parallel then any_parallel := true;
                any_vector := true;
                stats.strip_loops_shared <- stats.strip_loops_shared + 1;
                let strip_loop ~hi body_stmts =
                  Builder.do_loop b ~parallel ~independent:d.independent
                    ~index:vi.Var.id ~lo:(Expr.int_const 0) ~hi
                    ~step:(Expr.int_const strip_vlen) body_stmts
                in
                (match shape with
                | Trip_full ->
                    stats.strip_guards_dropped <-
                      stats.strip_guards_dropped + 1;
                    [
                      strip_loop ~hi:d.hi
                        (mk_vstmts ~start:vi_e
                           ~count:(Expr.int_const strip_vlen) ~tally:true);
                    ]
                | Trip_unknown | Trip_short ->
                    let len = Builder.fresh_temp b ~name:"vlen" Ty.Int in
                    let len_stmts =
                      [
                        Builder.assign b len
                          (simplify (Expr.binop Expr.Sub trip_expr vi_e Ty.Int));
                        Builder.if_ b
                          (Expr.binop Expr.Gt (Expr.var len)
                             (Expr.int_const strip_vlen) Ty.Int)
                          [ Builder.assign b len (Expr.int_const strip_vlen) ]
                          [];
                      ]
                    in
                    [
                      strip_loop ~hi:d.hi
                        (len_stmts
                        @ mk_vstmts ~start:vi_e ~count:(Expr.var len)
                            ~tally:true);
                    ])
          with Not_vectorizable ->
            List.concat_map (fun (_, members) -> emit_group members) run)
    in
    if ordered_groups = [] then None
    else begin
      let pieces =
        if not (Decide.on decide `Fuse) then
          List.concat_map emit_group ordered_groups
        else begin
          let rec gather pieces run = function
            | [] -> pieces @ emit_run (List.rev run)
            | members :: rest -> (
                match vec_info members with
                | Some ((pos, _, _, _, _) as info) ->
                    let compatible =
                      List.for_all
                        (fun ((p2, _, _, _, _), _) ->
                          not (carried_between pos p2))
                        run
                    in
                    if compatible then
                      gather pieces ((info, members) :: run) rest
                    else
                      gather
                        (pieces @ emit_run (List.rev run))
                        [ (info, members) ]
                        rest
                | None ->
                    gather
                      (pieces @ emit_run (List.rev run) @ emit_group members)
                      [] rest)
          in
          gather [] [] ordered_groups
        end
      in
      if !any_vector then stats.loops_vectorized <- stats.loops_vectorized + 1;
      if !any_parallel then stats.loops_parallelized <- stats.loops_parallelized + 1;
      if (not !any_vector) && not !any_parallel then begin
        stats.loops_rejected_dependence <- stats.loops_rejected_dependence + 1;
        (if decide.Decide.why_scalar <> None then
           let missing_fact =
             match !range_notes with
             | note :: _ -> Printf.sprintf " (%s)" note
             | [] -> ""
           in
           match unresolved_alias_pair () with
           | Some (d1, d2) ->
               why "cannot prove %s independent of %s%s" d1 d2 missing_fact
           | None -> (
               match !range_notes with
               | note :: _ ->
                   why
                     "a dependence survives the symbolic range tests: %s"
                     note
               | [] ->
                   why
                     "a loop-carried dependence cycle keeps every statement \
                      sequential"));
        None  (* keep the original loop: nothing was gained *)
      end
      else Some pieces
    end
  end

let run ?(stats = new_stats ()) ?range (decide : Decide.t) (prog : Prog.t)
    (func : Func.t) =
  let live = Vpc_analysis.Liveness.build func in
  let changed = ref false in
  let rec walk stmts = List.concat_map walk_stmt stmts
  and walk_stmt (s : Stmt.t) : Stmt.t list =
    match s.Stmt.desc with
    | Stmt.Do_loop d when is_normalized d && not (contains_inner_loop d.body) -> (
        match process_loop decide ?range stats prog func live s d with
        | Some replacement ->
            changed := true;
            replacement
        | None -> [ s ])
    | Stmt.Do_loop d ->
        [ { s with desc = Stmt.Do_loop { d with body = walk d.body } } ]
    | Stmt.If (c, t, e) -> [ { s with desc = Stmt.If (c, walk t, walk e) } ]
    | Stmt.While (li, c, bd) -> [ { s with desc = Stmt.While (li, c, walk bd) } ]
    | _ -> [ s ]
  in
  func.Func.body <- walk func.Func.body;
  !changed
