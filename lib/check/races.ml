(* Translation validation of parallelism claims.  The passes prove
   independence *before* transforming; this module re-derives the proof
   from the transformed IL alone, using the same dependence machinery
   (Subscript/Alias/Test/Graph), and reports what cannot be re-proved.

   Conventions mirror lib/dependence: [Subscript.affine] coefficients are
   bytes per *index unit*, so a loop of step [s] advances [coeff * s]
   bytes per iteration; [Test.affine] distances are iterations, positive
   when reference 2 touches the common location after reference 1. *)

open Vpc_il
open Vpc_dependence

type ctx = {
  prog : Prog.t;
  func : Func.t;
  live : Vpc_analysis.Liveness.t;
  unsafe : (int, unit) Hashtbl.t;  (* address-taken variables *)
  noalias : bool;                  (* compiler-wide option *)
  pointsto : Vpc_pointsto.Pointsto.t option;
      (* whole-program mod/ref summaries: calls in parallel bodies stop
         being worst-case when the summary bounds their footprint *)
  range_env : Stmt.t -> Expr.t -> int option * int option;
      (* sound interval for an integer expression on entry to a
         statement, from the symbolic range analysis; [(None, None)]
         when the analysis is off or knows nothing.  Needed to re-prove
         loops the vectorizer parallelized through the range oracle:
         symbolic base distances and symbolic trip counts. *)
  mutable acc : Report.violation list;
}

let report ctx ~rule ~(stmt : Stmt.t) fmt =
  Format.kasprintf
    (fun message ->
      ctx.acc <-
        Report.v ~rule ~func:ctx.func.Func.name ~stmt:stmt.Stmt.id
          ~loc:stmt.Stmt.loc message
        :: ctx.acc)
    fmt

let find_var ctx id = Prog.find_var ctx.prog (Some ctx.func) id

let var_name ctx id =
  match find_var ctx id with
  | Some v -> v.Var.name
  | None -> Printf.sprintf "var%d" id

(* The vectorizer's loop-invariance predicate, reconstructed over the
   output loop. *)
let invariant_pred ctx ~index ~defined_in_body ~mem_written (e : Expr.t) =
  ((not (Expr.contains_load e)) || not mem_written)
  && List.for_all
       (fun v ->
         v <> index
         && (not (Hashtbl.mem defined_in_body v))
         && ((not mem_written) || not (Hashtbl.mem ctx.unsafe v))
         &&
         match find_var ctx v with
         | Some vm -> not vm.Var.volatile
         | None -> false)
       (Expr.read_vars e)

let kind_name = function
  | Graph.Flow -> "flow"
  | Graph.Anti -> "anti"
  | Graph.Output -> "output"

(* ------------------------------------------------------------------ *)
(* parallel DO loops                                                  *)
(* ------------------------------------------------------------------ *)

(* Memory footprint of one access: [affine] in index units plus an
   element sweep of [elts] elements [estride] bytes apart ([elts = 1],
   [estride = 0] for scalar accesses).  [bounded] says [elts] is a sound
   bound. *)
type mref = {
  m_stmt : Stmt.t;
  m_kind : Subscript.access_kind;
  m_addr : Expr.t;  (* the raw address expression (element 0) *)
  m_affine : Subscript.affine option;
  m_elts : int;
  m_estride : int;
  m_bounded : bool;
}

(* Recognize the strip-mine guard [if (v > k) v = k] as a bound for a
   section count held in variable [v]. *)
let count_bound body (count : Expr.t) =
  match Expr.const_int_val count with
  | Some n -> Some n
  | None -> (
      match count.Expr.desc with
      | Expr.Var v ->
          let bound = ref None in
          Stmt.iter_list
            (fun s ->
              match s.Stmt.desc with
              | Stmt.If
                  ( {
                      Expr.desc =
                        Expr.Binop
                          ( Expr.Gt,
                            { Expr.desc = Expr.Var v'; _ },
                            { Expr.desc = Expr.Const_int k; _ } );
                      _;
                    },
                    [
                      {
                        Stmt.desc =
                          Stmt.Assign
                            ( Stmt.Lvar v'',
                              { Expr.desc = Expr.Const_int k'; _ } );
                        _;
                      };
                    ],
                    [] )
                when v' = v && v'' = v && k' <= k ->
                  bound := Some (max k k')
              | _ -> ())
            body;
          !bound
      | _ -> None)

let collect_refs ~affine ~bound (body : Stmt.t list) : mref list =
  let refs = ref [] in
  let scalar st kind addr =
    refs :=
      {
        m_stmt = st;
        m_kind = kind;
        m_addr = addr;
        m_affine = affine addr;
        m_elts = 1;
        m_estride = 0;
        m_bounded = true;
      }
      :: !refs
  in
  let loads_in st e =
    List.iter
      (fun ((addr : Expr.t), _elt) -> scalar st Subscript.Read addr)
      (Subscript.loads_of e [])
  in
  let section st kind (sec : Stmt.section) =
    loads_in st sec.Stmt.base;
    loads_in st sec.Stmt.count;
    loads_in st sec.Stmt.stride;
    let elts, bounded =
      match bound sec.Stmt.count with
      | Some n when n >= 0 && n <= 4096 -> (n, true)
      | _ -> (1, false)
    in
    let estride, bounded =
      match Expr.const_int_val sec.Stmt.stride with
      | Some s -> (s, bounded)
      | None -> (0, false)
    in
    refs :=
      {
        m_stmt = st;
        m_kind = kind;
        m_addr = sec.Stmt.base;
        m_affine = affine sec.Stmt.base;
        m_elts = elts;
        m_estride = estride;
        m_bounded = bounded;
      }
      :: !refs
  in
  let rec vexpr st = function
    | Stmt.Vsec sec -> section st Subscript.Read sec
    | Stmt.Vscalar e -> loads_in st e
    | Stmt.Viota (a, b) ->
        loads_in st a;
        loads_in st b
    | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> vexpr st a
    | Stmt.Vbin (_, a, b) ->
        vexpr st a;
        vexpr st b
    | Stmt.Vtmp _ -> ()  (* register value: no memory footprint *)
  in
  let rec walk (st : Stmt.t) =
    match st.Stmt.desc with
    | Stmt.Assign (Stmt.Lvar _, rhs) -> loads_in st rhs
    | Stmt.Assign (Stmt.Lmem addr, rhs) ->
        scalar st Subscript.Write addr;
        loads_in st addr;
        loads_in st rhs
    | Stmt.If (c, t, e) ->
        loads_in st c;
        List.iter walk t;
        List.iter walk e
    | Stmt.Vector v ->
        section st Subscript.Write v.Stmt.vdst;
        vexpr st v.Stmt.vsrc
    | Stmt.Vdef vd ->
        loads_in st vd.Stmt.vcount;
        vexpr st vd.Stmt.vval
    | _ -> ()  (* other shapes were reported before we got here *)
  in
  List.iter walk body;
  List.rev !refs

(* Cross-iteration conflict test for one footprint pair.  [step_c] and
   [lo_c] translate index-unit coefficients into per-iteration strides
   and rebase both references to iteration 0.  [variant] marks variables
   the body redefines: a pointer bumped inside the loop has no single
   value, so its raw address must not decompose to a Pointer root. *)
(* May_alias resolution through the range analysis, mirroring the
   dependence tester's oracle path: the bases differ by a symbolic byte
   distance whose interval, per element of each footprint, must clear
   the interval GCD/Banerjee battery.  [trip_hi] is an upper bound on
   the iteration count (possibly from the ranges, when the loop bound
   itself is symbolic); an over-estimate only weakens the test. *)
let may_alias_independent ctx loop ~trip_hi ~step_c ~lo_c (r1 : mref)
    (r2 : mref) (a1 : Subscript.affine) (a2 : Subscript.affine) =
  match step_c with
  | None -> false
  | Some step ->
      r1.m_bounded && r2.m_bounded
      && (a1.Subscript.coeff = a2.Subscript.coeff || lo_c <> None)
      &&
      let delta_e =
        Vpc_analysis.Simplify.expr
          (Expr.binop Expr.Sub a2.Subscript.base a1.Subscript.base Ty.Int)
      in
      let dlo, dhi = ctx.range_env loop delta_e in
      let rebase =
        match lo_c with
        | Some lo -> lo * (a2.Subscript.coeff - a1.Subscript.coeff)
        | None -> 0 (* equal coefficients: the difference cancels *)
      in
      let c1 = a1.Subscript.coeff * step and c2 = a2.Subscript.coeff * step in
      let indep = ref true in
      for e1 = 0 to r1.m_elts - 1 do
        for e2 = 0 to r2.m_elts - 1 do
          let off = rebase + (r2.m_estride * e2) - (r1.m_estride * e1) in
          match
            Test.interval_affine ~c1 ~c2
              ~dlo:(Option.map (fun l -> l + off) dlo)
              ~dhi:(Option.map (fun h -> h + off) dhi)
              ~trip:trip_hi
          with
          | Test.Independent -> ()
          | Test.Dependent _ -> indep := false
        done
      done;
      !indep

let check_pair ctx loop ~noalias ~variant ~trip ~trip_hi ~step_c ~lo_c
    (r1 : mref) (r2 : mref) =
  let describe (r : mref) =
    Printf.sprintf "%s in stmt %d"
      (match r.m_kind with
      | Subscript.Write -> "write"
      | Subscript.Read -> "read")
      r.m_stmt.Stmt.id
  in
  let flag rule fmt =
    Format.kasprintf
      (fun detail ->
        report ctx ~rule ~stmt:loop "parallel loop: %s vs %s: %s"
          (describe r1) (describe r2) detail)
      fmt
  in
  match r1.m_affine, r2.m_affine with
  | Some a1, Some a2 -> (
      match
        Alias.bases ~assume_noalias:noalias a1.Subscript.base a2.Subscript.base
      with
      | Alias.No_alias -> ()
      | Alias.May_alias ->
          if
            not
              (may_alias_independent ctx loop ~trip_hi ~step_c ~lo_c r1 r2 a1
                 a2)
          then
            flag "parallel-may-alias" "bases may alias, independence unproved"
      | Alias.Must_alias delta -> (
          match step_c with
          | None -> flag "parallel-carried-dep" "non-constant loop step"
          | Some step ->
              let c1 = a1.Subscript.coeff * step
              and c2 = a2.Subscript.coeff * step in
              let delta =
                if a1.Subscript.coeff = a2.Subscript.coeff then Some delta
                else
                  Option.map
                    (fun lo ->
                      delta + (lo * (a2.Subscript.coeff - a1.Subscript.coeff)))
                    lo_c
              in
              (match delta with
              | None ->
                  flag "parallel-carried-dep"
                    "non-constant lower bound with unequal strides"
              | Some delta ->
                  if not (r1.m_bounded && r2.m_bounded) then
                    flag "parallel-carried-dep"
                      "aliasing bases and an unbounded vector section"
                  else
                    for e1 = 0 to r1.m_elts - 1 do
                      for e2 = 0 to r2.m_elts - 1 do
                        let delta' =
                          delta + (r2.m_estride * e2) - (r1.m_estride * e1)
                        in
                        match Test.affine ~c1 ~c2 ~delta:delta' ~trip with
                        | Test.Independent -> ()
                        | Test.Dependent { distance = Some 0; _ }
                          when not (c1 = 0 && c2 = 0) ->
                            ()  (* same iteration: ordered on one processor *)
                        | Test.Dependent { distance; _ } ->
                            flag "parallel-carried-dep"
                              "loop-carried dependence (distance %s)"
                              (match distance with
                              | Some 0 -> "every iteration"
                              | Some d -> string_of_int d
                              | None -> "unknown")
                      done
                    done)))
  | _ ->
      (* a non-affine address: only disjoint roots can exclude it *)
      if
        Alias.bases ~assume_noalias:noalias ~variant r1.m_addr r2.m_addr
        <> Alias.No_alias
      then
        flag "parallel-may-alias"
          "non-affine address cannot be proved independent"

(* Scalars in a parallel body: every variable an iteration defines must be
   defined before it is read (no value flows in from another iteration)
   and must be dead after the loop (no iteration's value is "last"). *)
let check_scalar_discipline ctx (loop : Stmt.t) ~index body =
  let defined_in_body, _ = Vpc_analysis.Reaching.vars_defined_in body in
  Hashtbl.iter
    (fun v () ->
      if
        v <> index
        && Vpc_analysis.Liveness.live_out_of ctx.live ~stmt_id:loop.Stmt.id
             ~var:v
      then
        report ctx ~rule:"parallel-liveout" ~stmt:loop
          "parallel loop defines %s, which is live after the loop"
          (var_name ctx v))
    defined_in_body;
  let defined = Hashtbl.create 8 in
  let rec walk (s : Stmt.t) =
    List.iter
      (fun v ->
        if
          v <> index
          && Hashtbl.mem defined_in_body v
          && not (Hashtbl.mem defined v)
        then
          report ctx ~rule:"parallel-carried-scalar" ~stmt:s
            "%s is read before the iteration defines it" (var_name ctx v))
      (Stmt.shallow_uses s);
    (match s.Stmt.desc with
    | Stmt.If (_, t, e) ->
        List.iter walk t;
        List.iter walk e
    | _ -> ());
    match Stmt.defined_var s with
    | Some v -> Hashtbl.replace defined v ()
    | None -> ()
  in
  List.iter walk body

(* Vector temporaries in a parallel body: every [Vtmp] read must follow a
   [Vdef] of the same id earlier in the same iteration — otherwise a
   register value would flow in from another iteration, i.e. another
   processor's register file.  Definitions under an If are not trusted to
   reach the join. *)
let check_vtmp_discipline ctx (loop : Stmt.t) body =
  let defined = Hashtbl.create 4 in
  let rec vexpr (s : Stmt.t) = function
    | Stmt.Vsec _ | Stmt.Vscalar _ | Stmt.Viota _ -> ()
    | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> vexpr s a
    | Stmt.Vbin (_, a, b) ->
        vexpr s a;
        vexpr s b
    | Stmt.Vtmp (t, _) ->
        if not (Hashtbl.mem defined t) then
          report ctx ~rule:"parallel-carried-vtmp" ~stmt:s
            "parallel loop (stmt %d) reads vt%d before the iteration \
             defines it"
            loop.Stmt.id t
  in
  let rec walk (s : Stmt.t) =
    match s.Stmt.desc with
    | Stmt.Vector v -> vexpr s v.Stmt.vsrc
    | Stmt.Vdef vd ->
        vexpr s vd.Stmt.vval;
        Hashtbl.replace defined vd.Stmt.vt ()
    | Stmt.If (_, t, e) ->
        let saved = Hashtbl.copy defined in
        List.iter walk t;
        Hashtbl.reset defined;
        Hashtbl.iter (Hashtbl.replace defined) saved;
        List.iter walk e;
        Hashtbl.reset defined;
        Hashtbl.iter (Hashtbl.replace defined) saved
    | _ -> ()
  in
  List.iter walk body

(* ------------------------------------------------------------------ *)
(* calls in parallel bodies, bounded by mod/ref summaries             *)
(* ------------------------------------------------------------------ *)

(* Everything the body's own statements may write, as abstract objects:
   memory stores plus directly assigned global scalars. *)
let body_written_objs ctx pt (body : Stmt.t list) =
  let module P = Vpc_pointsto.Pointsto in
  let objs = ref P.Objset.empty in
  let add_addr a =
    List.iter (fun (o, _) -> objs := P.Objset.add o !objs) (P.objects_of pt a)
  in
  Stmt.iter_list
    (fun st ->
      match st.Stmt.desc with
      | Stmt.Assign (Stmt.Lmem a, _) -> add_addr a
      | Stmt.Vector v -> add_addr v.Stmt.vdst.Stmt.base
      | Stmt.Call (Some (Stmt.Lmem a), _, _) -> add_addr a
      | Stmt.Assign (Stmt.Lvar v, _) | Stmt.Call (Some (Stmt.Lvar v), _, _)
        -> (
          match find_var ctx v with
          | Some var when Var.is_global var ->
              objs := P.Objset.add (P.Obj v) !objs
          | _ -> ())
      | _ -> ())
    body;
  !objs

(* A call statement inside a parallel DO body.  Without points-to facts
   every call is worst-case; with them, a callee whose summary writes
   nothing, performs no io, and reads only storage the loop never writes
   is as harmless as a scalar assignment. *)
let call_bounded ctx ~(written : Vpc_pointsto.Pointsto.Objset.t option) dst
    target args : (unit, string) result =
  let module P = Vpc_pointsto.Pointsto in
  let generic =
    "body contains a statement the validator cannot prove independent"
  in
  match ctx.pointsto, written with
  | None, _ | _, None -> Error generic
  | Some pt, Some written -> (
      match target with
      | Stmt.Indirect _ -> Error generic
      | Stmt.Direct name -> (
          match P.summary pt name with
          | None ->
              Error
                (Printf.sprintf "body calls %s, whose effects are unknown" name)
          | Some sum ->
              if sum.P.io then
                Error
                  (Printf.sprintf
                     "body calls %s, which performs io (iteration order would \
                      be observable)"
                     name)
              else if not (P.Objset.is_empty sum.P.mods) then
                Error
                  (Printf.sprintf
                     "body calls %s, whose mod/ref summary writes memory" name)
              else if
                match dst with Some (Stmt.Lmem _) -> true | _ -> false
              then Error generic
              else if List.exists Expr.contains_load args then Error generic
              else
                (* read-only callee; fold in the global scalars the
                   argument expressions themselves read *)
                let reads =
                  List.fold_left
                    (fun acc arg ->
                      List.fold_left
                        (fun acc v ->
                          match Prog.find_var ctx.prog (Some ctx.func) v with
                          | Some var when Var.is_global var ->
                              P.Objset.add (P.Obj v) acc
                          | _ -> acc)
                        acc (Expr.read_vars arg))
                    sum.P.refs args
                in
                if P.Objset.is_empty reads then Ok ()
                else if P.Objset.mem P.Unknown written then
                  Error
                    (Printf.sprintf
                       "body calls %s but writes storage the validator cannot \
                        bound"
                       name)
                else if P.Objset.mem P.Unknown reads then
                  if P.Objset.is_empty written then Ok ()
                  else
                    Error
                      (Printf.sprintf
                         "body calls %s, whose read set is unbounded" name)
                else if P.Objset.is_empty (P.Objset.inter reads written) then
                  Ok ()
                else
                  Error
                    (Printf.sprintf
                       "body calls %s, which reads storage the loop writes"
                       name)))

let check_parallel_do ctx (s : Stmt.t) (d : Stmt.do_loop) =
  let noalias = ctx.noalias || d.Stmt.independent in
  let body = d.Stmt.body in
  let defined_in_body, mem_written =
    Vpc_analysis.Reaching.vars_defined_in body
  in
  let invariant =
    invariant_pred ctx ~index:d.Stmt.index ~defined_in_body ~mem_written
  in
  let lo_c = Expr.const_int_val d.Stmt.lo
  and hi_c = Expr.const_int_val d.Stmt.hi
  and step_c = Expr.const_int_val d.Stmt.step in
  let trip =
    match lo_c, hi_c, step_c with
    | Some lo, Some hi, Some st when st <> 0 ->
        let n = if st > 0 then ((hi - lo) / st) + 1 else ((lo - hi) / -st) + 1 in
        Some (max n 0)
    | _ -> None
  in
  (* With a symbolic upper bound the exact trip is unknown, but the
     ranges may still bound it — enough for the interval Banerjee span
     when a may-alias pair's byte distance is large. *)
  let trip_hi =
    match trip with
    | Some _ -> trip
    | None -> (
        match lo_c, step_c with
        | Some lo, Some st when st > 0 -> (
            match snd (ctx.range_env s d.Stmt.hi) with
            | Some h -> Some (max 0 (((h - lo) / st) + 1))
            | None -> None)
        | _ -> None)
  in
  if trip = Some 0 || trip = Some 1 then ()  (* no second iteration to race *)
  else begin
    let flat_assignments =
      List.for_all
        (fun (st : Stmt.t) ->
          match st.Stmt.desc with Stmt.Assign _ -> true | _ -> false)
        body
    in
    if flat_assignments && lo_c = Some 0 && step_c = Some 1 then begin
      (* the vectorizer's own representation: re-run the full graph,
         with the range oracle the vectorizer proved it under *)
      let oracle =
        { Test.interval = ctx.range_env s; Test.note = (fun _ _ -> ()) }
      in
      let g =
        Test.with_oracle oracle (fun () ->
            Graph.build ~assume_noalias:noalias ~trip:trip_hi body
              ~index:d.Stmt.index ~invariant)
      in
      List.iter
        (fun (e : Graph.edge) ->
          report ctx ~rule:"parallel-carried-dep" ~stmt:s
            "parallel loop carries a %s dependence (stmt %d -> stmt %d, \
             distance %s)"
            (kind_name e.Graph.kind) e.Graph.src e.Graph.dst
            (match e.Graph.distance with
            | Some d -> string_of_int d
            | None -> "unknown"))
        (Graph.carried_edges g);
      check_scalar_discipline ctx s ~index:d.Stmt.index body
    end
    else begin
      (* composite body (strip loops): shape, scalars, and footprints *)
      let written =
        Option.map (fun pt -> body_written_objs ctx pt body) ctx.pointsto
      in
      let shape_ok = ref true in
      Stmt.iter_list
        (fun inner ->
          match inner.Stmt.desc with
          | Stmt.Call (dst, target, args) -> (
              match call_bounded ctx ~written dst target args with
              | Ok () -> ()
              | Error reason ->
                  shape_ok := false;
                  report ctx ~rule:"parallel-shape" ~stmt:inner
                    "parallel loop (stmt %d) %s" s.Stmt.id reason)
          | Stmt.Goto _ | Stmt.Label _ | Stmt.Return _ | Stmt.While _
          | Stmt.Do_loop _ ->
              shape_ok := false;
              report ctx ~rule:"parallel-shape" ~stmt:inner
                "parallel loop (stmt %d) body contains a statement the \
                 validator cannot prove independent"
                s.Stmt.id
          | _ -> ())
        body;
      if !shape_ok then begin
        check_scalar_discipline ctx s ~index:d.Stmt.index body;
        check_vtmp_discipline ctx s body;
        let affine e =
          match Subscript.affine_of ~index:d.Stmt.index ~invariant e with
          | Some a when invariant a.Subscript.base -> Some a
          | Some _ | None -> None
        in
        let refs = collect_refs ~affine ~bound:(count_bound body) body in
        let variant v = Hashtbl.mem defined_in_body v in
        let arr = Array.of_list refs in
        let n = Array.length arr in
        for i = 0 to n - 1 do
          for j = i to n - 1 do
            let r1 = arr.(i) and r2 = arr.(j) in
            if r1.m_kind = Subscript.Write || r2.m_kind = Subscript.Write then
              check_pair ctx s ~noalias ~variant ~trip ~trip_hi ~step_c ~lo_c
                r1 r2
          done
        done
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* doacross while loops (§10)                                         *)
(* ------------------------------------------------------------------ *)

(* A call acceptable inside a doacross body: pure scalar computation
   only.  Doacross runs iterations concurrently with only the serial
   prefix ordered, so even a read of shared memory is unprovable here —
   the summary must show no memory effects at all. *)
let pure_scalar_call ctx dst target args =
  match ctx.pointsto, target with
  | Some pt, Stmt.Direct name -> (
      match Vpc_pointsto.Pointsto.summary pt name with
      | Some sum ->
          let module P = Vpc_pointsto.Pointsto in
          (not sum.P.io)
          && P.Objset.is_empty sum.P.mods
          && P.Objset.is_empty sum.P.refs
          && (match dst with Some (Stmt.Lmem _) -> false | _ -> true)
          && not (List.exists Expr.contains_load args)
      | None -> false)
  | _ -> false

let check_doacross ctx (s : Stmt.t) (li : Stmt.loop_info) cond body =
  let arr = Array.of_list body in
  let n = Array.length arr in
  let sp = max 0 (min n li.Stmt.serial_prefix) in
  Stmt.iter_list
    (fun inner ->
      match inner.Stmt.desc with
      | Stmt.Call (dst, target, args) ->
          if not (pure_scalar_call ctx dst target args) then
            report ctx ~rule:"doacross-shape" ~stmt:inner
              "doacross loop (stmt %d) body contains control flow or calls"
              s.Stmt.id
      | Stmt.Goto _ | Stmt.Label _ | Stmt.Return _ | Stmt.While _
      | Stmt.Do_loop _ ->
          report ctx ~rule:"doacross-shape" ~stmt:inner
            "doacross loop (stmt %d) body contains control flow or calls"
            s.Stmt.id
      | _ -> ())
    body;
  let deep_defs pos =
    let acc = ref [] in
    Stmt.iter
      (fun inner ->
        match Stmt.defined_var inner with
        | Some v -> acc := v :: !acc
        | None -> ())
      arr.(pos);
    !acc
  in
  let deep_reads pos =
    let acc = ref [] in
    Stmt.iter (fun inner -> acc := Stmt.shallow_uses inner @ !acc) arr.(pos);
    !acc
  in
  let cond_reads = Expr.read_vars cond in
  for pos = sp to n - 1 do
    List.iter
      (fun v ->
        if List.mem v cond_reads then
          report ctx ~rule:"doacross-cond" ~stmt:arr.(pos)
            "parallel part defines %s, which the loop condition reads"
            (var_name ctx v);
        for q = 0 to pos - 1 do
          if List.mem v (deep_reads q) then
            if q < sp then
              report ctx ~rule:"doacross-carried" ~stmt:arr.(pos)
                "parallel part defines %s, which the serial prefix reads"
                (var_name ctx v)
            else
              report ctx ~rule:"doacross-carried" ~stmt:arr.(pos)
                "parallel part defines %s, which an earlier parallel \
                 statement reads (previous iteration's value)"
                (var_name ctx v)
        done;
        if List.mem v (deep_reads pos) then
          report ctx ~rule:"doacross-carried" ~stmt:arr.(pos)
            "parallel part updates %s from its own previous value"
            (var_name ctx v);
        if Vpc_analysis.Liveness.live_out_of ctx.live ~stmt_id:s.Stmt.id ~var:v
        then
          report ctx ~rule:"doacross-carried" ~stmt:arr.(pos)
            "parallel part defines %s, which is live after the loop"
            (var_name ctx v))
      (deep_defs pos)
  done

(* ------------------------------------------------------------------ *)
(* doacross DO loops (post/wait pipelining)                           *)
(* ------------------------------------------------------------------ *)

(* Independent re-derivation of the transform's coverage rule: a carried
   edge (src, dst, dist) is ordered by a chain of sync edges e1..em when
   src <= post(e1), wait(e_j) <= post(e_(j+1)), wait(em) <= dst — each
   <= supplied by same-iteration program order — and the chain's
   distances sum to exactly [dist].  A partial sum proves nothing:
   iterations at the two ends run on different processors with no
   per-statement ordering between them.  A cumulative sync (wait until
   EVERY iteration <= i - d has posted) may terminate a chain early:
   once the partial sum so far is <= the remaining distance it orders
   against all iterations at least that far back, including the source.
   An edge with only a symbolic distance bounded below by [dist] is
   coverable by a cumulative sync alone — exact chains prove a single
   distance, not a half-line. *)
let sync_covers (syncs : Stmt.dsync list) ~src ~dst ~dist ~(exact : bool) =
  let seen = Hashtbl.create 16 in
  let budget = ref 4096 in
  let rec from_pos pos remaining =
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
             if y.Stmt.cum then
               (* covers every distance >= y.distance at once *)
               y.Stmt.wait_before <= dst
             else
               (y.Stmt.distance = remaining && y.Stmt.wait_before <= dst)
               || from_pos y.Stmt.wait_before (remaining - y.Stmt.distance))
           syncs
       end
  in
  if exact then from_pos src dist
  else
    List.exists
      (fun (y : Stmt.dsync) ->
        y.Stmt.cum && y.Stmt.post_after >= src && y.Stmt.wait_before <= dst
        && y.Stmt.distance <= dist)
      syncs

(* A doacross-synchronized DO loop spreads iterations round-robin with
   only the post/wait edges ordering them, so every carried dependence
   must be covered by the sync chain.  The body must be flat normalized
   assignments: each iteration then executes every post unconditionally,
   which (with wf's position bounds) is the deadlock-freedom argument —
   a wait's producer iteration always reaches its post. *)
let check_do_sync ctx (s : Stmt.t) (d : Stmt.do_loop) =
  let body = d.Stmt.body in
  let flat =
    List.for_all
      (fun (st : Stmt.t) ->
        match st.Stmt.desc with Stmt.Assign _ | Stmt.Nop -> true | _ -> false)
      body
  in
  if
    (not flat)
    || (not (Expr.is_zero d.Stmt.lo))
    || Expr.const_int_val d.Stmt.step <> Some 1
  then
    report ctx ~rule:"doacross-sync-shape" ~stmt:s
      "doacross-synchronized loop is not a flat normalized assignment loop"
  else begin
    let defined_in_body, mem_written =
      Vpc_analysis.Reaching.vars_defined_in body
    in
    let invariant =
      invariant_pred ctx ~index:d.Stmt.index ~defined_in_body ~mem_written
    in
    let trip =
      match Expr.const_int_val d.Stmt.hi with
      | Some h -> Some (max 0 (h + 1))
      | None -> (
          match snd (ctx.range_env s d.Stmt.hi) with
          | Some h -> Some (max 0 (h + 1))
          | None -> None)
    in
    let oracle =
      { Test.interval = (fun e -> ctx.range_env s e);
        Test.note = (fun _ _ -> ()) }
    in
    let g =
      Test.with_oracle oracle (fun () ->
          Graph.build ~assume_noalias:ctx.noalias ~trip body
            ~index:d.Stmt.index ~invariant)
    in
    if not g.Graph.analyzable then
      report ctx ~rule:"doacross-sync-shape" ~stmt:s
        "doacross-synchronized loop body has unanalyzable references"
    else
      (* carried scalar edges are left to [check_scalar_discipline]: the
         graph's are conservative (a temp updated after a same-iteration
         def gets a self edge), while the discipline walk reports exactly
         the genuine use-before-def recurrences on this straight-line
         body *)
      List.iter
        (fun (e : Graph.edge) ->
          if e.Graph.through_memory then
            match (e.Graph.distance, e.Graph.dist_lo) with
            | Some dist, _ when dist >= 1 ->
                if
                  not
                    (sync_covers d.Stmt.sync ~src:e.Graph.src ~dst:e.Graph.dst
                       ~dist ~exact:true)
                then
                  report ctx ~rule:"doacross-unsync-dep" ~stmt:s
                    "carried %s dependence (stmt %d -> stmt %d, distance %d) \
                     is not covered by the loop's post/wait chain"
                    (kind_name e.Graph.kind) e.Graph.src e.Graph.dst dist
            | None, Some lo when lo >= 1 ->
                if
                  not
                    (sync_covers d.Stmt.sync ~src:e.Graph.src ~dst:e.Graph.dst
                       ~dist:lo ~exact:false)
                then
                  report ctx ~rule:"doacross-unsync-dep" ~stmt:s
                    "carried %s dependence (stmt %d -> stmt %d, distance >= \
                     %d) is not covered by a cumulative post/wait"
                    (kind_name e.Graph.kind) e.Graph.src e.Graph.dst lo
            | _ ->
                report ctx ~rule:"doacross-unsync-dep" ~stmt:s
                  "carried %s dependence (stmt %d -> stmt %d) has no \
                   constant distance to synchronize"
                  (kind_name e.Graph.kind) e.Graph.src e.Graph.dst)
        (Graph.carried_edges g);
    check_scalar_discipline ctx s ~index:d.Stmt.index body
  end

(* ------------------------------------------------------------------ *)
(* vector statements                                                  *)
(* ------------------------------------------------------------------ *)

(* Both engines evaluate the whole source before storing.  The source
   loop stored element-by-element, so a source element that the
   statement overwrites *earlier* in element order (positive distance)
   read the new value sequentially but reads the old value here. *)
let check_vector_stmt ctx (s : Stmt.t) (v : Stmt.vstmt) =
  let dst = v.Stmt.vdst in
  match Expr.const_int_val dst.Stmt.stride with
  | None -> ()  (* nothing provable about a symbolic stride *)
  | Some s1 ->
      let trip = Expr.const_int_val dst.Stmt.count in
      let check_against ~what ~c2 (src_base : Expr.t) =
        match Alias.bases ~assume_noalias:ctx.noalias dst.Stmt.base src_base with
        | Alias.No_alias | Alias.May_alias -> ()
        | Alias.Must_alias delta -> (
            match Test.affine ~c1:s1 ~c2 ~delta ~trip with
            | Test.Independent -> ()
            | Test.Dependent { distance = Some d; _ } when d <= 0 && c2 <> 0 -> ()
            | Test.Dependent { distance; _ } ->
                report ctx ~rule:"vector-overlap" ~stmt:s
                  "%s overlaps destination elements already overwritten in \
                   element order (distance %s)"
                  what
                  (match distance with
                  | Some d -> string_of_int d
                  | None -> "unknown"))
      in
      let scalar_loads what e =
        List.iter
          (fun ((addr : Expr.t), _) -> check_against ~what ~c2:0 addr)
          (Subscript.loads_of e [])
      in
      let rec walk = function
        | Stmt.Vsec src -> (
            scalar_loads "source section base" src.Stmt.base;
            match Expr.const_int_val src.Stmt.stride with
            | Some s2 when s2 <> 0 ->
                check_against ~what:"source section" ~c2:s2 src.Stmt.base
            | _ -> ())
        | Stmt.Vscalar e -> scalar_loads "broadcast scalar operand" e
        | Stmt.Viota (a, b) ->
            scalar_loads "iota offset" a;
            scalar_loads "iota scale" b
        | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> walk a
        | Stmt.Vbin (_, a, b) ->
            walk a;
            walk b
        | Stmt.Vtmp _ -> ()  (* register value: reads no memory *)
      in
      walk v.Stmt.vsrc

(* ------------------------------------------------------------------ *)
(* driver                                                             *)
(* ------------------------------------------------------------------ *)

let check_func ?(assume_noalias = false) ?pointsto ?range prog func =
  let range_env =
    match range with
    | None -> fun _ _ -> (None, None)
    | Some t ->
        let fe = lazy (Vpc_range.Range.analyze_func t prog func) in
        fun (s : Stmt.t) e -> (
          match Vpc_range.Range.env_before (Lazy.force fe) s.Stmt.id with
          | None -> (None, None)
          | Some env ->
              let itv = Vpc_range.Range.interval_of_expr env e in
              (itv.Vpc_range.Range.Interval.lo, itv.Vpc_range.Range.Interval.hi))
  in
  let ctx =
    {
      prog;
      func;
      live = Vpc_analysis.Liveness.build func;
      unsafe = Func.addressed_vars func;
      noalias = assume_noalias;
      pointsto;
      range_env;
      acc = [];
    }
  in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Do_loop d when d.Stmt.parallel -> check_parallel_do ctx s d
      | Stmt.Do_loop d when d.Stmt.sync <> [] -> check_do_sync ctx s d
      | Stmt.While (li, cond, body) when li.Stmt.doacross ->
          check_doacross ctx s li cond body
      | Stmt.Vector v -> check_vector_stmt ctx s v
      | _ -> ())
    func.Func.body;
  List.rev ctx.acc
