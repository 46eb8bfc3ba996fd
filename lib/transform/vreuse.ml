(* Vector-register reuse.

   The vectorizer's output still treats the vector register file as a
   scratchpad: every strip re-loads its operands from memory and stores
   its result back, even when an enclosing serial loop revisits the same
   section on every iteration.  On a machine with a single memory port
   (§2) that traffic is the whole cost — matmul's c[i][j:j+vl] is loaded
   and stored once per k although k never moves it.

   Three reuse transformations, all on the vectorized IL:

   1. Strip residency (accumulator localization).  A serial DO loop K
      whose body is exactly one strip loop of vector statements is
      interchanged — the strip loop becomes the outer level — whenever
      every section written is K-invariant and every K-varying read is
      disjoint from every write.  Then each statement of the form

          sec = f(sec, ...)        with sec K-invariant

      is rewritten to keep sec in a vector temporary ([Stmt.Vdef],
      backed by one fixed vector register in codegen):

          vt = sec                 (* load once, before K *)
          do K { vt = f(vt, ...) } (* register-resident accumulation *)
          sec = vt                 (* store once, after K *)

   2. Invariant Vload hoisting.  A section read inside K that is
      K-invariant and disjoint from everything K writes is loaded into a
      temporary once, ahead of the loop.

   3. Vstore→Vload forwarding and operand sharing.  In a straight-line
      run of vector statements (notably a fused strip loop's body,
      where several statements share one vi/len), a store whose section
      is read again later forwards through a temporary, and a section
      read more than once is loaded once and shared.

   Legality is judged by [Alias.bases]: forwarding and residency demand
   [Must_alias 0] with equal constant strides and syntactically equal
   counts (the identical section); hoisting demands [No_alias] against
   every write.  Volatile storage and address expressions that read
   memory disqualify a section.  Profitability of the interchange is
   priced by the memory-port traffic model ([Cost.strip_port_cycles],
   [Cost.reuse_vector_loop_cycles]); a measured profile refines the
   repetition count when it knows the loop. *)

open Vpc_il
open Vpc_dependence
module Cost = Vpc_titan.Cost
module Decide = Vpc_tune.Decide

type stats = {
  mutable strips_interchanged : int;  (* strip loop hoisted over a DO *)
  mutable accumulators_localized : int;  (* load+store pairs made resident *)
  mutable invariant_loads_hoisted : int;
  mutable stores_forwarded : int;  (* Vstore→Vload through a register *)
  mutable loads_shared : int;  (* one Vload feeding several statements *)
  mutable pgo_priced : int;  (* a measured trip count refined the pricing *)
}

let new_stats () =
  {
    strips_interchanged = 0;
    accumulators_localized = 0;
    invariant_loads_hoisted = 0;
    stores_forwarded = 0;
    loads_shared = 0;
    pgo_priced = 0;
  }

(* ----------------------------------------------------------------- *)
(* Sections: identity, disjointness, eligibility                     *)
(* ----------------------------------------------------------------- *)

let section_elt (sec : Stmt.section) =
  match sec.Stmt.base.Expr.ty with Ty.Ptr t -> t | t -> t

let sec_exprs (sec : Stmt.section) =
  [ sec.Stmt.base; sec.Stmt.count; sec.Stmt.stride ]

(* The identical section: provably zero base distance, equal constant
   strides, syntactically equal counts, same element type.  Anything
   weaker (unknown distance, differing strides) may interleave the two
   element sequences and must not share a register. *)
let same_section ~noalias (a : Stmt.section) (b : Stmt.section) =
  (match Alias.bases ~assume_noalias:noalias a.Stmt.base b.Stmt.base with
  | Alias.Must_alias 0 -> true
  | Alias.No_alias | Alias.Must_alias _ | Alias.May_alias -> false)
  && (match
        (Expr.const_int_val a.Stmt.stride, Expr.const_int_val b.Stmt.stride)
      with
     | Some x, Some y -> x = y
     | _ -> false)
  && Expr.equal a.Stmt.count b.Stmt.count
  && Ty.equal (section_elt a) (section_elt b)

let disjoint ~noalias (a : Stmt.section) (b : Stmt.section) =
  match Alias.bases ~assume_noalias:noalias a.Stmt.base b.Stmt.base with
  | Alias.No_alias -> true
  | Alias.Must_alias _ | Alias.May_alias -> false

(* A section whose value may live in a register: address expressions
   read no memory (so they stay valid while stores intervene), a
   constant stride, and no volatile storage anywhere near it — neither
   in the address computation nor as the addressed object itself. *)
let section_ok prog func (sec : Stmt.section) =
  let var_ok v =
    match Prog.find_var prog (Some func) v with
    | Some vm -> not vm.Var.volatile
    | None -> false
  in
  List.for_all (fun e -> not (Expr.contains_load e)) (sec_exprs sec)
  && Option.is_some (Expr.const_int_val sec.Stmt.stride)
  && List.for_all
       (fun e -> List.for_all var_ok (Expr.read_vars e))
       (sec_exprs sec)
  && (match Alias.canonicalize sec.Stmt.base with
     | Some { Alias.root = Some (Alias.Object v); _ }
     | Some { Alias.root = Some (Alias.Pointer v); _ } ->
         var_ok v
     | _ -> true)

(* Invariant with respect to loop index [k]. *)
let sec_invariant k (sec : Stmt.section) =
  List.for_all (fun e -> not (List.mem k (Expr.read_vars e))) (sec_exprs sec)

(* ----------------------------------------------------------------- *)
(* Vector-expression traversals                                      *)
(* ----------------------------------------------------------------- *)

let rec vexpr_sections (ve : Stmt.vexpr) : Stmt.section list =
  match ve with
  | Stmt.Vsec s -> [ s ]
  | Stmt.Vscalar _ | Stmt.Viota _ | Stmt.Vtmp _ -> []
  | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> vexpr_sections a
  | Stmt.Vbin (_, a, b) -> vexpr_sections a @ vexpr_sections b

let rec vexpr_scalars (ve : Stmt.vexpr) : Expr.t list =
  match ve with
  | Stmt.Vsec s -> sec_exprs s
  | Stmt.Vscalar e -> [ e ]
  | Stmt.Viota (o, s) -> [ o; s ]
  | Stmt.Vtmp _ -> []
  | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> vexpr_scalars a
  | Stmt.Vbin (_, a, b) -> vexpr_scalars a @ vexpr_scalars b

(* Pointers of every scalar memory read embedded in [ve]. *)
let vexpr_load_ptrs ve =
  let ptrs = ref [] in
  List.iter
    (Expr.iter (fun (e : Expr.t) ->
         match e.Expr.desc with
         | Expr.Load p -> ptrs := p :: !ptrs
         | _ -> ()))
    (vexpr_scalars ve);
  !ptrs

(* Replace every read of the identical section by a vector temporary. *)
let rec subst_section ~noalias (sec : Stmt.section) (vt : int) (ty : Ty.t)
    (ve : Stmt.vexpr) : Stmt.vexpr =
  match ve with
  | Stmt.Vsec s when same_section ~noalias s sec -> Stmt.Vtmp (vt, ty)
  | Stmt.Vsec _ | Stmt.Vscalar _ | Stmt.Viota _ | Stmt.Vtmp _ -> ve
  | Stmt.Vcast (t, a) -> Stmt.Vcast (t, subst_section ~noalias sec vt ty a)
  | Stmt.Vun (op, a) -> Stmt.Vun (op, subst_section ~noalias sec vt ty a)
  | Stmt.Vbin (op, a, b) ->
      Stmt.Vbin
        ( op,
          subst_section ~noalias sec vt ty a,
          subst_section ~noalias sec vt ty b )

let reads_section ~noalias sec ve =
  List.exists (fun s -> same_section ~noalias s sec) (vexpr_sections ve)

(* Operation mix of one vector element, for the traffic model. *)
let vbody_shape (vstmts : Stmt.vstmt list) : Cost.shape =
  let mem = ref 0 and flops = ref 0 and iops = ref 0 in
  List.iter
    (fun (v : Stmt.vstmt) ->
      incr mem;  (* the store *)
      let fp = Ty.is_float v.Stmt.velt in
      let rec go = function
        | Stmt.Vsec _ -> incr mem
        | Stmt.Vscalar _ | Stmt.Vtmp _ -> ()
        | Stmt.Viota _ -> incr iops
        | Stmt.Vcast (_, a) ->
            incr flops;
            go a
        | Stmt.Vun (_, a) ->
            if fp then incr flops else incr iops;
            go a
        | Stmt.Vbin (_, a, b) ->
            if fp then incr flops else incr iops;
            go a;
            go b
      in
      go v.Stmt.vsrc)
    vstmts;
  { Cost.mem_refs = !mem; flops = !flops; iops = !iops }

(* ----------------------------------------------------------------- *)
(* Residency analysis of an all-vector loop body                     *)
(* ----------------------------------------------------------------- *)

(* What may stay in registers across a serial loop over [k] whose body
   is the vector statements [vstmts]:

   - accumulators: statement i writes a k-invariant section that its own
     right-hand side reads back (the identical section), no other
     statement writes anything aliasing it, and every other read as well
     as every embedded scalar load is either that same section or
     provably disjoint from it;
   - hoists: a k-invariant section read somewhere, disjoint from every
     written section.

   Returns [None] when some pair of references prevents reasoning —
   a write aliasing another write, or a read overlapping a write without
   being the identical section. *)
type residency = {
  accumulators : int list;  (* statement indices *)
  hoists : Stmt.section list;  (* one representative per family *)
}

let analyze_body ~noalias prog func ~k (vstmts : Stmt.vstmt array) :
    residency option =
  let n = Array.length vstmts in
  let dsts = Array.map (fun (v : Stmt.vstmt) -> v.Stmt.vdst) vstmts in
  let ok = ref true in
  (* distinct writes must be provably disjoint *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (disjoint ~noalias dsts.(i) dsts.(j)) then ok := false
    done
  done;
  (* every read is the identical section of some write or disjoint from
     all writes; scalar loads must be disjoint from all writes *)
  if !ok then
    Array.iter
      (fun (v : Stmt.vstmt) ->
        List.iter
          (fun s ->
            if
              not
                (Array.for_all
                   (fun d ->
                     same_section ~noalias s d || disjoint ~noalias s d)
                   dsts)
            then ok := false)
          (vexpr_sections v.Stmt.vsrc);
        List.iter
          (fun p ->
            if
              not
                (Array.for_all
                   (fun (d : Stmt.section) ->
                     Alias.bases ~assume_noalias:noalias p d.Stmt.base
                     = Alias.No_alias)
                   dsts)
            then ok := false)
          (vexpr_load_ptrs v.Stmt.vsrc))
      vstmts;
  if not !ok then None
  else begin
    let accumulators = ref [] in
    Array.iteri
      (fun i (v : Stmt.vstmt) ->
        let d = dsts.(i) in
        if
          sec_invariant k d
          && section_ok prog func d
          && reads_section ~noalias d v.Stmt.vsrc
          && Ty.equal (section_elt d) v.Stmt.velt
        then accumulators := i :: !accumulators)
      vstmts;
    let accumulators = List.rev !accumulators in
    (* hoists: invariant reads disjoint from every write *)
    let hoists = ref [] in
    Array.iter
      (fun (v : Stmt.vstmt) ->
        List.iter
          (fun s ->
            if
              sec_invariant k s
              && section_ok prog func s
              && Array.for_all (fun d -> disjoint ~noalias s d) dsts
              && not
                   (List.exists (fun h -> same_section ~noalias h s) !hoists)
            then hoists := s :: !hoists)
          (vexpr_sections v.Stmt.vsrc))
      vstmts;
    Some { accumulators; hoists = List.rev !hoists }
  end

(* ----------------------------------------------------------------- *)
(* The pass                                                          *)
(* ----------------------------------------------------------------- *)

type env = {
  prog : Prog.t;
  func : Func.t;
  ctx : Builder.ctx;
  noalias : bool;
  decide : Decide.t;
  stats : stats;
  mutable next_vt : int;
  mutable changed : bool;
}

let fresh_vt env =
  let t = env.next_vt in
  env.next_vt <- t + 1;
  t

let report env fmt =
  Printf.ksprintf
    (fun msg ->
      match env.decide.Decide.report with
      | Some f -> f (Printf.sprintf "vreuse %s: %s" env.func.Func.name msg)
      | None -> ())
    fmt

let index_name env id =
  match Prog.find_var env.prog (Some env.func) id with
  | Some v -> v.Var.name
  | None -> string_of_int id

(* Constant trip count of a DO loop, requiring unit step. *)
let const_trip (d : Stmt.do_loop) =
  match
    ( Expr.const_int_val d.Stmt.lo,
      Expr.const_int_val d.Stmt.hi,
      Expr.const_int_val d.Stmt.step )
  with
  | Some lo, Some hi, Some 1 -> Some (hi - lo + 1)
  | _ -> None

(* Rewrite an all-vector serial loop body for residency: accumulators
   become register-resident [Vdef]s with a load before and a store after
   the loop; invariant reads load once ahead of it.  [k_stmt] is the
   loop statement, [d] its header with [d.body] all [Vector].  Returns
   the replacement statement list, or [None] if nothing applies. *)
let localize env (k_stmt : Stmt.t) (d : Stmt.do_loop) : Stmt.t list option =
  let trip = const_trip d in
  match trip with
  | Some trip when (not d.Stmt.parallel) && trip >= 1 -> (
      let vstmts =
        List.map
          (fun (s : Stmt.t) ->
            match s.Stmt.desc with
            | Stmt.Vector v -> Some (s, v)
            | _ -> None)
          d.Stmt.body
      in
      if List.exists Option.is_none vstmts then None
      else
        let vstmts = List.filter_map (fun x -> x) vstmts in
        let varr = Array.of_list (List.map snd vstmts) in
        if Array.length varr = 0 then None
        else
          match analyze_body ~noalias:env.noalias env.prog env.func
                  ~k:d.Stmt.index varr
          with
          | None -> None
          | Some { accumulators; hoists } ->
              let want_hoists = trip >= 2 in
              if accumulators = [] && ((not want_hoists) || hoists = []) then
                None
              else begin
                let pre = ref [] and post = ref [] in
                let body = Array.of_list (List.map fst vstmts) in
                let vsub sec vt ty =
                  Array.iteri
                    (fun j (s : Stmt.t) ->
                      match s.Stmt.desc with
                      | Stmt.Vector v ->
                          body.(j) <-
                            {
                              s with
                              Stmt.desc =
                                Stmt.Vector
                                  {
                                    v with
                                    Stmt.vsrc =
                                      subst_section ~noalias:env.noalias sec
                                        vt ty v.Stmt.vsrc;
                                  };
                            }
                      | Stmt.Vdef vd ->
                          body.(j) <-
                            {
                              s with
                              Stmt.desc =
                                Stmt.Vdef
                                  {
                                    vd with
                                    Stmt.vval =
                                      subst_section ~noalias:env.noalias sec
                                        vt ty vd.Stmt.vval;
                                  };
                            }
                      | _ -> ())
                    body
                in
                List.iter
                  (fun i ->
                    let v =
                      match body.(i).Stmt.desc with
                      | Stmt.Vector v -> v
                      | _ -> assert false
                    in
                    let d_sec = v.Stmt.vdst in
                    let t = fresh_vt env in
                    let ty = v.Stmt.velt in
                    let loc = body.(i).Stmt.loc in
                    pre :=
                      Builder.stmt env.ctx ~loc
                        (Stmt.Vdef
                           {
                             Stmt.vt = t;
                             vval = Stmt.Vsec d_sec;
                             vcount = d_sec.Stmt.count;
                             vty = ty;
                           })
                      :: !pre;
                    post :=
                      Builder.stmt env.ctx ~loc
                        (Stmt.Vector
                           { Stmt.vdst = d_sec; vsrc = Stmt.Vtmp (t, ty); velt = ty })
                      :: !post;
                    (* substitute reads everywhere, then rebind i *)
                    vsub d_sec t ty;
                    let v =
                      match body.(i).Stmt.desc with
                      | Stmt.Vector v -> v
                      | _ -> assert false
                    in
                    body.(i) <-
                      {
                        (body.(i)) with
                        Stmt.desc =
                          Stmt.Vdef
                            {
                              Stmt.vt = t;
                              vval = v.Stmt.vsrc;
                              vcount = d_sec.Stmt.count;
                              vty = ty;
                            };
                      };
                    env.stats.accumulators_localized <-
                      env.stats.accumulators_localized + 1;
                    report env
                      "accumulator section kept in vt%d across do %s (%d \
                       iterations: 2 vector memory ops instead of %d)"
                      t (index_name env d.Stmt.index) trip (2 * trip))
                  accumulators;
                if want_hoists then
                  List.iter
                    (fun sec ->
                      let t = fresh_vt env in
                      let ty = section_elt sec in
                      pre :=
                        Builder.stmt env.ctx ~loc:k_stmt.Stmt.loc
                          (Stmt.Vdef
                             {
                               Stmt.vt = t;
                               vval = Stmt.Vsec sec;
                               vcount = sec.Stmt.count;
                               vty = ty;
                             })
                        :: !pre;
                      vsub sec t ty;
                      env.stats.invariant_loads_hoisted <-
                        env.stats.invariant_loads_hoisted + 1;
                      report env
                        "invariant Vload hoisted into vt%d out of do %s (1 \
                         load instead of %d)"
                        t (index_name env d.Stmt.index) trip)
                    hoists;
                env.changed <- true;
                let k' =
                  {
                    k_stmt with
                    Stmt.desc =
                      Stmt.Do_loop { d with Stmt.body = Array.to_list body };
                  }
                in
                Some (List.rev !pre @ [ k' ] @ List.rev !post)
              end)
  | _ -> None

(* Upper bounds known for scalar variables after a strip loop's prefix:
   a constant assignment, or the vectorizer's clamp

       if (len > s) len = s

   which leaves [len <= max s c] whichever way the test goes.  Any other
   assignment forgets the variable. *)
let prefix_bounds (prefix : Stmt.t list) : (int * int) list =
  let drop v bounds = List.remove_assoc v bounds in
  List.fold_left
    (fun bounds (s : Stmt.t) ->
      match s.Stmt.desc with
      | Stmt.Assign (Stmt.Lvar v, e) -> (
          match Expr.const_int_val e with
          | Some c -> (v, c) :: drop v bounds
          | None -> drop v bounds)
      | Stmt.If
          ( {
              Expr.desc =
                Expr.Binop (Expr.Gt, { Expr.desc = Expr.Var v; _ }, hi);
              _;
            },
            [ { Stmt.desc = Stmt.Assign (Stmt.Lvar v', e); _ } ],
            [] )
        when v = v' -> (
          match (Expr.const_int_val hi, Expr.const_int_val e) with
          | Some h, Some c -> (v, max h c) :: drop v bounds
          | _ -> drop v bounds)
      | Stmt.If (_, t, e) ->
          let killed = ref bounds in
          Stmt.iter_list
            (fun (s : Stmt.t) ->
              match s.Stmt.desc with
              | Stmt.Assign (Stmt.Lvar v, _) -> killed := drop v !killed
              | _ -> ())
            (t @ e);
          !killed
      | _ -> bounds)
    [] prefix

(* Strip residency: a serial loop K whose body is exactly a serial strip
   loop of vector statements.  Interchanging the two levels is legal
   when (a) within one strip the K order of statements is preserved —
   automatic — and (b) distinct strips never touch common storage: every
   written section advances with the strip index at exactly its stride
   ([Subscript.affine_of] coefficient = stride) and covers at most the
   strip step's worth of elements, so consecutive strips tile without
   overlap; reads are covered by [analyze_body]'s discipline (identical
   to a write, or disjoint from all writes).  The interchange is priced
   by the port-traffic model; [localize] then makes the residency
   real. *)
let try_strip_residency env (k_stmt : Stmt.t) (k : Stmt.do_loop) :
    Stmt.t list option =
  match (k.Stmt.body, const_trip k) with
  | [ ({ Stmt.desc = Stmt.Do_loop strip; _ } as strip_stmt) ], Some ktrip
    when (not k.Stmt.parallel) && (not strip.Stmt.parallel) && ktrip >= 1 ->
      let k_free e = not (List.mem k.Stmt.index (Expr.read_vars e)) in
      (* strip bounds and the scalar prefix must not depend on K *)
      let rec prefix_ok (s : Stmt.t) =
        match s.Stmt.desc with
        | Stmt.Assign (Stmt.Lvar _, e) -> (not (Expr.contains_load e)) && k_free e
        | Stmt.If (c, t, e) ->
            (not (Expr.contains_load c))
            && k_free c
            && List.for_all prefix_ok t
            && List.for_all prefix_ok e
        | _ -> false
      in
      let rec split_prefix acc = function
        | s :: rest when prefix_ok s -> split_prefix (s :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let prefix, tail = split_prefix [] strip.Stmt.body in
      let vstmts =
        List.map
          (fun (s : Stmt.t) ->
            match s.Stmt.desc with Stmt.Vector v -> Some v | _ -> None)
          tail
      in
      if
        tail = []
        || List.exists Option.is_none vstmts
        || not
             (List.for_all k_free
                [ strip.Stmt.lo; strip.Stmt.hi; strip.Stmt.step ])
      then None
      else begin
        let varr = Array.of_list (List.filter_map (fun x -> x) vstmts) in
        let step =
          match Expr.const_int_val strip.Stmt.step with
          | Some s when s > 0 -> s
          | _ -> 0
        in
        let bounds = prefix_bounds prefix in
        let strip_free e =
          not (List.mem strip.Stmt.index (Expr.read_vars e))
        in
        (* consecutive strips of a written section must tile: the base
           advances by stride per strip-index increment and the count
           never exceeds the step *)
        let tiles (w : Stmt.section) =
          (match
             Subscript.affine_of ~index:strip.Stmt.index ~invariant:strip_free
               w.Stmt.base
           with
          | Some a -> (
              a.Subscript.coeff <> 0
              &&
              match Expr.const_int_val w.Stmt.stride with
              | Some st -> a.Subscript.coeff = st
              | None -> false)
          | None -> false)
          &&
          match Expr.const_int_val w.Stmt.count with
          | Some c -> c <= step
          | None -> (
              match w.Stmt.count.Expr.desc with
              | Expr.Var v -> (
                  match List.assoc_opt v bounds with
                  | Some b -> b <= step
                  | None -> false)
              | _ -> false)
        in
        (* the strip loop must run at least once: after the interchange
           it guards the K loop, whose index assignment must not be
           skipped *)
        let strip_entered =
          match
            (Expr.const_int_val strip.Stmt.lo, Expr.const_int_val strip.Stmt.hi)
          with
          | Some lo, Some hi -> hi >= lo
          | _ -> false
        in
        (* K-invariant, strip-tiling writes; the body must localize once
           inner *)
        let writes_ok =
          step > 0 && strip_entered
          && Array.for_all
               (fun (v : Stmt.vstmt) ->
                 sec_invariant k.Stmt.index v.Stmt.vdst && tiles v.Stmt.vdst)
               varr
        in
        match
          if writes_ok then
            analyze_body ~noalias:env.noalias env.prog env.func
              ~k:k.Stmt.index varr
          else None
        with
        | None | Some { accumulators = []; hoists = [] } -> None
        | Some { accumulators = []; hoists = _ } when ktrip < 2 -> None
        | Some { accumulators; hoists } ->
            (* price the interchange with the port-traffic model *)
            let shape = vbody_shape (Array.to_list varr) in
            let vlen = step in
            let elems =
              match const_trip strip with
              | Some t when t > 0 -> t
              | _ -> Cost.default_trip
            in
            let reps =
              match Decide.trips env.decide k_stmt.Stmt.loc with
              | Some t when t > 0 ->
                  env.stats.pgo_priced <- env.stats.pgo_priced + 1;
                  t
              | _ -> ktrip
            in
            let resident =
              (2 * List.length accumulators) + List.length hoists
            in
            let before =
              reps
              * Cost.vector_loop_cycles shape ~trips:elems ~vlen ~procs:1
                  ~parallel:false
            in
            let after =
              Cost.reuse_vector_loop_cycles shape ~trips:elems ~vlen ~resident
                ~reps
            in
            if after >= before then begin
              report env
                "strip residency over do %s not profitable (est %d -> %d)"
                (index_name env k.Stmt.index)
                before after;
              None
            end
            else begin
              env.stats.strips_interchanged <-
                env.stats.strips_interchanged + 1;
              env.changed <- true;
              report env
                "strip loop hoisted over do %s (est %d -> %d cycles: %d \
                 resident section%s, %d repetition%s)"
                (index_name env k.Stmt.index)
                before after resident
                (if resident = 1 then "" else "s")
                reps
                (if reps = 1 then "" else "s");
              let inner =
                { k_stmt with Stmt.desc = Stmt.Do_loop { k with Stmt.body = tail } }
              in
              let inner_stmts =
                match
                  (match inner.Stmt.desc with
                  | Stmt.Do_loop ki -> localize env inner ki
                  | _ -> None)
                with
                | Some stmts -> stmts
                | None -> [ inner ]
              in
              Some
                [
                  {
                    strip_stmt with
                    Stmt.desc =
                      Stmt.Do_loop
                        { strip with Stmt.body = prefix @ inner_stmts };
                  };
                ]
            end
      end
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Straight-line forwarding                                          *)
(* ----------------------------------------------------------------- *)

(* Within a maximal run of consecutive [Vector] statements (a fused
   strip loop's body, or straight-line vector code), keep the identical
   section in one register: a store read again downstream forwards
   through a temporary, and a section read by several statements loads
   once.  A table of available (section, temporary) pairs is invalidated
   by any store not provably disjoint. *)
let forward_run env (run : Stmt.t list) : Stmt.t list =
  let arr = Array.of_list run in
  let n = Array.length arr in
  let vst i =
    match arr.(i).Stmt.desc with Stmt.Vector v -> v | _ -> assert false
  in
  let noalias = env.noalias in
  (* is [sec] read by some statement at or after [from], every store in
     between (inspected first from [from]) provably disjoint from it? *)
  let read_later ~from sec =
    let rec scan j =
      if j >= n then false
      else
        let v = vst j in
        if reads_section ~noalias sec v.Stmt.vsrc then true
        else disjoint ~noalias v.Stmt.vdst sec && scan (j + 1)
    in
    scan from
  in
  let avail = ref [] in
  let out = ref [] in
  for i = 0 to n - 1 do
    let v = vst i in
    (* serve reads from the table *)
    let vsrc =
      List.fold_left
        (fun ve (sec, t, ty) -> subst_section ~noalias sec t ty ve)
        v.Stmt.vsrc !avail
    in
    (* share a section read again later *)
    let vsrc = ref vsrc in
    List.iter
      (fun sec ->
        if
          section_ok env.prog env.func sec
          && disjoint ~noalias v.Stmt.vdst sec
          && read_later ~from:(i + 1) sec
          && not (List.exists (fun (s, _, _) -> same_section ~noalias s sec) !avail)
        then begin
          let t = fresh_vt env in
          let ty = section_elt sec in
          out :=
            Builder.stmt env.ctx ~loc:arr.(i).Stmt.loc
              (Stmt.Vdef
                 { Stmt.vt = t; vval = Stmt.Vsec sec; vcount = sec.Stmt.count; vty = ty })
            :: !out;
          vsrc := subst_section ~noalias sec t ty !vsrc;
          avail := (sec, t, ty) :: !avail;
          env.stats.loads_shared <- env.stats.loads_shared + 1;
          env.changed <- true;
          report env "shared Vload kept in vt%d across the strip body" t
        end)
      (vexpr_sections !vsrc);
    let vsrc = !vsrc in
    let dst = v.Stmt.vdst in
    (* the store invalidates everything it may touch *)
    avail := List.filter (fun (sec, _, _) -> disjoint ~noalias sec dst) !avail;
    if
      section_ok env.prog env.func dst
      && Ty.equal (section_elt dst) v.Stmt.velt
      && read_later ~from:(i + 1) dst
    then begin
      let t = fresh_vt env in
      let ty = v.Stmt.velt in
      out :=
        {
          arr.(i) with
          Stmt.desc =
            Stmt.Vdef { Stmt.vt = t; vval = vsrc; vcount = dst.Stmt.count; vty = ty };
        }
        :: !out;
      out :=
        Builder.stmt env.ctx ~loc:arr.(i).Stmt.loc
          (Stmt.Vector { Stmt.vdst = dst; vsrc = Stmt.Vtmp (t, ty); velt = ty })
        :: !out;
      avail := (dst, t, ty) :: !avail;
      env.stats.stores_forwarded <- env.stats.stores_forwarded + 1;
      env.changed <- true;
      report env "Vstore forwarded to later Vload through vt%d" t
    end
    else
      out := { (arr.(i)) with Stmt.desc = Stmt.Vector { v with Stmt.vsrc } } :: !out
  done;
  List.rev !out

(* Split a statement list into maximal vector runs and the rest. *)
let forward_lists env (stmts : Stmt.t list) : Stmt.t list =
  let rec go acc run = function
    | ({ Stmt.desc = Stmt.Vector _; _ } as s) :: rest -> go acc (s :: run) rest
    | rest ->
        let flushed =
          match run with
          | [] | [ _ ] -> List.rev run
          | _ -> forward_run env (List.rev run)
        in
        let acc = List.rev_append flushed acc in
        (match rest with
        | [] -> List.rev acc
        | s :: rest -> go (s :: acc) [] rest)
  in
  go [] [] stmts

(* ----------------------------------------------------------------- *)
(* Driver                                                            *)
(* ----------------------------------------------------------------- *)

let max_vt_used (func : Func.t) =
  let m = ref (-1) in
  let rec scan_ve = function
    | Stmt.Vtmp (t, _) -> m := max !m t
    | Stmt.Vsec _ | Stmt.Vscalar _ | Stmt.Viota _ -> ()
    | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> scan_ve a
    | Stmt.Vbin (_, a, b) ->
        scan_ve a;
        scan_ve b
  in
  Stmt.iter_list
    (fun (s : Stmt.t) ->
      match s.Stmt.desc with
      | Stmt.Vdef vd ->
          m := max !m vd.Stmt.vt;
          scan_ve vd.Stmt.vval
      | Stmt.Vector v -> scan_ve v.Stmt.vsrc
      | _ -> ())
    func.Func.body;
  !m

let run ?(stats = new_stats ()) (decide : Decide.t) (prog : Prog.t)
    (func : Func.t) : bool =
  let env =
    {
      prog;
      func;
      ctx = Builder.ctx prog func;
      noalias = decide.Decide.assume_noalias;
      decide;
      stats;
      next_vt = max_vt_used func + 1;
      changed = false;
    }
  in
  let rec walk stmts = forward_lists env (List.concat_map walk_stmt stmts)
  and walk_stmt (s : Stmt.t) : Stmt.t list =
    match s.Stmt.desc with
    | Stmt.Do_loop d -> (
        let d = { d with Stmt.body = walk d.Stmt.body } in
        let s = { s with Stmt.desc = Stmt.Do_loop d } in
        if
          Decide.override decide (Decide.Vreuse s.Stmt.loc) (( = ) (Some false))
        then [ s ]
        else
          match try_strip_residency env s d with
          | Some stmts -> stmts
          | None -> (
              match localize env s d with Some stmts -> stmts | None -> [ s ]))
    | Stmt.If (c, t, e) -> [ { s with Stmt.desc = Stmt.If (c, walk t, walk e) } ]
    | Stmt.While (li, c, b) ->
        [ { s with Stmt.desc = Stmt.While (li, c, walk b) } ]
    | _ -> [ s ]
  in
  func.Func.body <- walk func.Func.body;
  env.changed
