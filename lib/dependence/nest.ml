(* Loop-nest dependence analysis with direction vectors (paper §5–§7).

   Where [Graph] classifies edges of a single loop as carried or
   independent, this module analyzes a perfect (or near-perfect) nest of
   normalized DO loops, depth 2–3, and labels every dependence with a
   direction vector — one of <, =, > per nest level, outermost first.
   Direction vectors are what loop restructuring needs: interchange is
   legal exactly when every permuted vector stays lexicographically
   non-negative, and the level that carries a dependence is the first
   non-= entry.

   The nest is deliberately restricted to shapes the rest of the pipeline
   produces and the restructurers can handle exactly:
     - every level a normalized DO loop (lo 0, step 1), possibly preceded
       by nest-invariant scalar assignments (the while→DO limit temps);
     - rectangular bounds (each hi invariant over the whole nest);
     - an innermost body of memory stores only, every address affine in
       the nest indices with exactly-analyzed base aliasing.
   Anything else yields [None] and the nest is left alone. *)

open Vpc_il

let max_depth = 3

type level = {
  index : int;            (* the level's loop variable *)
  loop_stmt : Stmt.t;     (* original Do_loop statement (ids, locs) *)
  header : Stmt.do_loop;
  prefix : Stmt.t list;   (* nest-invariant scalar defs textually before
                             this loop inside the enclosing level; [] for
                             the outermost level *)
  trip : Test.bound;
}

type edge = {
  src : int;  (* position of the source statement in the innermost body *)
  dst : int;
  kind : Graph.dep_kind;
  dirs : Test.direction list;  (* per level, outermost first; normalized:
                                  the leading non-= entry is < *)
}

type t = {
  levels : level list;  (* outermost first; length 2..max_depth *)
  body : Stmt.t list;   (* innermost body: memory stores only *)
  edges : edge list;
  refs : (Subscript.reference * Subscript.multi_affine) list;
}

let depth t = List.length t.levels

(* ---- structural extraction ---- *)

let normalized (d : Stmt.do_loop) =
  Expr.const_int_val d.lo = Some 0 && Expr.const_int_val d.step = Some 1

(* A level body is a prefix of scalar assignments followed by exactly one
   inner DO loop — or the innermost body. *)
let split_body (body : Stmt.t list) =
  let rec go acc = function
    | [ ({ Stmt.desc = Stmt.Do_loop _; _ } as s) ] -> Some (List.rev acc, s)
    | ({ Stmt.desc = Stmt.Assign (Stmt.Lvar _, _); _ } as a) :: rest ->
        go (a :: acc) rest
    | _ -> None
  in
  go [] body

let extract ?(min_depth = 2) (s : Stmt.t) : (level list * Stmt.t list) option =
  let rec go depth prefix (s : Stmt.t) =
    match s.Stmt.desc with
    | Stmt.Do_loop d when normalized d && depth < max_depth -> (
        let lvl =
          {
            index = d.index;
            loop_stmt = s;
            header = d;
            prefix;
            trip = Option.map (fun h -> h + 1) (Expr.const_int_val d.hi);
          }
        in
        match split_body d.body with
        | Some (pfx, inner) -> (
            match go (depth + 1) pfx inner with
            | Some (levels, body) -> Some (lvl :: levels, body)
            | None -> Some ([ lvl ], d.body))
        | None -> Some ([ lvl ], d.body))
    | _ -> None
  in
  match go 0 [] s with
  | Some (levels, body) when List.length levels >= min_depth ->
      Some (levels, body)
  | _ -> None

(* ---- dependence analysis ---- *)

let dual (k : Graph.dep_kind) : Graph.dep_kind =
  match k with Graph.Flow -> Graph.Anti | Graph.Anti -> Graph.Flow
  | Graph.Output -> Graph.Output

let reverse_dirs dirs =
  List.map
    (function Test.Lt -> Test.Gt | Test.Gt -> Test.Lt | Test.Eq -> Test.Eq)
    dirs

(* Lexicographic sign of a vector: -1 when the leading non-= is >. *)
let lex_sign dirs =
  let rec go = function
    | [] -> 0
    | Test.Eq :: rest -> go rest
    | Test.Lt :: _ -> 1
    | Test.Gt :: _ -> -1
  in
  go dirs

let analyze ?(assume_noalias = false) ?(min_depth = 2) ~prog
    ~(func : Func.t) (s : Stmt.t) : t option =
  match extract ~min_depth s with
  | None -> None
  | Some (levels, body) ->
      let idxs = List.map (fun l -> l.index) levels in
      let defined_in, mem_written =
        Vpc_analysis.Reaching.vars_defined_in [ s ]
      in
      let unsafe_vars = Func.addressed_vars func in
      (* scalar def counts across the whole nest: a prefix temp may be
         treated as invariant only if its one def is that prefix assign *)
      let def_count = Hashtbl.create 8 in
      Stmt.iter
        (fun st ->
          match Stmt.defined_var st with
          | Some v ->
              Hashtbl.replace def_count v
                (1 + Option.value (Hashtbl.find_opt def_count v) ~default:0)
          | None -> ())
        s;
      let hoisted = Hashtbl.create 4 in
      let invariant_var v =
        (not (List.mem v idxs))
        && ((not (Hashtbl.mem defined_in v)) || Hashtbl.mem hoisted v)
        && ((not mem_written) || not (Hashtbl.mem unsafe_vars v))
        &&
        match Prog.find_var prog (Some func) v with
        | Some vm -> not vm.Var.volatile
        | None -> false
      in
      let invariant (e : Expr.t) =
        ((not (Expr.contains_load e)) || not mem_written)
        && List.for_all invariant_var (Expr.read_vars e)
      in
      (* the limit temps of inner levels: single-assignment, invariant
         rhs — safe to hoist ahead of the whole nest *)
      let prefix_ok =
        List.for_all
          (fun (lvl : level) ->
            List.for_all
              (fun (p : Stmt.t) ->
                match p.Stmt.desc with
                | Stmt.Assign (Stmt.Lvar v, rhs)
                  when invariant rhs
                       && Hashtbl.find_opt def_count v = Some 1
                       && not (Hashtbl.mem unsafe_vars v) ->
                    Hashtbl.replace hoisted v ();
                    true
                | _ -> false)
              lvl.prefix)
          levels
      in
      let rectangular =
        List.for_all (fun l -> invariant l.header.Stmt.hi) levels
      in
      let stores_only =
        body <> []
        && List.for_all
             (fun (st : Stmt.t) ->
               match st.Stmt.desc with
               | Stmt.Assign (Stmt.Lmem _, _) -> true
               | _ -> false)
             body
      in
      (* every scalar an rhs reads must be an index or nest-invariant:
         stores cannot then change any value a later iteration reads
         except through the tracked memory references *)
      let clean_reads =
        List.for_all
          (fun st ->
            List.for_all
              (fun v -> List.mem v idxs || invariant_var v)
              (Stmt.shallow_uses st))
          body
      in
      if not (prefix_ok && rectangular && stores_only && clean_reads) then
        None
      else
        let inner_index = List.nth idxs (List.length idxs - 1) in
        match Subscript.references ~index:inner_index ~invariant body with
        | None -> None
        | Some refs -> (
            let multis =
              List.map
                (fun (r : Subscript.reference) ->
                  ( r,
                    Subscript.affine_multi ~indices:idxs ~invariant
                      r.Subscript.addr ))
                refs
            in
            if List.exists (fun (_, m) -> m = None) multis then None
            else
              let pairs =
                List.map (fun (r, m) -> (r, Option.get m)) multis
              in
              let trips =
                Array.of_list (List.map (fun l -> l.trip) levels)
              in
              let arr = Array.of_list pairs in
              let n = Array.length arr in
              let edges = ref [] in
              let exception Unanalyzable in
              try
                for i = 0 to n - 1 do
                  for j = i to n - 1 do
                    let r1, m1 = arr.(i) and r2, m2 = arr.(j) in
                    let kind =
                      if i = j then
                        if r1.Subscript.kind = Subscript.Write then
                          Some Graph.Output
                        else None
                      else Graph.kind_of r1.Subscript.kind r2.Subscript.kind
                    in
                    match kind with
                    | None -> ()
                    | Some kind -> (
                        match
                          Alias.bases ~assume_noalias m1.Subscript.mbase
                            m2.Subscript.mbase
                        with
                        | Alias.No_alias -> ()
                        | Alias.May_alias -> raise Unanalyzable
                        | Alias.Must_alias delta ->
                            let vectors =
                              Test.direction_vectors
                                ~c1:m1.Subscript.mcoeffs
                                ~c2:m2.Subscript.mcoeffs ~delta ~trips
                            in
                            List.iter
                              (fun dirs ->
                                match lex_sign dirs with
                                | 0 ->
                                    (* same iteration: a dependence only
                                       between distinct references, in
                                       textual order *)
                                    if i <> j then
                                      edges :=
                                        {
                                          src = r1.Subscript.ref_pos;
                                          dst = r2.Subscript.ref_pos;
                                          kind;
                                          dirs;
                                        }
                                        :: !edges
                                | 1 ->
                                    edges :=
                                      {
                                        src = r1.Subscript.ref_pos;
                                        dst = r2.Subscript.ref_pos;
                                        kind;
                                        dirs;
                                      }
                                      :: !edges
                                | _ ->
                                    (* source iteration after sink: the
                                       dependence really runs r2 → r1
                                       with the dual kind and reversed
                                       vector.  For a self pair the
                                       mirrored < vector already covers
                                       it. *)
                                    if i <> j then
                                      edges :=
                                        {
                                          src = r2.Subscript.ref_pos;
                                          dst = r1.Subscript.ref_pos;
                                          kind = dual kind;
                                          dirs = reverse_dirs dirs;
                                        }
                                        :: !edges)
                              vectors)
                  done
                done;
                Some { levels; body; edges = List.rev !edges; refs = pairs }
              with Unanalyzable -> None)

(* ---- direction-vector utilities for restructuring ---- *)

(* Apply permutation [perm] to a per-level list: entry k of the result is
   the original entry perm.(k). *)
let permute (perm : int array) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  Array.to_list (Array.map (fun k -> a.(k)) perm)

(* Interchange legality: every permuted direction vector must stay
   lexicographically non-negative (its leading non-= entry <), else the
   permutation would run some dependence sink before its source. *)
let legal_permutation (perm : int array) (t : t) : bool =
  List.for_all (fun e -> lex_sign (permute perm e.dirs) >= 0) t.edges

(* The nest level (position under [perm]) that carries edge [e]:
   position of the leading non-= entry, or [None] for a loop-independent
   dependence. *)
let carrier_level (perm : int array) (e : edge) : int option =
  let rec go k = function
    | [] -> None
    | Test.Eq :: rest -> go (k + 1) rest
    | _ -> Some k
  in
  go 0 (permute perm e.dirs)

(* Would the innermost loop under [perm] carry any dependence?  If not,
   the inner loop's iterations are independent — vectorizable. *)
let inner_carries (perm : int array) (t : t) : bool =
  let inner = Array.length perm - 1 in
  List.exists (fun e -> carrier_level perm e = Some inner) t.edges
