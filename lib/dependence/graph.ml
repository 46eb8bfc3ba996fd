(* The statement dependence graph of a DO loop (paper §6): data
   dependences through memory (tested with §5's machinery) and through
   scalars, classified as loop-carried or loop-independent.  This graph
   drives vectorization, parallelization, scalar replacement, strength
   reduction, and instruction scheduling — "the dependence graph used in
   vectorization has a dual nature". *)

open Vpc_il

type dep_kind = Flow | Anti | Output

type edge = {
  src : int;  (* top-level position in the loop body *)
  dst : int;
  kind : dep_kind;
  carried : bool;
  distance : int option;  (* iterations, when exact *)
  dist_lo : int option;
      (* when [distance = None]: proven lower bound (>= 1) on the
         carried distance — the dependence is strictly forward but its
         exact distance is symbolic *)
  through_memory : bool;
}

type t = {
  nstmts : int;
  edges : edge list;
  refs : Subscript.reference list;  (* empty when unanalyzable *)
  analyzable : bool;  (* all statements are assignments, no calls *)
}

let kind_of (k1 : Subscript.access_kind) (k2 : Subscript.access_kind) =
  match k1, k2 with
  | Subscript.Write, Subscript.Read -> Some Flow
  | Subscript.Read, Subscript.Write -> Some Anti
  | Subscript.Write, Subscript.Write -> Some Output
  | Subscript.Read, Subscript.Read -> None

(* Scalar definitions and uses per top-level position. *)
let scalar_defs_uses (body : Stmt.t list) =
  List.mapi
    (fun pos (s : Stmt.t) ->
      let def =
        match s.Stmt.desc with
        | Stmt.Assign (Stmt.Lvar v, _) -> Some v
        | Stmt.Call (Some (Stmt.Lvar v), _, _) -> Some v
        | _ -> None
      in
      (pos, def, Stmt.shallow_uses s))
    body

let build ?(assume_noalias = false) ~trip (body : Stmt.t list) ~index
    ~invariant : t =
  let nstmts = List.length body in
  let edges = ref [] in
  let add_edge e = edges := e :: !edges in
  let refs, analyzable =
    match Subscript.references ~index ~invariant body with
    | Some refs -> (refs, true)
    | None -> ([], false)
  in
  (* --- memory dependences --- *)
  let arr = Array.of_list refs in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let r1 = arr.(i) and r2 = arr.(j) in
        (* consider each unordered pair once, with r1 the earlier
           statement (or same statement, i < j) *)
        let ordered =
          r1.Subscript.ref_pos < r2.Subscript.ref_pos
          || (r1.Subscript.ref_pos = r2.Subscript.ref_pos && i < j)
        in
        if ordered then
          match kind_of r1.Subscript.kind r2.Subscript.kind with
          | None -> ()
          | Some kind -> (
              match
                Test.references ~assume_noalias ~trip r1 r2 (Hashtbl.create 0)
              with
              | Test.Independent -> ()
              | Test.Dependent { distance; dist_lo } -> (
                  (* distance d: r2 touches the common location d
                     iterations after r1 (d < 0: before). *)
                  let ziv =
                    (* both addresses loop-invariant: the same location is
                       touched on EVERY iteration, so the dependence is
                       carried (every distance), not just same-iteration *)
                    match r1.Subscript.affine, r2.Subscript.affine with
                    | Some a1, Some a2 ->
                        a1.Subscript.coeff = 0 && a2.Subscript.coeff = 0
                    | _ -> false
                  in
                  match distance with
                  | Some 0 when ziv ->
                      add_edge
                        {
                          src = r1.Subscript.ref_pos;
                          dst = r2.Subscript.ref_pos;
                          kind;
                          carried = true;
                          distance = None;
                          dist_lo = None;
                          through_memory = true;
                        };
                      if r1.Subscript.ref_pos <> r2.Subscript.ref_pos then
                        add_edge
                          {
                            src = r2.Subscript.ref_pos;
                            dst = r1.Subscript.ref_pos;
                            kind =
                              (match kind with
                              | Flow -> Anti
                              | Anti -> Flow
                              | Output -> Output);
                            carried = true;
                            distance = None;
                            dist_lo = None;
                            through_memory = true;
                          }
                  | Some 0 ->
                      add_edge
                        {
                          src = r1.Subscript.ref_pos;
                          dst = r2.Subscript.ref_pos;
                          kind;
                          carried = false;
                          distance = Some 0;
                          dist_lo = None;
                          through_memory = true;
                        }
                  | Some d when d > 0 ->
                      add_edge
                        {
                          src = r1.Subscript.ref_pos;
                          dst = r2.Subscript.ref_pos;
                          kind;
                          carried = true;
                          distance = Some d;
                          dist_lo = None;
                          through_memory = true;
                        }
                  | Some d ->
                      (* r2's access precedes r1's by |d| iterations: the
                         dependence runs r2 → r1 with the dual kind *)
                      let dual =
                        match kind with
                        | Flow -> Anti
                        | Anti -> Flow
                        | Output -> Output
                      in
                      add_edge
                        {
                          src = r2.Subscript.ref_pos;
                          dst = r1.Subscript.ref_pos;
                          kind = dual;
                          carried = true;
                          distance = Some (-d);
                          dist_lo = None;
                          through_memory = true;
                        }
                  | None when (match dist_lo with Some l -> l >= 1 | None -> false)
                    ->
                      (* symbolic distance with proven lower bound >= 1:
                         strictly forward, so no dual reverse edge *)
                      add_edge
                        {
                          src = r1.Subscript.ref_pos;
                          dst = r2.Subscript.ref_pos;
                          kind;
                          carried = true;
                          distance = None;
                          dist_lo;
                          through_memory = true;
                        }
                  | None ->
                      (* unknown direction: edges both ways, carried *)
                      add_edge
                        {
                          src = r1.Subscript.ref_pos;
                          dst = r2.Subscript.ref_pos;
                          kind;
                          carried = true;
                          distance = None;
                          dist_lo = None;
                          through_memory = true;
                        };
                      if r1.Subscript.ref_pos <> r2.Subscript.ref_pos then
                        add_edge
                          {
                            src = r2.Subscript.ref_pos;
                            dst = r1.Subscript.ref_pos;
                            kind =
                              (match kind with
                              | Flow -> Anti
                              | Anti -> Flow
                              | Output -> Output);
                            carried = true;
                            distance = None;
                            dist_lo = None;
                            through_memory = true;
                          }))
      end
    done
  done;
  (* A store whose address does not advance with the index (ZIV) — or is
     not affine at all — hits the same (or an unknown) location on every
     iteration: the write order matters, a carried self output
     dependence.  The pair loop above only sees distinct references, so a
     lone such store would otherwise look dependence-free. *)
  Array.iter
    (fun (r : Subscript.reference) ->
      let invariant_or_opaque =
        match r.Subscript.affine with
        | Some a -> a.Subscript.coeff = 0
        | None -> true
      in
      if r.Subscript.kind = Subscript.Write && invariant_or_opaque then
        add_edge
          {
            src = r.Subscript.ref_pos;
            dst = r.Subscript.ref_pos;
            kind = Output;
            carried = true;
            distance = None;
            dist_lo = None;
            through_memory = true;
          })
    arr;
  (* --- scalar dependences --- *)
  let du = scalar_defs_uses body in
  let defs_of_var = Hashtbl.create 8 in
  List.iter
    (fun (pos, def, _) ->
      match def with
      | Some v ->
          Hashtbl.replace defs_of_var v
            (Option.value (Hashtbl.find_opt defs_of_var v) ~default:[] @ [ pos ])
      | None -> ())
    du;
  List.iter
    (fun (use_pos, _, uses) ->
      List.iter
        (fun v ->
          if v <> index then
            match Hashtbl.find_opt defs_of_var v with
            | None -> ()  (* defined outside: invariant read *)
            | Some def_positions ->
                List.iter
                  (fun def_pos ->
                    if def_pos < use_pos then
                      (* same-iteration flow *)
                      add_edge
                        {
                          src = def_pos;
                          dst = use_pos;
                          kind = Flow;
                          carried = false;
                          distance = Some 0;
                          dist_lo = None;
                          through_memory = false;
                        }
                    else begin
                      (* the use reads the previous iteration's def *)
                      add_edge
                        {
                          src = def_pos;
                          dst = use_pos;
                          kind = Flow;
                          carried = true;
                          distance = Some 1;
                          dist_lo = None;
                          through_memory = false;
                        };
                      (* and the def kills the value the use read: anti *)
                      add_edge
                        {
                          src = use_pos;
                          dst = def_pos;
                          kind = Anti;
                          carried = false;
                          distance = Some 0;
                          dist_lo = None;
                          through_memory = false;
                        }
                    end)
                  def_positions)
        uses)
    du;
  (* output dependences between multiple defs of the same scalar, and the
     carried self output-dependence of any scalar def (the last iteration
     must win) *)
  Hashtbl.iter
    (fun _ positions ->
      match positions with
      | [] -> ()
      | first :: _ ->
          let rec pairs = function
            | a :: (b :: _ as rest) ->
                add_edge
                  {
                    src = a;
                    dst = b;
                    kind = Output;
                    carried = false;
                    distance = Some 0;
                    dist_lo = None;
                    through_memory = false;
                  };
                pairs rest
            | [ _ ] | [] -> ()
          in
          pairs positions;
          ignore first)
    defs_of_var;
  { nstmts; edges = !edges; refs; analyzable }

(* Strongly connected components of the dependence graph (Tarjan),
   returned in topological order of the condensation — the Allen-Kennedy
   codegen ordering. *)
let rec sccs (t : t) : int list list =
  let succs = Array.make t.nstmts [] in
  List.iter
    (fun e ->
      if e.src <> e.dst && not (List.mem e.dst succs.(e.src)) then
        succs.(e.src) <- e.dst :: succs.(e.src))
    t.edges;
  let index = Array.make t.nstmts (-1) in
  let lowlink = Array.make t.nstmts 0 in
  let on_stack = Array.make t.nstmts false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to t.nstmts - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (* Tarjan emits components in reverse topological order. *)
  let comps = !components in
  (* Order components topologically and, among independent ones, by
     original statement position so codegen is stable. *)
  List.sort
    (fun c1 c2 -> compare (List.fold_left min max_int c1) (List.fold_left min max_int c2))
    comps
  |> topo_sort t

and topo_sort t comps =
  (* comps listed by min position; produce a topological order of the
     condensation respecting dependence edges. *)
  let comp_of = Hashtbl.create 16 in
  List.iteri
    (fun ci members -> List.iter (fun m -> Hashtbl.replace comp_of m ci) members)
    comps;
  let n = List.length comps in
  let comps_arr = Array.of_list comps in
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt comp_of e.src, Hashtbl.find_opt comp_of e.dst with
      | Some a, Some b when a <> b ->
          if not (List.mem b succs.(a)) then begin
            succs.(a) <- b :: succs.(a);
            indeg.(b) <- indeg.(b) + 1
          end
      | _ -> ())
    t.edges;
  (* Kahn with a position-ordered ready list *)
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then ready := i :: !ready
  done;
  let result = ref [] in
  let rec go () =
    match !ready with
    | [] -> ()
    | i :: rest ->
        ready := rest;
        result := comps_arr.(i) :: !result;
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then
              ready := List.sort compare (j :: !ready))
          succs.(i);
        go ()
  in
  go ();
  List.rev !result

(* Does component [members] carry a dependence around itself? *)
let has_carried_cycle t members =
  List.exists
    (fun e ->
      e.carried && List.mem e.src members && List.mem e.dst members)
    t.edges

let carried_edges t = List.filter (fun e -> e.carried) t.edges
