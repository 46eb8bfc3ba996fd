(* Dead-code elimination: assignments to scalar variables that are not
   live afterwards are deleted.  The paper leans on this hard — the
   §5.3 temp chains and the §9 inlined daxpy both shrink to their useful
   cores only after induction-variable substitution makes the original
   updates dead. *)

open Vpc_il

type stats = { mutable removed : int }

let new_stats () = { removed = 0 }

let pass (func : Func.t) stats =
  let live = Liveness.build func in
  let changed = ref false in
  let rec walk stmts = List.concat_map walk_stmt stmts
  and walk_stmt (s : Stmt.t) : Stmt.t list =
    match s.Stmt.desc with
    | Stmt.Assign (Stmt.Lvar v, _)
      when not (Liveness.live_out_of live ~stmt_id:s.Stmt.id ~var:v) ->
        changed := true;
        stats.removed <- stats.removed + 1;
        []
    | Stmt.Nop ->
        changed := true;
        []
    | Stmt.If (c, t, e) -> [ { s with desc = Stmt.If (c, walk t, walk e) } ]
    | Stmt.While (li, c, body) ->
        [ { s with desc = Stmt.While (li, c, walk body) } ]
    | Stmt.Do_loop d ->
        [ { s with desc = Stmt.Do_loop { d with body = walk d.body } } ]
    | _ -> [ s ]
  in
  func.Func.body <- walk func.Func.body;
  !changed

(* Remove labels that no goto targets (they accumulate from lowering and
   inlining and get in the way of while→DO conversion). *)
let remove_unused_labels (func : Func.t) =
  let targets = Hashtbl.create 8 in
  Stmt.iter_list
    (fun s ->
      match s.Stmt.desc with
      | Stmt.Goto l -> Hashtbl.replace targets l ()
      | _ -> ())
    func.Func.body;
  let changed = ref false in
  func.Func.body <-
    Stmt.map_list
      (fun s ->
        match s.Stmt.desc with
        | Stmt.Label l when not (Hashtbl.mem targets l) ->
            changed := true;
            []
        | _ -> [ s ])
      func.Func.body;
  !changed

let max_rounds = 25

let run ?(stats = new_stats ()) (func : Func.t) =
  let rec go round =
    if round = max_rounds then `Capped
    else
      let a = pass func stats in
      let b = remove_unused_labels func in
      if a || b then go (round + 1) else `Fixpoint
  in
  go 0
