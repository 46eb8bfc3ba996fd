open Vpc_il

type kind =
  | Dup_stmt_id
  | Unbound_var
  | Impure_bound
  | Dangling_goto
  | Vector_type
  | Vector_overlap
  | False_parallel
  | Wrong_const

let kinds =
  [
    ("dup-stmt-id", Dup_stmt_id);
    ("unbound-var", Unbound_var);
    ("impure-bound", Impure_bound);
    ("dangling-goto", Dangling_goto);
    ("vector-type", Vector_type);
    ("vector-overlap", Vector_overlap);
    ("false-parallel", False_parallel);
    ("wrong-const", Wrong_const);
  ]

let of_string s = List.assoc_opt s kinds

(* Rewrite the first statement [pick] accepts, in any function. *)
let rewrite_first (prog : Prog.t) (pick : Stmt.t -> Stmt.t option) : bool =
  let done_ = ref false in
  List.iter
    (fun (f : Func.t) ->
      if not !done_ then
        f.Func.body <-
          Stmt.map_list
            (fun s ->
              if !done_ then [ s ]
              else
                match pick s with
                | Some s' ->
                    done_ := true;
                    [ s' ]
                | None -> [ s ])
            f.Func.body)
    prog.Prog.funcs;
  !done_

let inject kind (prog : Prog.t) : bool =
  match kind with
  | Dup_stmt_id ->
      (* give the second statement of some function the id of the first *)
      List.exists
        (fun (f : Func.t) ->
          match Func.all_stmts f with
          | first :: _ :: _ ->
              let hit = ref false in
              f.Func.body <-
                Stmt.map_list
                  (fun s ->
                    if (not !hit) && s.Stmt.id <> first.Stmt.id then begin
                      hit := true;
                      [ { s with Stmt.id = first.Stmt.id } ]
                    end
                    else [ s ])
                  f.Func.body;
              !hit
          | _ -> false)
        prog.Prog.funcs
  | Unbound_var ->
      rewrite_first prog (fun s ->
          match s.Stmt.desc with
          | Stmt.Assign (Stmt.Lvar _, rhs) ->
              Some { s with Stmt.desc = Stmt.Assign (Stmt.Lvar 987654321, rhs) }
          | _ -> None)
  | Impure_bound ->
      rewrite_first prog (fun s ->
          match s.Stmt.desc with
          | Stmt.Do_loop d ->
              Some
                {
                  s with
                  Stmt.desc =
                    Stmt.Do_loop
                      { d with Stmt.hi = Expr.var_id d.Stmt.index Ty.Int };
                }
          | _ -> None)
  | Dangling_goto -> (
      match prog.Prog.funcs with
      | f :: _ ->
          f.Func.body <-
            f.Func.body @ [ Func.fresh_stmt f (Stmt.Goto "__nowhere") ];
          true
      | [] -> false)
  | Vector_type ->
      rewrite_first prog (fun s ->
          match s.Stmt.desc with
          | Stmt.Vector v ->
              let velt =
                match v.Stmt.velt with Ty.Float -> Ty.Int | _ -> Ty.Float
              in
              Some { s with Stmt.desc = Stmt.Vector { v with Stmt.velt } }
          | _ -> None)
  | Vector_overlap ->
      (* retarget the destination one element above a source section, so
         the source reads elements the sequential loop had already
         written (distance +1 flow) *)
      let rec first_vsec = function
        | Stmt.Vsec sec -> Some sec
        | Stmt.Vscalar _ | Stmt.Viota _ | Stmt.Vtmp _ -> None
        | Stmt.Vcast (_, v) | Stmt.Vun (_, v) -> first_vsec v
        | Stmt.Vbin (_, v1, v2) -> (
            match first_vsec v1 with Some s -> Some s | None -> first_vsec v2)
      in
      rewrite_first prog (fun s ->
          match s.Stmt.desc with
          | Stmt.Vector v -> (
              match first_vsec v.Stmt.vsrc with
              | None -> None
              | Some src ->
                  let dst = v.Stmt.vdst in
                  let base =
                    Expr.binop Expr.Add src.Stmt.base dst.Stmt.stride
                      src.Stmt.base.Expr.ty
                  in
                  Some
                    {
                      s with
                      Stmt.desc =
                        Stmt.Vector { v with Stmt.vdst = { dst with Stmt.base } };
                    })
          | _ -> None)
  | False_parallel ->
      rewrite_first prog (fun s ->
          match s.Stmt.desc with
          | Stmt.Do_loop d when not d.Stmt.parallel ->
              Some
                { s with Stmt.desc = Stmt.Do_loop { d with Stmt.parallel = true } }
          | _ -> None)
  | Wrong_const ->
      rewrite_first prog (fun s ->
          match s.Stmt.desc with
          | Stmt.Assign
              ((Stmt.Lvar _ as lv), { Expr.desc = Expr.Const_int k; Expr.ty })
            ->
              Some
                {
                  s with
                  Stmt.desc =
                    Stmt.Assign (lv, Expr.mk (Expr.Const_int (k + 1)) ty);
                }
          | _ -> None)
