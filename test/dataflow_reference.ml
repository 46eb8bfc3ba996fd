(* Reference reaching-definitions and liveness solvers in the textbook
   list/Hashtbl form: each visit recomputes a node's OUT (IN) into a
   fresh byte-wise bitset and compares it with the last one.  They are
   the oracle the differential test in [Test_analysis] checks the
   library's dense-array solvers against.  Liveness here tolerates an
   unreachable exit node. *)

open Vpc_il
module Cfg = Vpc_analysis.Cfg
module R = Vpc_analysis.Reaching

(* byte-wise, independent of [Vpc_support.Bitset] *)
module Bitset = struct
  type t = { bits : Bytes.t; size : int }

  let create size = { bits = Bytes.make ((size + 7) / 8) '\000'; size }
  let copy t = { bits = Bytes.copy t.bits; size = t.size }

  let mem t i =
    assert (i >= 0 && i < t.size);
    Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let add t i =
    assert (i >= 0 && i < t.size);
    let byte = i lsr 3 in
    Bytes.set t.bits byte
      (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (i land 7))))

  let remove t i =
    assert (i >= 0 && i < t.size);
    let byte = i lsr 3 in
    Bytes.set t.bits byte
      (Char.chr
         (Char.code (Bytes.get t.bits byte) land lnot (1 lsl (i land 7)) land 0xFF))

  let equal a b = Bytes.equal a.bits b.bits

  let union_into a b =
    let changed = ref false in
    for i = 0 to Bytes.length a.bits - 1 do
      let old = Char.code (Bytes.get a.bits i) in
      let nw = old lor Char.code (Bytes.get b.bits i) in
      if nw <> old then begin
        changed := true;
        Bytes.set a.bits i (Char.chr nw)
      end
    done;
    !changed

  let transfer ~gen ~kill a =
    for i = 0 to Bytes.length a.bits - 1 do
      let v =
        Char.code (Bytes.get a.bits i)
        land lnot (Char.code (Bytes.get kill.bits i))
        land 0xFF
        lor Char.code (Bytes.get gen.bits i)
      in
      Bytes.set a.bits i (Char.chr v)
    done
end

(* ---------------------------------------------------------------- *)
(* Reaching definitions                                              *)
(* ---------------------------------------------------------------- *)

type reaching = {
  func : Func.t;
  prog : Prog.t option;
  defs : R.def array;
  defs_of_var : (int, int list) Hashtbl.t;
  ins : (int, Bitset.t) Hashtbl.t;
}

let find_var_meta ?prog func id =
  match Func.find_var func id with
  | Some v -> Some v
  | None -> Option.bind prog (fun p -> Prog.find_var p (Some func) id)

let reaching_build ?(prog : Prog.t option) (func : Func.t) : reaching =
  let cfg = Cfg.build func in
  let tracked = Hashtbl.create 32 in
  let unsafe = Hashtbl.create 16 in
  let mark_unsafe id = Hashtbl.replace unsafe id () in
  let consider id =
    Hashtbl.replace tracked id ();
    match find_var_meta ?prog func id with
    | Some v -> if v.volatile || Var.is_global v then mark_unsafe id
    | None -> mark_unsafe id
  in
  Stmt.iter_list
    (fun s ->
      List.iter
        (fun e ->
          List.iter consider (Expr.read_vars e);
          List.iter
            (fun id ->
              consider id;
              mark_unsafe id)
            (Expr.vars_addressed [] e))
        (Stmt.shallow_exprs s);
      match R.strong_def_of s with Some (v, _) -> consider v | None -> ())
    func.Func.body;
  List.iter consider func.Func.params;
  (match prog with
  | Some p ->
      Hashtbl.iter
        (fun id () -> if Hashtbl.mem p.Prog.globals id then mark_unsafe id)
        tracked
  | None -> ());
  let defs = ref [] in
  let count = ref 0 in
  let defs_of_var : (int, int list) Hashtbl.t = Hashtbl.create 32 in
  let add_def d_stmt d_var d_weak d_value =
    let d = { R.d_index = !count; d_stmt; d_var; d_weak; d_value } in
    incr count;
    defs := d :: !defs;
    Hashtbl.replace defs_of_var d_var
      (d.R.d_index
      :: Option.value (Hashtbl.find_opt defs_of_var d_var) ~default:[]);
    d.R.d_index
  in
  let entry_defs = ref [] in
  Hashtbl.iter
    (fun id () ->
      entry_defs := add_def R.entry_def_stmt id false None :: !entry_defs)
    tracked;
  let strong_index : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let weak_of_stmt : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  Stmt.iter_list
    (fun s ->
      (match R.strong_def_of s with
      | Some (v, value) ->
          Hashtbl.replace strong_index s.Stmt.id (add_def s.Stmt.id v false value)
      | None -> ());
      if R.writes_memory s then begin
        let ws =
          Hashtbl.fold
            (fun v () acc -> add_def s.Stmt.id v true None :: acc)
            unsafe []
        in
        Hashtbl.replace weak_of_stmt s.Stmt.id ws
      end)
    func.Func.body;
  let defs = Array.of_list (List.rev !defs) in
  let ndefs = Array.length defs in
  let gen = Hashtbl.create 64 and kill = Hashtbl.create 64 in
  let empty () = Bitset.create ndefs in
  Cfg.iter_rpo
    (fun id node ->
      let g = empty () and k = empty () in
      (match node.Cfg.stmt with
      | None ->
          if id = Cfg.entry_id then List.iter (Bitset.add g) !entry_defs
      | Some s ->
          (match R.strong_def_of s with
          | Some (v, _) ->
              let own = Hashtbl.find strong_index s.Stmt.id in
              Bitset.add g own;
              List.iter
                (fun di -> if di <> own then Bitset.add k di)
                (Option.value (Hashtbl.find_opt defs_of_var v) ~default:[])
          | None -> ());
          match Hashtbl.find_opt weak_of_stmt s.Stmt.id with
          | Some ws -> List.iter (Bitset.add g) ws
          | None -> ());
      Hashtbl.replace gen id g;
      Hashtbl.replace kill id k)
    cfg;
  let ins = Hashtbl.create 64 in
  let outs = Hashtbl.create 64 in
  Cfg.iter_rpo
    (fun id _ ->
      Hashtbl.replace ins id (empty ());
      Hashtbl.replace outs id (empty ()))
    cfg;
  let changed = ref true in
  while !changed do
    changed := false;
    Cfg.iter_rpo
      (fun id node ->
        let in_ = Hashtbl.find ins id in
        List.iter
          (fun p ->
            match Hashtbl.find_opt outs p with
            | Some out_p -> ignore (Bitset.union_into in_ out_p)
            | None -> ())
          node.Cfg.preds;
        let out = Bitset.copy in_ in
        Bitset.transfer ~gen:(Hashtbl.find gen id)
          ~kill:(Hashtbl.find kill id) out;
        if not (Bitset.equal out (Hashtbl.find outs id)) then begin
          changed := true;
          Hashtbl.replace outs id out
        end)
      cfg
  done;
  { func; prog; defs; defs_of_var; ins }

let reaching t ~stmt_id ~var : R.reach =
  match Hashtbl.find_opt t.ins stmt_id with
  | None -> R.Unknown
  | Some in_ ->
      let volatile =
        match find_var_meta ?prog:t.prog t.func var with
        | Some v -> v.volatile
        | None -> true
      in
      if volatile then R.Unknown
      else begin
        let result = ref [] in
        let weak = ref false in
        List.iter
          (fun di ->
            if Bitset.mem in_ di then begin
              let d = t.defs.(di) in
              if d.R.d_weak then weak := true else result := d :: !result
            end)
          (Option.value (Hashtbl.find_opt t.defs_of_var var) ~default:[]);
        if !weak then R.Unknown
        else
          R.Defs (List.sort (fun a b -> compare a.R.d_index b.R.d_index) !result)
      end

let unique_def t ~stmt_id ~var =
  match reaching t ~stmt_id ~var with
  | R.Defs [ d ] when d.R.d_stmt <> R.entry_def_stmt -> Some d
  | R.Defs _ | R.Unknown -> None

(* ---------------------------------------------------------------- *)
(* Liveness                                                          *)
(* ---------------------------------------------------------------- *)

type liveness = {
  var_index : (int, int) Hashtbl.t;
  live_out : (int, Bitset.t) Hashtbl.t;
  unsafe : (int, unit) Hashtbl.t;
}

let liveness_build (func : Func.t) : liveness =
  let def_of = Vpc_analysis.Liveness.def_of in
  let cfg = Cfg.build func in
  let var_index = Hashtbl.create 32 in
  let n = ref 0 in
  let consider id =
    if not (Hashtbl.mem var_index id) then begin
      Hashtbl.replace var_index id !n;
      incr n
    end
  in
  let unsafe = Hashtbl.create 16 in
  Stmt.iter_list
    (fun s ->
      List.iter
        (fun e ->
          List.iter consider (Expr.read_vars e);
          List.iter
            (fun id ->
              consider id;
              Hashtbl.replace unsafe id ())
            (Expr.vars_addressed [] e))
        (Stmt.shallow_exprs s);
      match def_of s with Some v -> consider v | None -> ())
    func.Func.body;
  List.iter consider func.Func.params;
  Hashtbl.iter
    (fun id _idx ->
      match Func.find_var func id with
      | Some v -> if v.volatile || Var.is_global v then Hashtbl.replace unsafe id ()
      | None -> Hashtbl.replace unsafe id ())
    var_index;
  let nvars = !n in
  let live_in = Hashtbl.create 64 in
  let live_out = Hashtbl.create 64 in
  Cfg.iter_rpo
    (fun id _ ->
      Hashtbl.replace live_in id (Bitset.create nvars);
      Hashtbl.replace live_out id (Bitset.create nvars))
    cfg;
  (match Hashtbl.find_opt live_in Cfg.exit_id with
  | Some exit_live ->
      Hashtbl.iter
        (fun id () ->
          match Hashtbl.find_opt var_index id with
          | Some idx -> Bitset.add exit_live idx
          | None -> ())
        unsafe
  | None -> ());
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        let node = Cfg.node cfg id in
        let out = Hashtbl.find live_out id in
        List.iter
          (fun succ_id ->
            match Hashtbl.find_opt live_in succ_id with
            | Some succ_in -> ignore (Bitset.union_into out succ_in)
            | None -> ())
          node.Cfg.succs;
        let in_ = Bitset.copy out in
        (match node.Cfg.stmt with
        | None -> ()
        | Some s ->
            (match def_of s with
            | Some v -> (
                match Hashtbl.find_opt var_index v with
                | Some idx -> Bitset.remove in_ idx
                | None -> ())
            | None -> ());
            List.iter
              (fun v ->
                match Hashtbl.find_opt var_index v with
                | Some idx -> Bitset.add in_ idx
                | None -> ())
              (Stmt.shallow_uses s));
        if not (Bitset.equal in_ (Hashtbl.find live_in id)) then begin
          changed := true;
          Hashtbl.replace live_in id in_
        end)
      (List.rev cfg.Cfg.rpo)
  done;
  { var_index; live_out; unsafe }

let live_out_of t ~stmt_id ~var =
  match Hashtbl.find_opt t.var_index var with
  | None -> false
  | Some idx -> (
      if Hashtbl.mem t.unsafe var then true
      else
        match Hashtbl.find_opt t.live_out stmt_id with
        | Some out -> Bitset.mem out idx
        | None -> false)
