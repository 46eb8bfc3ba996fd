(* An executing interpreter for the IL.  It is the reference semantics of
   the compiler: every optimization pass is differential-tested by running
   the program before and after the pass and comparing results, and the
   Titan simulator is checked against it.

   Memory is byte-addressed.  Scalars whose address is never taken live in
   per-frame registers; address-taken scalars and memory objects (arrays,
   structs) get stack slots.  Pointers are plain integer addresses.

   Each function is decoded once per run, on its first call: variables
   become register slots or frame offsets, labels and DO exits become code
   indices, direct calls point at the decoded callee or the builtin, and
   every expression tree becomes closures whose int/float choice and
   load/store width were settled while decoding.  The decoded form keeps
   the observable behaviour of the tree-walking definition exactly: one
   step per flattened op, the same values, FP-operation counts, frame
   addresses and runtime errors, raised at the same moment. *)

type value = V_int of int | V_float of float

exception Runtime_error of string
exception Timeout

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

let as_int = function
  | V_int n -> n
  | V_float _ -> error "expected integer value"

let as_float = function V_float f -> f | V_int n -> float_of_int n

(* 32-bit wrap-around semantics for int arithmetic, matching the target. *)
let[@inline] wrap32 n = (n lsl 31) asr 31

let[@inline] sign8 n = ((n land 0xFF) lxor 0x80) - 0x80

(* Rounding to single precision. *)
let[@inline] round32 f = Int32.float_of_bits (Int32.bits_of_float f)

(* ----------------------------------------------------------------- *)
(* Machine state and memory                                          *)
(* ----------------------------------------------------------------- *)

(* A decoded function: the layout of its stack slots (each the size and
   alignment of one addressed local, in [Hashtbl.iter] order over its
   variable table, or the error computing it raised), its register file
   sizes, one binder per parameter and its code.  An undefined [goto]
   label leaves the message the function fails with on entry. *)
type dfunc = {
  name : string;
  layout : (int * int, exn) result array;
  n_ints : int;
  n_floats : int;
  n_dyns : int;
  n_vtmps : int;
  params : (frame -> value -> unit) array;
  code : ((frame -> int) array, string) result;
}

(* A register is an int slot (char, int and pointer variables), a float
   slot (float and double variables; [fset] says it was written, since an
   unwritten register reads as [V_int 0]) or a slot holding any value. *)
and frame = {
  ints : int array;
  floats : float array;
  fset : Bytes.t;
  dyns : value array;
  addrs : int array;  (* addresses of the addressed locals, by slot *)
  vtmps : value array option array;  (* vector temporaries ([Vdef]) *)
  mutable ret : value;
}

type state = {
  prog : Prog.t;
  mutable mem : Bytes.t;
      (* the address space [0, mem_size), backed lazily: bytes past the
         end read as zero and the first access there grows it *)
  mutable stack_ptr : int;  (* grows upward from after globals *)
  global_addrs : (int, int) Hashtbl.t;  (* var id -> address *)
  output : Buffer.t;
  mutable steps : int;
  max_steps : int;
  on_volatile_read : (Var.t -> value option) option;
  mutable float_ops : int;  (* statistic: FP operations executed *)
  decoded : (string, dfunc Lazy.t) Hashtbl.t;  (* by function name *)
}

let mem_size = 1 lsl 22 (* 4 MiB *)
let initial_mem = 1 lsl 16

(* Widen the backing store, doubling, to cover [need] bytes (at most
   [mem_size]).  The new bytes are zero, as the address space always
   was. *)
let grow st need =
  let len = ref (Bytes.length st.mem) in
  while !len < need do len := 2 * !len done;
  let m = Bytes.make (min !len mem_size) '\000' in
  Bytes.blit st.mem 0 m 0 (Bytes.length st.mem);
  st.mem <- m

let out_of_range st addr size =
  if addr < 16 || addr + size > mem_size then
    error "memory access out of bounds at %d" addr
  else grow st (addr + size)

let[@inline] check st addr size =
  if addr < 16 || addr + size > Bytes.length st.mem then out_of_range st addr size

let[@inline] load_int st addr =
  check st addr 4;
  Int32.to_int (Bytes.get_int32_le st.mem addr)

let[@inline] load_char st addr =
  check st addr 1;
  sign8 (Char.code (Bytes.get st.mem addr))

let[@inline] load_single st addr =
  check st addr 4;
  Int32.float_of_bits (Bytes.get_int32_le st.mem addr)

let[@inline] load_double st addr =
  check st addr 8;
  Int64.float_of_bits (Bytes.get_int64_le st.mem addr)

let load_scalar st ty addr =
  match ty with
  | Ty.Char -> V_int (load_char st addr)
  | Ty.Int | Ty.Ptr _ | Ty.Func _ -> V_int (load_int st addr)
  | Ty.Float -> V_float (load_single st addr)
  | Ty.Double -> V_float (load_double st addr)
  | Ty.Void | Ty.Array _ | Ty.Struct _ -> error "load of non-scalar type"

let store_scalar st ty addr v =
  match ty with
  | Ty.Char ->
      check st addr 1;
      Bytes.set st.mem addr (Char.chr (as_int v land 0xFF))
  | Ty.Int | Ty.Ptr _ | Ty.Func _ ->
      check st addr 4;
      Bytes.set_int32_le st.mem addr (Int32.of_int (as_int v))
  | Ty.Float ->
      check st addr 4;
      Bytes.set_int32_le st.mem addr (Int32.bits_of_float (as_float v))
  | Ty.Double ->
      check st addr 8;
      Bytes.set_int64_le st.mem addr (Int64.bits_of_float (as_float v))
  | Ty.Void | Ty.Array _ | Ty.Struct _ -> error "store of non-scalar type"

(* Convert a value to the representation of type [ty] (assignment
   conversion). *)
let convert ty v =
  match ty with
  | Ty.Char -> V_int (sign8 (as_int v))
  | Ty.Int -> V_int (wrap32 (match v with V_int n -> n | V_float f -> int_of_float f))
  | Ty.Ptr _ | Ty.Func _ -> V_int (as_int v)
  | Ty.Float -> V_float (round32 (as_float v))
  | Ty.Double -> V_float (as_float v)
  | Ty.Void -> v
  | Ty.Array _ | Ty.Struct _ -> error "conversion to non-scalar type"

(* ----------------------------------------------------------------- *)
(* Layout                                                            *)
(* ----------------------------------------------------------------- *)

let align_up n a = (n + a - 1) / a * a

let alloc st size align =
  let addr = align_up st.stack_ptr align in
  st.stack_ptr <- addr + size;
  if st.stack_ptr > mem_size then error "out of memory";
  addr

let eval_const_expr (e : Expr.t) =
  let rec go (e : Expr.t) =
    match e.desc with
    | Const_int n -> V_int n
    | Const_float f -> V_float f
    | Unop (Neg, a) -> (
        match go a with V_int n -> V_int (-n) | V_float f -> V_float (-.f))
    | Cast (t, a) -> convert t (go a)
    | Var _ | Addr_of _ | Load _ | Binop _ | Unop _ ->
        error "initializer is not a constant"
  in
  go e

let layout_global st (g : Prog.global) =
  let ty = g.gvar.ty in
  let size = Ty.sizeof st.prog.structs ty in
  let align = Ty.alignof st.prog.structs ty in
  let addr = alloc st size align in
  Hashtbl.replace st.global_addrs g.gvar.Var.id addr;
  match g.ginit with
  | Init_none -> ()
  | Init_scalar e -> store_scalar st ty addr (convert ty (eval_const_expr e))
  | Init_array es ->
      let elt = match ty with Ty.Array (e, _) -> e | t -> t in
      let esize = Ty.sizeof st.prog.structs elt in
      List.iteri
        (fun i e ->
          store_scalar st elt (addr + (i * esize)) (convert elt (eval_const_expr e)))
        es
  | Init_string s ->
      let need = addr + String.length s + 1 in
      if need > Bytes.length st.mem then grow st (min need mem_size);
      String.iteri (fun i c -> Bytes.set st.mem (addr + i) c) s;
      Bytes.set st.mem (addr + String.length s) '\000'

(* ----------------------------------------------------------------- *)
(* Value-level operations                                            *)
(* ----------------------------------------------------------------- *)

let int_op (op : Expr.binop) x y =
  match op with
  | Add -> wrap32 (x + y)
  | Sub -> wrap32 (x - y)
  | Mul -> wrap32 (x * y)
  | Div ->
      if y = 0 then error "division by zero"
      else
        (* C truncating division *)
        let q = abs x / abs y in
        wrap32 (if (x < 0) <> (y < 0) then -q else q)
  | Rem ->
      if y = 0 then error "modulo by zero"
      else
        let r = abs x mod abs y in
        wrap32 (if x < 0 then -r else r)
  | Shl -> wrap32 (x lsl (y land 31))
  | Shr -> wrap32 (x asr (y land 31))
  | Band -> wrap32 (x land y)
  | Bor -> wrap32 (x lor y)
  | Bxor -> wrap32 (x lxor y)
  | Eq | Ne | Lt | Le | Gt | Ge -> error "comparison reached arithmetic path"

(* Unrounded; [Ty.Float] arithmetic rounds the result to single. *)
let float_op (op : Expr.binop) (x : float) y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Rem | Shl | Shr | Band | Bor | Bxor -> error "float bitop"
  | Eq | Ne | Lt | Le | Gt | Ge -> error "comparison typed float"

let eval_binop op ty a b =
  if Ty.is_float ty then
    let r = float_op op (as_float a) (as_float b) in
    V_float (if ty = Ty.Float then round32 r else r)
  else V_int (int_op op (as_int a) (as_int b))

let bool_of b = if b then 1 else 0

let int_compare (op : Expr.binop) (x : int) y =
  bool_of
    (match op with
    | Eq -> x = y
    | Ne -> x <> y
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y
    | _ -> error "not a comparison")

(* IEEE: every ordered comparison with a NaN is false, and [Ne] true. *)
let float_compare (op : Expr.binop) (x : float) y =
  bool_of
    (match op with
    | Eq -> x = y
    | Ne -> x <> y
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y
    | _ -> error "not a comparison")

(* Two ints compare as ints; anything else compares as floats. *)
let eval_compare op a b =
  V_int
    (match a, b with
    | V_int x, V_int y -> int_compare op x y
    | _ -> float_compare op (as_float a) (as_float b))

let is_comparison : Expr.binop -> bool = function
  | Eq | Ne | Lt | Le | Gt | Ge -> true
  | _ -> false

let truthy = function V_int 0 -> false | V_float 0.0 -> false | _ -> true

(* ----------------------------------------------------------------- *)
(* Builtins                                                          *)
(* ----------------------------------------------------------------- *)

let read_cstring st addr =
  let buf = Buffer.create 16 in
  let rec go a =
    check st a 1;
    let c = Bytes.get st.mem a in
    if c <> '\000' then begin
      Buffer.add_char buf c;
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

let do_printf st fmt args =
  let out = st.output in
  let args = ref args in
  let next () =
    match !args with
    | [] -> error "printf: missing argument"
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c = '%' && !i + 1 < n then begin
      (* collect flags / width / precision *)
      let spec = Buffer.create 8 in
      Buffer.add_char spec '%';
      incr i;
      while
        !i < n
        && (match fmt.[!i] with
           | '0' .. '9' | '-' | '+' | ' ' | '.' | '#' -> true
           | _ -> false)
      do
        Buffer.add_char spec fmt.[!i];
        incr i
      done;
      if !i >= n then error "printf: truncated conversion";
      let conv = fmt.[!i] in
      let spec_with c = Buffer.contents spec ^ String.make 1 c in
      (match conv with
      | 'd' | 'i' ->
          Buffer.add_string out
            (Printf.sprintf
               (Scanf.format_from_string (spec_with 'd') "%d")
               (as_int (next ())))
      | 'f' | 'g' | 'e' ->
          Buffer.add_string out
            (Printf.sprintf
               (Scanf.format_from_string (spec_with conv) "%f")
               (as_float (next ())))
      | 'c' -> Buffer.add_char out (Char.chr (as_int (next ()) land 0xFF))
      | 's' ->
          Buffer.add_string out
            (Printf.sprintf
               (Scanf.format_from_string (spec_with 's') "%s")
               (read_cstring st (as_int (next ()))))
      | '%' -> Buffer.add_char out '%'
      | other -> error "printf: unsupported conversion %%%c" other);
      incr i
    end
    else begin
      Buffer.add_char out c;
      incr i
    end
  done

(* The builtin [name] called with [arity] arguments, if there is one. *)
let builtin st name arity : (value array -> value) option =
  let fp f x =
    st.float_ops <- st.float_ops + 1;
    V_float (f (as_float x))
  in
  match name, arity with
  | "printf", n when n >= 1 ->
      Some
        (fun args ->
          do_printf st
            (read_cstring st (as_int args.(0)))
            (List.tl (Array.to_list args));
          V_int 0)
  | "putchar", 1 ->
      Some
        (fun args ->
          Buffer.add_char st.output (Char.chr (as_int args.(0) land 0xFF));
          V_int (as_int args.(0)))
  | "puts", 1 ->
      Some
        (fun args ->
          Buffer.add_string st.output (read_cstring st (as_int args.(0)));
          Buffer.add_char st.output '\n';
          V_int 0)
  | ("sqrt" | "sqrtf"), 1 -> Some (fun args -> fp sqrt args.(0))
  | ("fabs" | "fabsf"), 1 -> Some (fun args -> V_float (Float.abs (as_float args.(0))))
  | "abs", 1 -> Some (fun args -> V_int (abs (as_int args.(0))))
  | ("exp" | "expf"), 1 -> Some (fun args -> fp exp args.(0))
  | ("sin" | "sinf"), 1 -> Some (fun args -> fp sin args.(0))
  | ("cos" | "cosf"), 1 -> Some (fun args -> fp cos args.(0))
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Flattening statement trees into a linear code array                *)
(* ----------------------------------------------------------------- *)

type op =
  | Oassign of Stmt.lvalue * Expr.t
  | Ocall of Stmt.lvalue option * Stmt.call_target * Expr.t list
  | Obranch_false of Expr.t * int ref  (* jump when condition is zero *)
  | Ojump of int ref
  | Odo_test of { index : int; hi : Expr.t; step : Expr.t; exit_pc : int ref }
  | Oreturn of Expr.t option
  | Ovector of Stmt.vstmt
  | Ovdef of Stmt.vdef
  | Onop

(* The ops and, when a [goto] names no label, the error entering the
   function raises. *)
let flatten (f : Func.t) =
  let code = ref [] in
  let n = ref 0 in
  let labels = Hashtbl.create 8 in
  let fixups : (string * int ref) list ref = ref [] in
  let emit op =
    code := op :: !code;
    incr n;
    !n - 1
  in
  let rec stmt (s : Stmt.t) =
    match s.desc with
    | Assign (lv, e) -> ignore (emit (Oassign (lv, e)))
    | Call (dst, tgt, args) -> ignore (emit (Ocall (dst, tgt, args)))
    | Goto l ->
        let r = ref (-1) in
        fixups := (l, r) :: !fixups;
        ignore (emit (Ojump r))
    | Label l -> Hashtbl.replace labels l (emit Onop)
    | Return e -> ignore (emit (Oreturn e))
    | Vector v -> ignore (emit (Ovector v))
    | Vdef vd -> ignore (emit (Ovdef vd))
    | Nop -> ignore (emit Onop)
    | If (c, then_, else_) ->
        let else_ref = ref (-1) in
        ignore (emit (Obranch_false (c, else_ref)));
        List.iter stmt then_;
        if else_ = [] then else_ref := !n
        else begin
          let end_ref = ref (-1) in
          ignore (emit (Ojump end_ref));
          else_ref := !n;
          List.iter stmt else_;
          end_ref := !n
        end
    | While (_, c, body) ->
        let head = !n in
        let exit_ref = ref (-1) in
        ignore (emit (Obranch_false (c, exit_ref)));
        List.iter stmt body;
        ignore (emit (Ojump (ref head)));
        exit_ref := !n
    | Do_loop d ->
        (* index = lo; head: if out of range goto exit; body; index += step;
           goto head.  A parallel DO executes sequentially here — the
           interpreter defines the values, the Titan simulator the time. *)
        let index_lv = Stmt.Lvar d.index in
        let index_ty =
          match Func.find_var f d.index with
          | Some v -> v.ty
          | None -> Ty.Int
        in
        let index_e = Expr.var_id d.index index_ty in
        ignore (emit (Oassign (index_lv, d.lo)));
        let head = !n in
        let exit_ref = ref (-1) in
        ignore (emit (Odo_test { index = d.index; hi = d.hi; step = d.step; exit_pc = exit_ref }));
        List.iter stmt d.body;
        ignore
          (emit (Oassign (index_lv, Expr.binop Expr.Add index_e d.step index_ty)));
        ignore (emit (Ojump (ref head)));
        exit_ref := !n
  in
  List.iter stmt f.body;
  ignore (emit (Oreturn None));
  let undefined =
    List.find_map
      (fun (l, r) ->
        match Hashtbl.find_opt labels l with
        | Some pc ->
            r := pc;
            None
        | None -> Some (Printf.sprintf "goto to undefined label %s in %s" l f.name))
      !fixups
  in
  (Array.of_list (List.rev !code), undefined)

(* ----------------------------------------------------------------- *)
(* Decoding expressions                                              *)
(* ----------------------------------------------------------------- *)

(* What decoding knows of the value an expression yields: always a
   [V_int], always a [V_float], a [V_float] or the [V_int 0] of an
   unwritten float register, or anything. *)
type kind = Int | Float | Float_or_zero | Any

(* A decoded expression: its kind and three entry points that evaluate
   it with the same effects and errors, yielding [as_int] of the value,
   [as_float] of it, or the value itself.  [i] is exact only where the
   tree-walker applied [as_int] right after evaluating, or on an [Int]
   expression; every other consumer goes through [v]. *)
type cexpr = {
  kind : kind;
  i : frame -> int;
  f : frame -> float;
  v : frame -> value;
}

let of_int i =
  { kind = Int; i; f = (fun fr -> float_of_int (i fr)); v = (fun fr -> V_int (i fr)) }

let of_float f =
  {
    kind = Float;
    i = (fun fr -> ignore (f fr); error "expected integer value");
    f;
    v = (fun fr -> V_float (f fr));
  }

let of_value v =
  { kind = Any; i = (fun fr -> as_int (v fr)); f = (fun fr -> as_float (v fr)); v }

(* C truth: not zero (and not 0.0, positive or negative). *)
let truth c : frame -> bool =
  match c.kind with
  | Int ->
      let c = c.i in
      fun fr -> c fr <> 0
  | Float | Float_or_zero ->
      let c = c.f in
      fun fr -> c fr <> 0.0
  | Any ->
      let c = c.v in
      fun fr -> truthy (c fr)

(* Where a variable lives in a frame, or at a global address. *)
type loc =
  | Reg_int of int
  | Reg_float of int
  | Reg_dyn of int
  | Local of int
  | Global of int
  | Nowhere  (* neither a register of this function nor memory *)

(* The function being decoded. *)
type dctx = {
  st : state;
  func : Func.t;
  locs : (int, loc) Hashtbl.t;  (* this function's own locals *)
  vslots : (int, int) Hashtbl.t;  (* vector temporary id -> slot *)
}

let var_of cx id = Prog.find_var cx.st.prog (Some cx.func) id

(* The internal error reading an unknown variable raises. *)
let unknown_var cx id =
  ignore (Prog.var_exn cx.st.prog (Some cx.func) id);
  assert false

let loc_of cx id =
  match Hashtbl.find_opt cx.locs id with
  | Some l -> l
  | None -> (
      match Hashtbl.find_opt cx.st.global_addrs id with
      | Some a -> Global a
      | None -> Nowhere)

(* The address of a memory location. *)
let addr_fn = function
  | Local k -> Some (fun fr -> Array.unsafe_get fr.addrs k)
  | Global a -> Some (fun _ -> a)
  | Reg_int _ | Reg_float _ | Reg_dyn _ | Nowhere -> None

let no_address (v : Var.t) = error "address of register variable %s" v.name

(* [convert Ty.Int]: floats truncate. *)
let to_int a =
  match a.kind with
  | Int ->
      let a = a.i in
      fun fr -> wrap32 (a fr)
  | Float | Float_or_zero ->
      let a = a.f in
      fun fr -> wrap32 (int_of_float (a fr))
  | Any ->
      let a = a.v in
      fun fr -> (
        match a fr with
        | V_int n -> wrap32 n
        | V_float f -> wrap32 (int_of_float f))

(* [convert t] applied to what [a] yields. *)
let cast t a =
  match t with
  | Ty.Char ->
      let a = a.i in
      of_int (fun fr -> sign8 (a fr))
  | Ty.Int -> of_int (to_int a)
  | Ty.Ptr _ | Ty.Func _ -> of_int a.i
  | Ty.Float ->
      let a = a.f in
      of_float (fun fr -> round32 (a fr))
  | Ty.Double -> of_float a.f
  | Ty.Void -> a
  | Ty.Array _ | Ty.Struct _ ->
      let a = a.v in
      of_value (fun fr -> ignore (a fr); error "conversion to non-scalar type")

let comparison (op : Expr.binop) a b =
  match a.kind, b.kind with
  | Int, Int -> (
      let a = a.i and b = b.i in
      match op with
      | Eq -> of_int (fun fr -> let x = a fr in let y = b fr in bool_of (x = y))
      | Ne -> of_int (fun fr -> let x = a fr in let y = b fr in bool_of (x <> y))
      | Lt -> of_int (fun fr -> let x = a fr in let y = b fr in bool_of (x < y))
      | Le -> of_int (fun fr -> let x = a fr in let y = b fr in bool_of (x <= y))
      | Gt -> of_int (fun fr -> let x = a fr in let y = b fr in bool_of (x > y))
      | Ge -> of_int (fun fr -> let x = a fr in let y = b fr in bool_of (x >= y))
      | _ -> of_int (fun fr -> let x = a fr in let y = b fr in int_compare op x y))
  | (Float | Float_or_zero), (Float | Float_or_zero) | Float, Int | Int, Float ->
      (* a [V_float] is involved, or two values that compare as floats
         exactly as they would as ints *)
      let a = a.f and b = b.f in
      of_int (fun fr -> let x = a fr in let y = b fr in float_compare op x y)
  | _ ->
      let a = a.v and b = b.v in
      of_int (fun fr ->
          let x = a fr in
          let y = b fr in
          match eval_compare op x y with V_int n -> n | V_float _ -> assert false)

let float_binop st op ~single a b =
  of_float (fun fr ->
      let x = a fr in
      let y = b fr in
      st.float_ops <- st.float_ops + 1;
      let r = float_op op x y in
      if single then round32 r else r)

(* Both operands are evaluated before either is taken as an int. *)
let int_binop (op : Expr.binop) a b =
  match a.kind, b.kind with
  | Int, Int -> (
      let a = a.i and b = b.i in
      match op with
      | Add -> of_int (fun fr -> let x = a fr in let y = b fr in wrap32 (x + y))
      | Sub -> of_int (fun fr -> let x = a fr in let y = b fr in wrap32 (x - y))
      | Mul -> of_int (fun fr -> let x = a fr in let y = b fr in wrap32 (x * y))
      | _ -> of_int (fun fr -> let x = a fr in let y = b fr in int_op op x y))
  | _ ->
      let a = a.v and b = b.v in
      of_int (fun fr ->
          let x = a fr in
          let y = b fr in
          int_op op (as_int x) (as_int y))

(* A load of [ty] from the address [addr] yields. *)
let load st ty (addr : frame -> int) =
  match ty with
  | Ty.Char -> of_int (fun fr -> load_char st (addr fr))
  | Ty.Int | Ty.Ptr _ | Ty.Func _ -> of_int (fun fr -> load_int st (addr fr))
  | Ty.Float -> of_float (fun fr -> load_single st (addr fr))
  | Ty.Double -> of_float (fun fr -> load_double st (addr fr))
  | Ty.Void | Ty.Array _ | Ty.Struct _ ->
      of_value (fun fr -> ignore (addr fr); error "load of non-scalar type")

let read_var cx id =
  match var_of cx id with
  | None -> of_value (fun _ -> unknown_var cx id)
  | Some v -> (
      let loc = loc_of cx id in
      let stored =
        match loc, addr_fn loc with
        | Reg_int s, _ -> of_int (fun fr -> Array.unsafe_get fr.ints s)
        | Reg_float s, _ ->
            {
              kind = Float_or_zero;
              f = (fun fr -> Array.unsafe_get fr.floats s);
              v =
                (fun fr ->
                  if Bytes.unsafe_get fr.fset s = '\000' then V_int 0
                  else V_float (Array.unsafe_get fr.floats s));
              i =
                (fun fr ->
                  if Bytes.unsafe_get fr.fset s = '\000' then 0
                  else error "expected integer value");
            }
        | Reg_dyn s, _ -> of_value (fun fr -> Array.unsafe_get fr.dyns s)
        | _, Some addr -> load cx.st v.ty addr
        | _, None -> of_value (fun _ -> no_address v)
      in
      match v.volatile, cx.st.on_volatile_read with
      | true, Some hook ->
          let stored = stored.v in
          of_value (fun fr ->
              let s = stored fr in
              match hook v with Some value -> value | None -> s)
      | _ -> stored)

let rec cexpr cx (e : Expr.t) : cexpr =
  let st = cx.st in
  match e.desc with
  | Const_int n ->
      let v = V_int n in
      { (of_int (fun _ -> n)) with v = (fun _ -> v) }
  | Const_float f ->
      let f = if e.ty = Ty.Float then round32 f else f in
      let v = V_float f in
      { (of_float (fun _ -> f)) with v = (fun _ -> v) }
  | Var id -> read_var cx id
  | Addr_of id -> (
      match var_of cx id with
      | None -> of_int (fun _ -> unknown_var cx id)
      | Some v -> (
          match addr_fn (loc_of cx id) with
          | Some addr -> of_int addr
          | None -> of_int (fun _ -> no_address v)))
  | Load p -> (
      let addr = (cexpr cx p).i in
      match p.ty with
      | Ty.Ptr elt -> load st elt addr
      | _ -> of_value (fun fr -> ignore (addr fr); error "load through non-pointer"))
  | Binop (op, a, b) when is_comparison op -> comparison op (cexpr cx a) (cexpr cx b)
  | Binop (op, a, b) when Ty.is_float e.ty ->
      let single = e.ty = Ty.Float in
      float_binop st op ~single (cexpr cx a).f (cexpr cx b).f
  | Binop (op, a, b) -> int_binop op (cexpr cx a) (cexpr cx b)
  | Unop (Neg, a) -> (
      let a = cexpr cx a in
      match a.kind with
      | Int ->
          let a = a.i in
          of_int (fun fr -> wrap32 (-a fr))
      | Float ->
          let a = a.f in
          of_float (fun fr ->
              let x = a fr in
              st.float_ops <- st.float_ops + 1;
              -.x)
      | Float_or_zero | Any ->
          let a = a.v in
          of_value (fun fr ->
              match a fr with
              | V_int n -> V_int (wrap32 (-n))
              | V_float f ->
                  st.float_ops <- st.float_ops + 1;
                  V_float (-.f)))
  | Unop (Lognot, a) ->
      let a = truth (cexpr cx a) in
      of_int (fun fr -> bool_of (not (a fr)))
  | Unop (Bitnot, a) ->
      let a = (cexpr cx a).i in
      of_int (fun fr -> wrap32 (lnot (a fr)))
  | Cast (t, a) -> cast t (cexpr cx a)

(* ----------------------------------------------------------------- *)
(* Decoding statements                                               *)
(* ----------------------------------------------------------------- *)

(* Store the int [x] as [ty] at [addr] (after the bounds check). *)
let store_int st ty addr x =
  match ty with
  | Ty.Char ->
      check st addr 1;
      Bytes.unsafe_set st.mem addr (Char.unsafe_chr (x land 0xFF))
  | _ ->
      check st addr 4;
      Bytes.set_int32_le st.mem addr (Int32.of_int x)

let store_float st ty addr x =
  match ty with
  | Ty.Float ->
      check st addr 4;
      Bytes.set_int32_le st.mem addr (Int32.bits_of_float x)
  | _ ->
      check st addr 8;
      Bytes.set_int64_le st.mem addr (Int64.bits_of_float x)

type width = W_int | W_float | W_other

let width : Ty.t -> width = function
  | Char | Int | Ptr _ | Func _ -> W_int
  | Float | Double -> W_float
  | Void | Array _ | Struct _ -> W_other

(* [*addr = x] as [ty], then continue at [next]: [x] is evaluated
   before the address, the address is checked before [x] is taken as an
   int. *)
let store st ty (x : cexpr) (addr : frame -> int) next : frame -> int =
  match width ty, x.kind with
  | W_int, Int ->
      let x = x.i in
      fun fr ->
        let x = x fr in
        store_int st ty (addr fr) x;
        next
  | W_float, _ ->
      let x = x.f in
      fun fr ->
        let x = x fr in
        store_float st ty (addr fr) x;
        next
  | _ ->
      let x = x.v in
      fun fr ->
        let x = x fr in
        store_scalar st ty (addr fr) x;
        next

(* [lv = rhs], then continue at [next]: the right-hand side is evaluated
   first, then the variable is resolved or the address evaluated. *)
let assign cx (lv : Stmt.lvalue) rhs next : frame -> int =
  match lv with
  | Lvar id -> (
      match var_of cx id with
      | None ->
          let rhs = rhs.v in
          fun fr -> ignore (rhs fr); unknown_var cx id
      | Some v -> (
          let x = cast v.ty rhs in
          match loc_of cx id with
          | Reg_int s ->
              let x = x.i in
              fun fr -> Array.unsafe_set fr.ints s (x fr); next
          | Reg_float s ->
              let x = x.f in
              fun fr ->
                Array.unsafe_set fr.floats s (x fr);
                Bytes.unsafe_set fr.fset s '\001';
                next
          | Reg_dyn s ->
              let x = x.v in
              fun fr -> Array.unsafe_set fr.dyns s (x fr); next
          | loc -> (
              match addr_fn loc with
              | Some addr -> store cx.st v.ty x addr next
              | None ->
                  let x = x.v in
                  fun fr -> ignore (x fr); no_address v)))
  | Lmem addr_e -> (
      let addr = (cexpr cx addr_e).i in
      match addr_e.ty with
      | Ty.Ptr elt -> store cx.st elt rhs addr next
      | _ ->
          let x = rhs.v in
          fun fr ->
            ignore (x fr);
            ignore (addr fr);
            error "store through non-pointer")

(* Binding an argument to a parameter: [lv = arg] for a value in hand. *)
let bind_param cx id : frame -> value -> unit =
  let st = cx.st in
  match var_of cx id with
  | None -> fun _ _ -> unknown_var cx id
  | Some v -> (
      let loc = loc_of cx id in
      match loc, addr_fn loc with
      | Reg_int s, _ -> fun fr x -> fr.ints.(s) <- as_int (convert v.ty x)
      | Reg_float s, _ ->
          fun fr x ->
            fr.floats.(s) <- as_float (convert v.ty x);
            Bytes.set fr.fset s '\001'
      | Reg_dyn s, _ -> fun fr x -> fr.dyns.(s) <- convert v.ty x
      | _, Some addr ->
          fun fr x ->
            let x = convert v.ty x in
            store_scalar st v.ty (addr fr) x
      | _, None -> fun _ x -> ignore (convert v.ty x); no_address v)

let vtmp_slot cx t =
  match Hashtbl.find_opt cx.vslots t with
  | Some s -> s
  | None ->
      let s = Hashtbl.length cx.vslots in
      Hashtbl.replace cx.vslots t s;
      s

(* A whole vector expression over [count] elements, evaluated before any
   element is stored: true vector-register semantics.  [elt] is the
   element type driving float rounding of vector arithmetic (the
   enclosing statement's velt/vty). *)
let vexpr cx ~elt =
  let st = cx.st in
  let rec go : Stmt.vexpr -> frame -> int -> value array = function
    | Vscalar e ->
        let e = (cexpr cx e).v in
        fun fr count -> Array.make count (e fr)
    | Viota (off, scale) ->
        let off = (cexpr cx off).i and scale = (cexpr cx scale).i in
        fun fr count ->
          let off = off fr in
          let scale = scale fr in
          Array.init count (fun i -> V_int (wrap32 (off + (scale * i))))
    | Vcast (ty, a) ->
        let a = go a in
        fun fr count -> Array.map (convert ty) (a fr count)
    | Vsec sec -> (
        let base = (cexpr cx sec.base).i and stride = (cexpr cx sec.stride).i in
        match sec.base.ty with
        | Ty.Ptr selt ->
            fun fr count ->
              let base = base fr in
              let stride = stride fr in
              Array.init count (fun i -> load_scalar st selt (base + (i * stride)))
        | _ ->
            fun fr _ ->
              ignore (base fr);
              ignore (stride fr);
              error "bad section base")
    | Vbin (op, a, b) ->
        let a = go a and b = go b in
        let fp = Ty.is_float elt in
        let f = if is_comparison op then eval_compare op else eval_binop op elt in
        fun fr count ->
          let va = a fr count in
          let vb = b fr count in
          if fp then st.float_ops <- st.float_ops + count;
          Array.map2 f va vb
    | Vun (op, a) ->
        let a = go a in
        let f =
          match op with
          | Neg -> ( function V_int n -> V_int (wrap32 (-n)) | V_float f -> V_float (-.f))
          | Lognot -> fun x -> V_int (if truthy x then 0 else 1)
          | Bitnot -> fun x -> V_int (wrap32 (lnot (as_int x)))
        in
        fun fr count -> Array.map f (a fr count)
    | Vtmp (t, _) -> (
        let s = vtmp_slot cx t in
        fun fr count ->
          match fr.vtmps.(s) with
          | Some a when Array.length a >= count -> Array.sub a 0 count
          | Some _ -> error "vector temporary vt%d shorter than use" t
          | None -> error "vector temporary vt%d read before definition" t)
  in
  go

let vector cx (v : Stmt.vstmt) next =
  let st = cx.st in
  let base = (cexpr cx v.vdst.base).i
  and count = (cexpr cx v.vdst.count).i
  and stride = (cexpr cx v.vdst.stride).i in
  let rhs = vexpr cx ~elt:v.velt v.vsrc in
  fun fr ->
    let dst_base = base fr in
    let count = count fr in
    let dst_stride = stride fr in
    if count < 0 then error "negative vector count";
    let rhs = rhs fr count in
    Array.iteri
      (fun i value ->
        let value = convert v.velt value in
        store_scalar st v.velt (dst_base + (i * dst_stride)) value)
      rhs;
    next

(* Bind a vector temporary: evaluate the full right-hand side, convert to
   the declared element type (matching what a [Vector] store would have
   kept), and rebind — self-referencing accumulators therefore read the
   previous binding. *)
let vdef cx (vd : Stmt.vdef) next =
  let count = (cexpr cx vd.vcount).i in
  let rhs = vexpr cx ~elt:vd.vty vd.vval in
  let s = vtmp_slot cx vd.vt in
  fun fr ->
    let count = count fr in
    if count < 0 then error "negative vector count";
    let rhs = rhs fr count in
    fr.vtmps.(s) <- Some (Array.map (convert vd.vty) rhs);
    next

(* ----------------------------------------------------------------- *)
(* Decoding functions, calls and execution                           *)
(* ----------------------------------------------------------------- *)

let rec decoded st (f : Func.t) =
  match Hashtbl.find_opt st.decoded f.name with
  | Some d -> d
  | None ->
      let d = lazy (decode st f) in
      Hashtbl.replace st.decoded f.name d;
      d

(* Slots for every local: a frame offset for addressed ones and memory
   objects, in the order the variable table iterates (addresses are
   observable), a register for the rest. *)
and decode st (f : Func.t) : dfunc =
  let cx = { st; func = f; locs = Hashtbl.create 16; vslots = Hashtbl.create 4 } in
  let addressed = Func.addressed_vars f in
  let layout = ref [] and n_locals = ref 0 in
  let n_ints = ref 0 and n_floats = ref 0 and n_dyns = ref 0 in
  let slot n = let s = !n in incr n; s in
  Hashtbl.iter
    (fun id (v : Var.t) ->
      if Var.is_global v then ()
      else if Hashtbl.mem addressed id || Var.is_memory_object v then begin
        let size_align =
          try
            let size = Ty.sizeof st.prog.structs v.ty in
            Ok (size, Ty.alignof st.prog.structs v.ty)
          with e -> Error e
        in
        layout := size_align :: !layout;
        Hashtbl.replace cx.locs id (Local (slot n_locals))
      end
      else
        Hashtbl.replace cx.locs id
          (match width v.ty with
          | W_int -> Reg_int (slot n_ints)
          | W_float -> Reg_float (slot n_floats)
          | W_other -> Reg_dyn (slot n_dyns)))
    f.vars;
  let params = Array.of_list (List.map (bind_param cx) f.params) in
  let ops, undefined = flatten f in
  let code =
    match undefined with
    | Some m -> Error m
    | None -> Ok (Array.mapi (fun pc op -> decode_op cx op (pc + 1)) ops)
  in
  {
    name = f.name;
    layout = Array.of_list (List.rev !layout);
    n_ints = !n_ints;
    n_floats = !n_floats;
    n_dyns = !n_dyns;
    n_vtmps = Hashtbl.length cx.vslots;
    params;
    code;
  }

and decode_op cx op next : frame -> int =
  match op with
  | Onop -> fun _ -> next
  | Oassign (lv, e) -> assign cx lv (cexpr cx e) next
  | Ocall (dst, tgt, args) -> (
      let call = of_value (call cx tgt args) in
      match dst with
      | Some lv -> assign cx lv call next
      | None ->
          let call = call.v in
          fun fr -> ignore (call fr); next)
  | Obranch_false (c, target) ->
      let target = !target in
      let c = truth (cexpr cx c) in
      fun fr -> if c fr then next else target
  | Ojump target ->
      let target = !target in
      fun _ -> target
  | Odo_test { index; hi; step; exit_pc } ->
      let exit_pc = !exit_pc in
      let index = (read_var cx index).i in
      let hi = (cexpr cx hi).i and step = (cexpr cx step).i in
      fun fr ->
        let iv = index fr in
        let hv = hi fr in
        let sv = step fr in
        (* a zero step never advances the index: the loop would spin
           until the instruction budget ran out — reject it instead *)
        if sv = 0 && iv <= hv then
          error "DO loop step evaluates to 0 (the index would never advance)";
        if (if sv >= 0 then iv <= hv else iv >= hv) then next else exit_pc
  | Oreturn None -> fun _ -> -1
  | Oreturn (Some e) ->
      let e = (cexpr cx e).v in
      fun fr ->
        fr.ret <- e fr;
        -1
  | Ovector v -> vector cx v next
  | Ovdef vd -> vdef cx vd next

(* The arguments are evaluated left to right before the callee is
   looked at. *)
and call cx (tgt : Stmt.call_target) args : frame -> value =
  let st = cx.st in
  let args = Array.of_list (List.map (fun a -> (cexpr cx a).v) args) in
  let argv fr = Array.map (fun a -> a fr) args in
  match tgt with
  | Direct name -> (
      match Prog.find_func st.prog name with
      | Some g ->
          let g = decoded st g in
          fun fr -> let argv = argv fr in invoke st (Lazy.force g) argv
      | None -> (
          match builtin st name (Array.length args) with
          | Some b -> fun fr -> b (argv fr)
          | None ->
              fun fr ->
                ignore (argv fr);
                error "call to undefined function %s" name))
  | Indirect _ ->
      fun fr ->
        ignore (argv fr);
        error "indirect calls are not supported"

and invoke st (d : dfunc) (args : value array) : value =
  let saved_sp = st.stack_ptr in
  let addrs =
    Array.map
      (function Ok (size, align) -> alloc st size align | Error e -> raise e)
      d.layout
  in
  let fr =
    {
      ints = Array.make d.n_ints 0;
      floats = Array.make d.n_floats 0.0;
      fset = Bytes.make d.n_floats '\000';
      dyns = Array.make d.n_dyns (V_int 0);
      addrs;
      vtmps = Array.make d.n_vtmps None;
      ret = V_int 0;
    }
  in
  (try
     let n = Array.length d.params and m = Array.length args in
     for k = 0 to min n m - 1 do d.params.(k) fr args.(k) done;
     if n <> m then invalid_arg "argument count"
   with Invalid_argument _ -> error "call to %s with wrong argument count" d.name);
  let code = match d.code with Ok code -> code | Error m -> raise (Runtime_error m) in
  let pc = ref 0 in
  while !pc >= 0 do
    let steps = st.steps + 1 in
    st.steps <- steps;
    if steps > st.max_steps then raise Timeout;
    pc := code.(!pc) fr
  done;
  st.stack_ptr <- saved_sp;
  fr.ret

(* ----------------------------------------------------------------- *)
(* Entry points                                                      *)
(* ----------------------------------------------------------------- *)

type result = {
  return_value : value;
  stdout_text : string;
  fp_ops : int;
  steps_executed : int;
}

let create_state ?(max_steps = 50_000_000) ?on_volatile_read prog =
  let st =
    {
      prog;
      mem = Bytes.make initial_mem '\000';
      stack_ptr = 16;  (* address 0 stays unmapped-ish: null *)
      global_addrs = Hashtbl.create 16;
      output = Buffer.create 256;
      steps = 0;
      max_steps;
      on_volatile_read;
      float_ops = 0;
      decoded = Hashtbl.create 8;
    }
  in
  List.iter (layout_global st) (Prog.globals_list st.prog);
  st

let run ?max_steps ?on_volatile_read ?(entry = "main") ?(args = []) prog =
  let st = create_state ?max_steps ?on_volatile_read prog in
  let f = Prog.func_exn prog entry in
  let return_value = invoke st (Lazy.force (decoded st f)) (Array.of_list args) in
  {
    return_value;
    stdout_text = Buffer.contents st.output;
    fp_ops = st.float_ops;
    steps_executed = st.steps;
  }
