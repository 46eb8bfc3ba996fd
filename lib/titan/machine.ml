(* The Titan simulator: executes Titan instructions for real values while
   accounting cycles under a configurable scheduling model.

   Scheduling models (§6's "dependence-driven" scheduling):
     - [Sequential]: each instruction starts when the previous one
       completes — the naive scalar code the paper measures at 0.5 MFLOPS
       on the backsolve loop;
     - [Overlap_conservative]: integer/FP/memory units overlap, but every
       load waits for every earlier store (no dependence information);
     - [Overlap_full]: loads bypass stores — legal when the compiler's
       dependence graph proved the references independent, which is the
       information "passed back to the code generation to allow better
       overlap" (§6).

   A parallel DO loop's iterations are distributed round-robin over the
   configured processors; the region costs the maximum per-processor time
   plus a barrier.

   [run] first decodes every function into a run-ready form (see
   "Decoded program" below), so the execution loop does no name lookups
   and allocates nothing for timing or for scalar values. *)

open Vpc_il

exception Runtime_error of string

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

type sched_mode = Sequential | Overlap_conservative | Overlap_full

type config = {
  procs : int;
  sched : sched_mode;
  clock_mhz : float;
  max_insts : int;
}

let default_config =
  { procs = 1; sched = Overlap_full; clock_mhz = Cost.clock_mhz; max_insts = 200_000_000 }

type value = Vi of int | Vf of float

let not_int () = error "expected integer"
let as_int = function Vi n -> n | Vf _ -> not_int ()
let as_float = function Vf f -> f | Vi n -> float_of_int n

let[@inline] wrap32 n =
  (n land 0xFFFFFFFF) - (if n land 0x80000000 <> 0 then 1 lsl 32 else 0)

let[@inline] sign8 n =
  let b = n land 0xFF in
  if b > 127 then b - 256 else b

let[@inline] round_sp f = Int32.float_of_bits (Int32.bits_of_float f)
let[@inline] imax (a : int) b = if a >= b then a else b

(* ----------------------------------------------------------------- *)
(* Global layout                                                     *)
(* ----------------------------------------------------------------- *)

type layout = {
  addr_of : (int, int) Hashtbl.t;  (* global var id -> address *)
  globals_top : int;
  lprog : Prog.t;
}

(* The simulated address space: 4 MB, zero-filled, addresses below 16
   reserved (null). *)
let mem_size = 1 lsl 22

(* Stack the backing store covers before its first growth. *)
let initial_stack = 1 lsl 12

let layout_globals (prog : Prog.t) : layout =
  let addr_of = Hashtbl.create 16 in
  let top = ref 16 in
  List.iter
    (fun (g : Prog.global) ->
      let size = Ty.sizeof prog.Prog.structs g.gvar.Var.ty in
      let align = Ty.alignof prog.Prog.structs g.gvar.Var.ty in
      let addr = (!top + align - 1) / align * align in
      Hashtbl.replace addr_of g.gvar.Var.id addr;
      top := addr + size)
    (Prog.globals_list prog);
  { addr_of; globals_top = !top; lprog = prog }

(* ----------------------------------------------------------------- *)
(* Metrics                                                           *)
(* ----------------------------------------------------------------- *)

type metrics = {
  mutable cycles : int;          (* wall-clock cycles, parallel-adjusted *)
  mutable insts : int;
  mutable fp_ops : int;
  mutable mem_ops : int;
  mutable vector_insts : int;
  mutable vector_elems : int;
  mutable parallel_regions : int;
  mutable calls : int;
  (* cycles doacross iterations spent blocked in [Wait] for a producer
     iteration's post (in pipeline virtual time, summed over iterations) *)
  mutable post_wait_stalls : int;
  mutable posts : int;  (* post instructions executed *)
  mutable waits : int;  (* wait instructions executed *)
  (* vector memory traffic (in elements) avoided by register reuse:
     accumulated from Vsaved markers *)
  mutable vector_mem_elems_avoided : int;
  (* per-unit occupancy in cycles, summed over all issued operations
     (not parallel-adjusted): how long each port was busy *)
  mutable busy_iu : int;
  mutable busy_fpu : int;
  mutable busy_mem : int;
}

let new_metrics () =
  {
    cycles = 0;
    insts = 0;
    fp_ops = 0;
    mem_ops = 0;
    vector_insts = 0;
    vector_elems = 0;
    parallel_regions = 0;
    calls = 0;
    post_wait_stalls = 0;
    posts = 0;
    waits = 0;
    vector_mem_elems_avoided = 0;
    busy_iu = 0;
    busy_fpu = 0;
    busy_mem = 0;
  }

let mflops m ~clock_mhz =
  if m.cycles = 0 then 0.0
  else float_of_int m.fp_ops /. (float_of_int m.cycles /. (clock_mhz *. 1e6)) /. 1e6

(* ----------------------------------------------------------------- *)
(* Decoded program                                                   *)
(* ----------------------------------------------------------------- *)

(* A decoded instruction sits at the pc of its [Isa.inst], so error paths
   can read the source (label names).  Every operand is a register
   number: each distinct immediate of a function gets a register past
   [Isa.func.nregs] that the frame template preloads and no instruction
   writes.  Labels are resolved to pcs, callees to their decoded
   function, memory types to an [mty], and costs to their
   [Cost.op_cost]. *)

(* A memory or conversion type, resolved from its [Ty.t]. *)
type mty =
  | M_char    (* 1 byte, sign-extended *)
  | M_int     (* 4 bytes; a float converts by truncation *)
  | M_ptr     (* Ptr/Func, 4 bytes; a float is an error *)
  | M_float   (* IEEE single *)
  | M_double  (* IEEE double *)
  | M_void    (* converts as the identity; no load or store *)
  | M_agg     (* array/struct: no conversion, load or store *)

let mty_of : Ty.t -> mty = function
  | Ty.Char -> M_char
  | Ty.Int -> M_int
  | Ty.Ptr _ | Ty.Func _ -> M_ptr
  | Ty.Float -> M_float
  | Ty.Double -> M_double
  | Ty.Void -> M_void
  | Ty.Array _ | Ty.Struct _ -> M_agg

type dinst =
  | Nop  (* a label: counted, no effect *)
  | Prof of Isa.prof_event
  | Vsaved of int
  | Mov of int * int
  | Ialu of Isa.ialu_op * Cost.op_cost * int * int * int
  | Falu of Isa.falu_op * Cost.op_cost * bool * int * int * int
      (* the bool rounds the result to single precision *)
  | Fneg of bool * int * int
  | Cvt_if of int * int
  | Cvt_fi of int * int
  | Cvt_ff of bool * int * int
  | Load of { dst : int; addr : int; mty : mty; volatile : bool }
  | Store of { src : int; addr : int; mty : mty; volatile : bool }
  | Jump of int  (* target pc; -1 for an unknown label *)
  | Branch_zero of int * int
  | Branch_nonzero of int * int
  | Call of { dst : int; callee : callee; args : int array }  (* dst -1: none *)
  | Ret of int  (* -1: no value *)
  | Vload of { dst : int; base : int; stride : int; len : int; mty : mty }
  | Vstore of { src : int; base : int; stride : int; len : int; mty : mty }
  | Vop of {
      op : Isa.falu_op_or_int;
      dst : int;
      a : vsrc;
      b : vsrc;
      len : int;
      single : bool;
      flops : bool;  (* counts its elements as fp_ops *)
    }
  | Vneg of { dst : int; a : vsrc; len : int; single : bool; flops : bool }
  | Viota of { dst : int; offset : int; scale : int; len : int }
  | Vcvt of { dst : int; a : int; len : int; to_ : mty }
  | Par_enter
  | Par_iter
  | Par_serial_end
  | Par_exit
  | Da_enter
  | Post of int
  | Wait of { chan : int; dist : int; cum : bool }

and vsrc = Vr of int | Vscal of int

and callee = Func of dfunc | Builtin of string

and dfunc = {
  fn : Isa.func;
  params : param array;  (* one per [fn.param_ids] *)
  mutable code : dinst array;
  (* frame template: register kinds ('\001' = float), int and float
     payloads — all zero but the immediates *)
  mutable kinds0 : Bytes.t;
  mutable ints0 : int array;
  mutable floats0 : float array;
}

and param = P_slot of int * mty  (* frame offset *) | P_reg of int | P_unused

(* ----------------------------------------------------------------- *)
(* Machine state                                                     *)
(* ----------------------------------------------------------------- *)

(* Virtual times by (channel, iteration) in a doacross region: a row per
   channel indexed by iteration + 1 (a post may precede the first
   [Par_iter]), [not_posted] where nothing was recorded.  Virtual times
   are never negative. *)
type posts = { mutable rows : int array array }

let not_posted = min_int

let posts_find p chan iter =
  let i = iter + 1 in
  if chan < 0 || chan >= Array.length p.rows || i < 0 || i >= Array.length p.rows.(chan)
  then not_posted
  else p.rows.(chan).(i)

let posts_set p chan iter v =
  if chan < 0 then error "negative doacross channel %d" chan;
  if chan >= Array.length p.rows then begin
    let rows = Array.make (chan + 1) [||] in
    Array.blit p.rows 0 rows 0 (Array.length p.rows);
    p.rows <- rows
  end;
  let i = iter + 1 in
  let row = p.rows.(chan) in
  if i >= Array.length row then begin
    let grown = Array.make (max (i + 1) (2 * Array.length row)) not_posted in
    Array.blit row 0 grown 0 (Array.length row);
    p.rows.(chan) <- grown
  end;
  p.rows.(chan).(i) <- v

type state = {
  config : config;
  sched : sched_mode;
  (* backing store of the address space: zero-filled, [mem_size] long as
     far as the program can tell, allocated only as far as it is used *)
  mutable mem : Bytes.t;
  layout : layout;
  mutable stack_top : int;
  output : Buffer.t;
  metrics : metrics;
  (* timing *)
  mutable clock : int;           (* current in-order issue front *)
  mutable saved : int;           (* cycles recovered by parallel regions *)
  unit_free : int array;         (* per [Cost.unit_], see [unit_index] *)
  mutable last_store_done : int;
  mutable last_mem_done : int;   (* for volatile ordering *)
  (* parallel region bookkeeping *)
  mutable par_buckets : int array;
  mutable par_iter : int;
  mutable par_iter_start : int;
  mutable par_enter_clock : int;
  mutable par_active : bool;
  mutable par_serial_total : int;  (* doacross: serialized prefix time *)
  (* doacross (post/wait) region bookkeeping.  The simulator executes the
     loop serially; the pipeline schedule is reconstructed in *virtual*
     time relative to region entry: iteration i starts at the max of its
     processor's previous completion and is pushed later by wait stalls,
     with per-iteration progress measured by real-clock deltas. *)
  mutable da_active : bool;
  mutable da_proc_done : int array;  (* virtual completion per processor *)
  mutable da_iter : int;             (* current iteration, -1 before first *)
  mutable da_iter_vstart : int;      (* virtual start of current iteration *)
  mutable da_iter_base : int;        (* real clock at its first instruction *)
  mutable da_stall : int;            (* virtual wait stalls, this iteration *)
  da_posts : posts;  (* (chan, iter) -> virtual time *)
  da_post_pre : posts;
      (* (chan, iter) -> max virtual post time over iterations <= iter:
         iterations run in order here, so each post extends a running
         prefix max — what a cumulative wait needs in O(1) *)
  mutable fuel : int;  (* instructions left in the budget, markers included *)
  mutable markers : int;  (* zero-cost markers executed *)
  mutable issued : int;  (* instructions issued, for the issue-width floor *)
  collect : Vpc_profile.Collect.t option;  (* profile collector, if any *)
  (* scratch operands of vector instructions (broadcasts, conversions) *)
  mutable scratch_f : float array array;
  mutable scratch_i : int array array;
}

(* A vector register holds [n] elements, all floats or all integers. *)
type vreg = {
  mutable fl : bool;
  mutable n : int;
  mutable vi : int array;
  mutable vf : float array;
}

(* Never written: [vreg_for_write] replaces it on a frame's first write. *)
let empty_vreg = { fl = false; n = 0; vi = [||]; vf = [||] }

(* Scalar registers are split by kind: a float register's payload is in
   [floats], an integer's in [ints]. *)
type frame = {
  kinds : Bytes.t;
  ints : int array;
  floats : float array;
  ready : int array;             (* per-register ready time *)
  vregs : vreg array;
  vready : int array;
}

let k_int = '\000'
let k_float = '\001'

let[@inline] reg_int fr r =
  if Bytes.get fr.kinds r = k_int then Array.get fr.ints r else not_int ()

let[@inline] reg_float fr r =
  if Bytes.get fr.kinds r = k_int then float_of_int (Array.get fr.ints r)
  else Array.get fr.floats r

let[@inline] set_int fr r n ~ready =
  Bytes.set fr.kinds r k_int;
  Array.set fr.ints r n;
  Array.set fr.ready r ready

let[@inline] set_float fr r f ~ready =
  Bytes.set fr.kinds r k_float;
  Array.set fr.floats r f;
  Array.set fr.ready r ready

let reg_value fr r =
  if Bytes.get fr.kinds r = k_int then Vi fr.ints.(r) else Vf fr.floats.(r)

let set_value fr r v ~ready =
  match v with Vi n -> set_int fr r n ~ready | Vf f -> set_float fr r f ~ready

(* C truth of a register: an integer is nonzero in its low 32 bits, a
   float iff it is not 0.0. *)
let[@inline] reg_true fr r =
  if Bytes.get fr.kinds r = k_int then fr.ints.(r) land 0xFFFFFFFF <> 0
  else fr.floats.(r) <> 0.0

(* ----------------------------------------------------------------- *)
(* Memory                                                            *)
(* ----------------------------------------------------------------- *)

(* Widen the backing store, doubling, to cover [need] bytes.  The new
   bytes are zero, as the address space always was. *)
let grow st need =
  let len = ref (Bytes.length st.mem) in
  while !len < need do len := 2 * !len done;
  let m = Bytes.make (min !len mem_size) '\000' in
  Bytes.blit st.mem 0 m 0 (Bytes.length st.mem);
  st.mem <- m

let out_of_range st addr size =
  if addr < 16 || addr > mem_size - size then
    error "memory access out of bounds at %d" addr
  else grow st (addr + size)

(* [addr] is a program value: compared so that no sum can overflow *)
let[@inline] check st addr size =
  if addr < 16 || addr > Bytes.length st.mem - size then out_of_range st addr size

(* Load into register [dst].  Each case writes the register itself, so
   a loaded float is never boxed. *)
let[@inline] load_reg st fr mty addr dst ~ready =
  match mty with
  | M_char ->
      check st addr 1;
      set_int fr dst (sign8 (Char.code (Bytes.get st.mem addr))) ~ready
  | M_int | M_ptr ->
      check st addr 4;
      set_int fr dst (Int32.to_int (Bytes.get_int32_le st.mem addr)) ~ready
  | M_float ->
      check st addr 4;
      set_float fr dst (Int32.float_of_bits (Bytes.get_int32_le st.mem addr)) ~ready
  | M_double ->
      check st addr 8;
      set_float fr dst (Int64.float_of_bits (Bytes.get_int64_le st.mem addr)) ~ready
  | M_void | M_agg -> error "bad load type"

let store_int st mty addr n =
  match mty with
  | M_char ->
      check st addr 1;
      Bytes.set st.mem addr (Char.unsafe_chr (n land 0xFF))
  | M_int | M_ptr ->
      check st addr 4;
      Bytes.set_int32_le st.mem addr (Int32.of_int n)
  | M_float | M_double | M_void | M_agg -> error "bad store type"

(* Rounding to single is part of [Int32.bits_of_float], so an [M_float]
   store needs no separate conversion. *)
let[@inline] store_float st mty addr f =
  match mty with
  | M_float ->
      check st addr 4;
      Bytes.set_int32_le st.mem addr (Int32.bits_of_float f)
  | M_double ->
      check st addr 8;
      Bytes.set_int64_le st.mem addr (Int64.bits_of_float f)
  | M_char | M_int | M_ptr | M_void | M_agg -> error "bad store type"

(* A store to [M_void] or [M_agg]: what the conversion, or else the store
   itself, rejects. *)
let bad_store = function
  | M_agg -> error "bad conversion"
  | _ -> error "bad store type"

(* Store an already-converted value. *)
let store_mem st mty addr (v : value) =
  match mty with
  | M_float | M_double -> store_float st mty addr (as_float v)
  | M_char | M_int | M_ptr -> store_int st mty addr (as_int v)
  | M_void | M_agg -> bad_store mty

(* C conversion of an integer or a float to an integer type ([M_void]
   converts as the identity). *)
let int_to_int mty n =
  match mty with
  | M_char -> sign8 n
  | M_int -> wrap32 n
  | M_ptr | M_void -> n
  | M_float | M_double | M_agg -> assert false

let[@inline] float_to_int mty f =
  match mty with
  | M_int -> wrap32 (int_of_float f)
  | M_char | M_ptr -> not_int ()
  | M_float | M_double | M_void | M_agg -> assert false

let convert ty (v : value) : value =
  let mty = mty_of ty in
  match mty, v with
  | M_agg, _ -> error "bad conversion"
  | M_void, _ -> v
  | M_float, _ -> Vf (round_sp (as_float v))
  | M_double, _ -> Vf (as_float v)
  | (M_char | M_int | M_ptr), Vi n -> Vi (int_to_int mty n)
  | (M_char | M_int | M_ptr), Vf f -> Vi (float_to_int mty f)

(* Store register [r] of [fr], converted to [mty], at [addr]. *)
let store_reg st fr mty ~addr r =
  match mty with
  | M_float | M_double -> store_float st mty addr (reg_float fr r)
  | M_char | M_int | M_ptr ->
      store_int st mty addr
        (if Bytes.get fr.kinds r = k_int then int_to_int mty fr.ints.(r)
         else float_to_int mty fr.floats.(r))
  | M_void | M_agg -> bad_store mty

(* ----------------------------------------------------------------- *)
(* Timing                                                            *)
(* ----------------------------------------------------------------- *)

let[@inline] unit_index : Cost.unit_ -> int = function
  | Cost.IU -> 0
  | Cost.FPU -> 1
  | Cost.MEM -> 2
  | Cost.CTRL -> 3

let[@inline] add_busy st (u : Cost.unit_) n =
  match u with
  | Cost.IU -> st.metrics.busy_iu <- st.metrics.busy_iu + n
  | Cost.FPU -> st.metrics.busy_fpu <- st.metrics.busy_fpu + n
  | Cost.MEM -> st.metrics.busy_mem <- st.metrics.busy_mem + n
  | Cost.CTRL -> ()

(* Issue an operation: [ops_ready] is when its inputs are available.
   Returns the completion time (when its result is ready).

   [Sequential] starts each operation when the previous completes.
   [Overlap_conservative] issues in order: an operation whose inputs are
   not ready stalls everything behind it.  [Overlap_full] is
   dataflow-limited: the compiler's dependence graph licensed the
   scheduler to reorder freely, so an operation waits only for its inputs
   and its unit — the model of a perfectly list-scheduled loop (§6). *)
let[@inline] issue st (cost : Cost.op_cost) ~ops_ready : int =
  add_busy st cost.Cost.unit_ cost.Cost.issue;
  match st.sched with
  | Sequential ->
      let done_ = imax st.clock ops_ready + cost.Cost.latency in
      st.clock <- done_;
      done_
  | Overlap_conservative ->
      let u = unit_index cost.Cost.unit_ in
      let start = imax (imax st.clock st.unit_free.(u)) ops_ready in
      st.unit_free.(u) <- start + cost.Cost.issue;
      st.clock <- start;  (* in-order issue: next op cannot start earlier *)
      start + cost.Cost.latency
  | Overlap_full ->
      (* dataflow-limited: the list scheduler reorders compute ops freely;
         the single memory port keeps its occupancy, and a machine-wide
         issue width of 4 (one per unit) floors everything *)
      let slot = st.issued / 4 in
      st.issued <- st.issued + 1;
      let start =
        match cost.Cost.unit_ with
        | Cost.MEM ->
            let u = unit_index Cost.MEM in
            let start = imax (imax st.unit_free.(u) ops_ready) slot in
            st.unit_free.(u) <- start + cost.Cost.issue;
            start
        | Cost.IU | Cost.FPU | Cost.CTRL -> imax ops_ready slot
      in
      let done_ = start + cost.Cost.latency in
      st.clock <- imax st.clock done_;
      done_

(* A vector operation occupies its unit for startup + len cycles. *)
let issue_vector st ~unit_ ~startup ~len ~ops_ready : int =
  let busy = startup + len in
  add_busy st unit_ busy;
  let u = unit_index unit_ in
  match st.sched with
  | Sequential ->
      let done_ = imax st.clock ops_ready + busy in
      st.clock <- done_;
      done_
  | Overlap_conservative ->
      let start = imax (imax st.clock st.unit_free.(u)) ops_ready in
      st.unit_free.(u) <- start + busy;
      st.clock <- start;
      start + busy
  | Overlap_full ->
      let done_ = imax st.unit_free.(u) ops_ready + busy in
      st.unit_free.(u) <- done_;
      st.clock <- imax st.clock done_;
      done_

(* A control transfer serializes issue, except under full
   dependence-driven scheduling where the compiler has already proven the
   loop's operations independent and the scheduler overlaps across the
   loop-closing branch (§6: "completely overlap the integer and floating
   point instructions in the loop"). *)
let[@inline] issue_branch st ~ops_ready =
  match st.sched with
  | Overlap_full ->
      let slot = st.issued / 4 in
      st.issued <- st.issued + 1;
      st.clock <- imax st.clock (imax ops_ready slot + Cost.branch.Cost.latency)
  | Sequential | Overlap_conservative ->
      st.clock <- imax st.clock ops_ready + Cost.branch.Cost.latency

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

let builtin st name (args : value list) : value option =
  match name, args with
  | "printf", fmt :: rest ->
      do_printf st (read_cstring st (as_int fmt)) rest;
      Some (Vi 0)
  | "putchar", [ c ] ->
      Buffer.add_char st.output (Char.chr (as_int c land 0xFF));
      Some (Vi (as_int c))
  | "puts", [ s ] ->
      Buffer.add_string st.output (read_cstring st (as_int s));
      Buffer.add_char st.output '\n';
      Some (Vi 0)
  | ("sqrt" | "sqrtf"), [ x ] ->
      st.metrics.fp_ops <- st.metrics.fp_ops + 1;
      Some (Vf (sqrt (as_float x)))
  | ("fabs" | "fabsf"), [ x ] -> Some (Vf (Float.abs (as_float x)))
  | "abs", [ x ] -> Some (Vi (abs (as_int x)))
  | ("exp" | "sin" | "cos"), [ x ] ->
      st.metrics.fp_ops <- st.metrics.fp_ops + 1;
      Some
        (Vf
           ((match name with
            | "exp" -> exp
            | "sin" -> sin
            | _ -> cos)
              (as_float x)))
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Decoding                                                          *)
(* ----------------------------------------------------------------- *)

(* Decode [df.fn]'s code and build its frame template: immediates
   become preloaded registers, labels pcs, callee names [lookup]ed. *)
let decode_code ~lookup (df : dfunc) =
  let f = df.fn in
  let nregs = max f.Isa.nregs 1 in
  let consts = ref [] and nconsts = ref 0 in
  let ints = Hashtbl.create 8 and floats = Hashtbl.create 8 in
  let const tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
        let r = nregs + !nconsts in
        consts := v :: !consts;
        incr nconsts;
        Hashtbl.replace tbl key r;
        r
  in
  let op : Isa.operand -> int = function
    | Isa.Reg r -> r
    | Isa.Imm_int n -> const ints n (Vi n)
    (* keyed by bits: 0.0 and -0.0 are distinct constants *)
    | Isa.Imm_float x -> const floats (Int64.bits_of_float x) (Vf x)
  in
  let vsrc : Isa.vsrc -> vsrc = function
    | Isa.Vr v -> Vr v
    | Isa.Vscal o -> Vscal (op o)
  in
  let pc_of l = Option.value (Hashtbl.find_opt f.Isa.labels l) ~default:(-1) in
  let single ty = ty = Ty.Float in
  let decode : Isa.inst -> dinst = function
    | Isa.Label_def _ -> Nop
    | Isa.Prof ev -> Prof ev
    | Isa.Vsaved { len } -> Vsaved (op len)
    | Isa.Imov (d, s) -> Mov (d, op s)
    | Isa.Ialu (o, d, a, b) ->
        let cost =
          match o with
          | Isa.Imul -> Cost.imul
          | Isa.Idiv | Isa.Irem -> Cost.idiv
          | _ -> Cost.ialu
        in
        Ialu (o, cost, d, op a, op b)
    | Isa.Falu (o, d, a, b, ty) ->
        let cost =
          match o with
          | Isa.Fdiv -> Cost.fdiv
          | Isa.Fmul -> Cost.fmul
          | _ -> Cost.falu
        in
        Falu (o, cost, single ty, d, op a, op b)
    | Isa.Fneg (d, a, ty) -> Fneg (single ty, d, op a)
    | Isa.Cvt_if (d, a) -> Cvt_if (d, op a)
    | Isa.Cvt_fi (d, a) -> Cvt_fi (d, op a)
    | Isa.Cvt_ff (d, a, ty) -> Cvt_ff (single ty, d, op a)
    | Isa.Load { dst; addr; ty; volatile } ->
        Load { dst; addr = op addr; mty = mty_of ty; volatile }
    | Isa.Store { src; addr; ty; volatile } ->
        Store { src = op src; addr = op addr; mty = mty_of ty; volatile }
    | Isa.Jump l -> Jump (pc_of l)
    | Isa.Branch_zero (o, l) -> Branch_zero (op o, pc_of l)
    | Isa.Branch_nonzero (o, l) -> Branch_nonzero (op o, pc_of l)
    | Isa.Call { dst; name; args } ->
        Call
          {
            dst = Option.value dst ~default:(-1);
            callee = lookup name;
            args = Array.of_list (List.map op args);
          }
    | Isa.Ret o -> Ret (match o with Some o -> op o | None -> -1)
    | Isa.Vload { dst; base; stride; len; ty } ->
        Vload { dst; base = op base; stride = op stride; len = op len; mty = mty_of ty }
    | Isa.Vstore { src; base; stride; len; ty } ->
        Vstore { src; base = op base; stride = op stride; len = op len; mty = mty_of ty }
    | Isa.Vop { op = o; dst; a; b; len; ty } ->
        Vop
          {
            op = o;
            dst;
            a = vsrc a;
            b = vsrc b;
            len = op len;
            single = single ty;
            flops = Ty.is_float ty;
          }
    | Isa.Vneg { dst; a; len; ty } ->
        Vneg { dst; a = vsrc a; len = op len; single = single ty; flops = Ty.is_float ty }
    | Isa.Viota { dst; offset; scale; len } ->
        Viota { dst; offset = op offset; scale = op scale; len = op len }
    | Isa.Vcvt { dst; a; len; to_ } -> Vcvt { dst; a; len = op len; to_ = mty_of to_ }
    | Isa.Par_enter -> Par_enter
    | Isa.Par_iter -> Par_iter
    | Isa.Par_serial_end -> Par_serial_end
    | Isa.Par_exit -> Par_exit
    | Isa.Da_enter -> Da_enter
    | Isa.Post { chan } -> Post chan
    | Isa.Wait { chan; dist; cum } -> Wait { chan; dist; cum }
  in
  df.code <- Array.map decode f.Isa.code;
  let total = nregs + !nconsts in
  df.kinds0 <- Bytes.make total k_int;
  df.ints0 <- Array.make total 0;
  df.floats0 <- Array.make total 0.0;
  List.iteri
    (fun i v ->
      let r = total - 1 - i in
      match v with
      | Vi n -> df.ints0.(r) <- n
      | Vf x ->
          Bytes.set df.kinds0 r k_float;
          df.floats0.(r) <- x)
    !consts

(* Decode every function of [program]; returns the callee of a name. *)
let decode (program : Isa.program) : string -> callee =
  let param_mty id =
    match Prog.find_var program.Isa.prog None id with
    | Some v -> mty_of v.Var.ty
    | None -> M_int
  in
  let funcs = Hashtbl.create (Hashtbl.length program.Isa.funcs) in
  Hashtbl.iter
    (fun name (f : Isa.func) ->
      let param id =
        match Hashtbl.find_opt f.Isa.frame_offset id with
        | Some off -> P_slot (off, param_mty id)
        | None -> (
            match Hashtbl.find_opt f.Isa.reg_of_var id with
            | Some r -> P_reg r
            | None -> P_unused)
      in
      Hashtbl.replace funcs name
        {
          fn = f;
          params = Array.of_list (List.map param f.Isa.param_ids);
          code = [||];
          kinds0 = Bytes.empty;
          ints0 = [||];
          floats0 = [||];
        })
    program.Isa.funcs;
  let lookup name =
    match Hashtbl.find_opt funcs name with
    | Some df -> Func df
    | None -> Builtin name
  in
  Hashtbl.iter (fun _ df -> decode_code ~lookup df) funcs;
  lookup

(* ----------------------------------------------------------------- *)
(* Vector registers                                                  *)
(* ----------------------------------------------------------------- *)

let vreg_for_write fr v =
  let r = fr.vregs.(v) in
  if r != empty_vreg then r
  else begin
    let r = { fl = false; n = 0; vi = [||]; vf = [||] } in
    fr.vregs.(v) <- r;
    r
  end

(* The payload array of a register about to receive [n] elements.
   Growing replaces the array, so a view of the same register taken
   before stays intact. *)
let vf_cap r n =
  if Array.length r.vf < n then r.vf <- Array.make (imax n (2 * Array.length r.vf)) 0.0;
  r.vf

let vi_cap r n =
  if Array.length r.vi < n then r.vi <- Array.make (imax n (2 * Array.length r.vi)) 0;
  r.vi

let vlen n = if n < 0 then error "negative vector length %d" n else n

let short_operand () = error "vector register shorter than operand"

(* Scratch operand [k] (0 or 1) of at least [n] elements. *)
let scratch_f st k n =
  if Array.length st.scratch_f.(k) < n then st.scratch_f.(k) <- Array.make n 0.0;
  st.scratch_f.(k)

let scratch_i st k n =
  if Array.length st.scratch_i.(k) < n then st.scratch_i.(k) <- Array.make n 0;
  st.scratch_i.(k)

(* The first [n] elements of a vector source as floats: an element past
   a register's length reads 0, a scalar is broadcast.  A float register
   long enough is used in place; anything else lands in scratch [k]. *)
let float_view st fr k src n : float array =
  match src with
  | Vr v ->
      let r = fr.vregs.(v) in
      if r.fl && r.n >= n then r.vf
      else begin
        let out = scratch_f st k n in
        for i = 0 to n - 1 do
          out.(i) <-
            (if i >= r.n then 0.0
             else if r.fl then r.vf.(i)
             else float_of_int r.vi.(i))
        done;
        out
      end
  | Vscal s ->
      let out = scratch_f st k n in
      Array.fill out 0 n (reg_float fr s);
      out

(* The same as integers; a float element is an error. *)
let int_view st fr k src n : int array =
  match src with
  | Vr v ->
      let r = fr.vregs.(v) in
      if (not r.fl) && r.n >= n then r.vi
      else begin
        let out = scratch_i st k n in
        for i = 0 to n - 1 do
          out.(i) <- (if i >= r.n then 0 else if r.fl then not_int () else r.vi.(i))
        done;
        out
      end
  | Vscal s ->
      let out = scratch_i st k n in
      if n > 0 then Array.fill out 0 n (reg_int fr s);
      out

let vsrc_ready fr = function Vr v -> fr.vready.(v) | Vscal s -> fr.ready.(s)

(* ----------------------------------------------------------------- *)
(* Execution                                                         *)
(* ----------------------------------------------------------------- *)

let[@inline] eval_ialu (op : Isa.ialu_op) x y =
  let bool_ b = if b then 1 else 0 in
  match op with
  | Iadd -> wrap32 (x + y)
  | Isub -> wrap32 (x - y)
  | Imul -> wrap32 (x * y)
  | Idiv ->
      if y = 0 then error "division by zero"
      else
        let q = abs x / abs y in
        if (x < 0) <> (y < 0) then -q else q
  | Irem ->
      if y = 0 then error "modulo by zero"
      else
        let r = abs x mod abs y in
        if x < 0 then -r else r
  | Ishl -> wrap32 (x lsl (y land 31))
  | Ishr -> x asr (y land 31)
  | Iand -> x land y
  | Ior -> x lor y
  | Ixor -> x lxor y
  | Icmp_eq -> bool_ (x = y)
  | Icmp_ne -> bool_ (x <> y)
  | Icmp_lt -> bool_ (x < y)
  | Icmp_le -> bool_ (x <= y)
  | Icmp_gt -> bool_ (x > y)
  | Icmp_ge -> bool_ (x >= y)
  | Inot -> wrap32 (lnot x)

(* A floating-point ALU op: arithmetic yields a float, a comparison the
   integer 0 or 1. *)
let is_compare (op : Isa.falu_op) =
  match op with
  | Fcmp_eq | Fcmp_ne | Fcmp_lt | Fcmp_le | Fcmp_gt | Fcmp_ge -> true
  | Fadd | Fsub | Fmul | Fdiv -> false

let[@inline] farith (op : Isa.falu_op) (x : float) y =
  match op with
  | Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y
  | Fcmp_eq | Fcmp_ne | Fcmp_lt | Fcmp_le | Fcmp_gt | Fcmp_ge -> assert false

let[@inline] fcompare (op : Isa.falu_op) (x : float) y =
  let b =
    match op with
    | Fcmp_eq -> x = y
    | Fcmp_ne -> x <> y
    | Fcmp_lt -> x < y
    | Fcmp_le -> x <= y
    | Fcmp_gt -> x > y
    | Fcmp_ge -> x >= y
    | Fadd | Fsub | Fmul | Fdiv -> assert false
  in
  if b then 1 else 0

(* Element loop of a vector floating-point arithmetic op. *)
let vfarith (op : Isa.falu_op) ~single (x : float array) (y : float array)
    (out : float array) n =
  (match op with
  | Fadd -> for i = 0 to n - 1 do out.(i) <- x.(i) +. y.(i) done
  | Fsub -> for i = 0 to n - 1 do out.(i) <- x.(i) -. y.(i) done
  | Fmul -> for i = 0 to n - 1 do out.(i) <- x.(i) *. y.(i) done
  | Fdiv -> for i = 0 to n - 1 do out.(i) <- x.(i) /. y.(i) done
  | Fcmp_eq | Fcmp_ne | Fcmp_lt | Fcmp_le | Fcmp_gt | Fcmp_ge -> assert false);
  if single then for i = 0 to n - 1 do out.(i) <- round_sp out.(i) done

let new_frame (df : dfunc) ~frame_base =
  let nv = max df.fn.Isa.nvregs 1 in
  let fr =
    {
      kinds = Bytes.copy df.kinds0;
      ints = Array.copy df.ints0;
      floats = Array.copy df.floats0;
      ready = Array.make (Array.length df.ints0) 0;
      vregs = Array.make nv empty_vreg;
      vready = Array.make nv 0;
    }
  in
  fr.ints.(0) <- frame_base;
  fr

(* Virtual (pipeline) time of the current doacross iteration: its virtual
   start, plus the real cycles it has executed, plus the wait stalls that
   pushed it later in the pipeline schedule. *)
let da_now st =
  st.da_iter_vstart + (st.clock - st.da_iter_base) + st.da_stall

let da_finish_iter st =
  if st.da_iter >= 0 then begin
    let p = st.da_iter mod Array.length st.da_proc_done in
    st.da_proc_done.(p) <- da_now st
  end

(* Charge the closing do-parallel iteration to its processor's bucket. *)
let par_finish_iter st =
  if st.par_iter >= 0 then begin
    let dt = st.clock - st.par_iter_start in
    let p = st.par_iter mod Array.length st.par_buckets in
    st.par_buckets.(p) <- st.par_buckets.(p) + dt
  end

let unknown_label (df : dfunc) pc =
  match df.fn.Isa.code.(pc) with
  | Isa.Jump l | Isa.Branch_zero (_, l) | Isa.Branch_nonzero (_, l) ->
      error "unknown label %s in %s" l df.fn.Isa.fn_name
  | _ -> assert false

let args_ready fr (args : int array) =
  let r = ref 0 in
  Array.iter (fun a -> r := imax !r fr.ready.(a)) args;
  !r

(* Call [callee] on registers [args] of the caller's frame [cf]. *)
let rec call st callee cf (args : int array) : value =
  match callee with
  | Builtin name -> (
      match builtin st name (Array.to_list (Array.map (reg_value cf) args)) with
      | Some v -> v
      | None -> error "undefined function %s" name)
  | Func df ->
      let f = df.fn in
      let saved_stack = st.stack_top in
      let frame_base = (st.stack_top + 7) / 8 * 8 in
      st.stack_top <- frame_base + f.Isa.frame_size;
      if st.stack_top > mem_size then error "stack overflow";
      let fr = new_frame df ~frame_base in
      if Array.length args <> Array.length df.params then
        error "arity mismatch calling %s" f.Isa.fn_name;
      for i = 0 to Array.length args - 1 do
        match df.params.(i) with
        | P_slot (off, mty) -> store_reg st cf mty ~addr:(frame_base + off) args.(i)
        | P_reg r -> set_value fr r (reg_value cf args.(i)) ~ready:0
        | P_unused -> ()
      done;
      let result = exec st df fr in
      st.stack_top <- saved_stack;
      result

and exec st df fr : value =
  let code = df.code in
  let ncode = Array.length code in
  let m = st.metrics in
  let pc = ref 0 in
  let result = ref (Vi 0) in
  while !pc < ncode do
    st.fuel <- st.fuel - 1;
    if st.fuel < 0 then
      error "instruction budget exceeded (infinite loop?)";
    let next = !pc + 1 in
    match code.(!pc) with
    | Nop -> pc := next
    | Vsaved len ->
        (* zero-cost accounting marker: one vector memory operation of
           [len] elements avoided by register reuse *)
        st.markers <- st.markers + 1;
        m.vector_mem_elems_avoided <- m.vector_mem_elems_avoided + reg_int fr len;
        pc := next
    | Prof ev ->
        (* profiling markers are free: they must not perturb the metrics
           they are meant to describe *)
        st.markers <- st.markers + 1;
        (match st.collect with
        | Some c -> (
            match ev with
            | Isa.Ploop_enter k ->
                Vpc_profile.Collect.loop_enter c k ~clock:st.clock
            | Isa.Ploop_iter k -> Vpc_profile.Collect.loop_iter c k
            | Isa.Ploop_exit k ->
                Vpc_profile.Collect.loop_exit c k ~clock:st.clock
            | Isa.Pcall_begin (k, callee) ->
                Vpc_profile.Collect.call_begin c k ~callee ~clock:st.clock
            | Isa.Pcall_end k -> Vpc_profile.Collect.call_end c k ~clock:st.clock)
        | None -> ());
        pc := next
    | Mov (d, s) ->
        let done_ = issue st Cost.imov ~ops_ready:fr.ready.(s) in
        Bytes.set fr.kinds d (Bytes.get fr.kinds s);
        fr.ints.(d) <- fr.ints.(s);
        fr.floats.(d) <- fr.floats.(s);
        fr.ready.(d) <- done_;
        pc := next
    | Ialu (op, cost, d, a, b) ->
        let done_ = issue st cost ~ops_ready:(imax fr.ready.(a) fr.ready.(b)) in
        let y = reg_int fr b in
        set_int fr d (eval_ialu op (reg_int fr a) y) ~ready:done_;
        pc := next
    | Falu (op, cost, single, d, a, b) ->
        let done_ = issue st cost ~ops_ready:(imax fr.ready.(a) fr.ready.(b)) in
        m.fp_ops <- m.fp_ops + 1;
        let x = reg_float fr a and y = reg_float fr b in
        if is_compare op then set_int fr d (fcompare op x y) ~ready:done_
        else begin
          let v = farith op x y in
          set_float fr d (if single then round_sp v else v) ~ready:done_
        end;
        pc := next
    | Fneg (single, d, a) ->
        let done_ = issue st Cost.falu ~ops_ready:fr.ready.(a) in
        m.fp_ops <- m.fp_ops + 1;
        let v = -.reg_float fr a in
        set_float fr d (if single then round_sp v else v) ~ready:done_;
        pc := next
    | Cvt_if (d, a) ->
        let done_ = issue st Cost.fcvt ~ops_ready:fr.ready.(a) in
        set_float fr d (float_of_int (reg_int fr a)) ~ready:done_;
        pc := next
    | Cvt_fi (d, a) ->
        let done_ = issue st Cost.fcvt ~ops_ready:fr.ready.(a) in
        set_int fr d (wrap32 (int_of_float (reg_float fr a))) ~ready:done_;
        pc := next
    | Cvt_ff (single, d, a) ->
        let done_ = issue st Cost.fcvt ~ops_ready:fr.ready.(a) in
        let v = reg_float fr a in
        set_float fr d (if single then round_sp v else v) ~ready:done_;
        pc := next
    | Load { dst; addr; mty; volatile } ->
        let ra = fr.ready.(addr) in
        let ops_ready =
          if volatile then imax ra st.last_mem_done
          else
            match st.sched with
            | Overlap_conservative -> imax ra st.last_store_done
            | Overlap_full | Sequential -> ra
        in
        let done_ = issue st Cost.load ~ops_ready in
        m.mem_ops <- m.mem_ops + 1;
        if volatile then st.last_mem_done <- done_;
        load_reg st fr mty (reg_int fr addr) dst ~ready:done_;
        pc := next
    | Store { src; addr; mty; volatile } ->
        let rs = fr.ready.(src) and ra = fr.ready.(addr) in
        let ops_ready =
          (* under full scheduling a store enters the store buffer as soon
             as its address is known; the data is forwarded when ready *)
          if volatile then imax (imax rs ra) st.last_mem_done
          else match st.sched with Overlap_full -> ra | _ -> imax rs ra
        in
        let done_ = issue st Cost.store ~ops_ready in
        m.mem_ops <- m.mem_ops + 1;
        st.last_store_done <- imax st.last_store_done done_;
        if volatile then st.last_mem_done <- done_;
        store_reg st fr mty ~addr:(reg_int fr addr) src;
        pc := next
    | Jump target ->
        issue_branch st ~ops_ready:0;
        pc := if target >= 0 then target else unknown_label df !pc
    | Branch_zero (o, target) ->
        issue_branch st ~ops_ready:fr.ready.(o);
        pc :=
          if reg_true fr o then next
          else if target >= 0 then target
          else unknown_label df !pc
    | Branch_nonzero (o, target) ->
        issue_branch st ~ops_ready:fr.ready.(o);
        pc :=
          if not (reg_true fr o) then next
          else if target >= 0 then target
          else unknown_label df !pc
    | Call { dst; callee; args } ->
        st.clock <- imax st.clock (args_ready fr args) + Cost.call_overhead;
        m.calls <- m.calls + 1;
        let v = call st callee fr args in
        st.clock <- st.clock + Cost.ret_overhead;
        if dst >= 0 then set_value fr dst v ~ready:st.clock;
        pc := next
    | Ret o ->
        if o >= 0 then begin
          st.clock <- imax st.clock fr.ready.(o);
          result := reg_value fr o
        end;
        pc := ncode
    | Vload { dst; base; stride; len; mty } ->
        let n = reg_int fr len in
        let ops_ready =
          let r = imax (imax fr.ready.(base) fr.ready.(stride)) fr.ready.(len) in
          match st.sched with
          | Overlap_conservative -> imax r st.last_store_done
          | Overlap_full | Sequential -> r
        in
        let done_ =
          issue_vector st ~unit_:Cost.MEM ~startup:Cost.vector_startup_mem
            ~len:n ~ops_ready
        in
        m.vector_insts <- m.vector_insts + 1;
        m.vector_elems <- m.vector_elems + n;
        m.mem_ops <- m.mem_ops + n;
        let b = reg_int fr base and s = reg_int fr stride in
        let n = vlen n in
        let d = vreg_for_write fr dst in
        (match mty with
        | M_char ->
            let out = vi_cap d n in
            for i = 0 to n - 1 do
              let a = b + (i * s) in
              check st a 1;
              out.(i) <- sign8 (Char.code (Bytes.get st.mem a))
            done;
            d.fl <- false
        | M_int | M_ptr ->
            let out = vi_cap d n in
            for i = 0 to n - 1 do
              let a = b + (i * s) in
              check st a 4;
              out.(i) <- Int32.to_int (Bytes.get_int32_le st.mem a)
            done;
            d.fl <- false
        | M_float ->
            let out = vf_cap d n in
            for i = 0 to n - 1 do
              let a = b + (i * s) in
              check st a 4;
              out.(i) <- Int32.float_of_bits (Bytes.get_int32_le st.mem a)
            done;
            d.fl <- true
        | M_double ->
            let out = vf_cap d n in
            for i = 0 to n - 1 do
              let a = b + (i * s) in
              check st a 8;
              out.(i) <- Int64.float_of_bits (Bytes.get_int64_le st.mem a)
            done;
            d.fl <- true
        | M_void | M_agg -> if n > 0 then error "bad load type");
        d.n <- n;
        fr.vready.(dst) <- done_;
        pc := next
    | Vstore { src; base; stride; len; mty } ->
        let n = reg_int fr len in
        let ops_ready =
          imax
            (imax (imax fr.ready.(base) fr.ready.(stride)) fr.ready.(len))
            fr.vready.(src)
        in
        let done_ =
          issue_vector st ~unit_:Cost.MEM ~startup:Cost.vector_startup_mem
            ~len:n ~ops_ready
        in
        m.vector_insts <- m.vector_insts + 1;
        m.vector_elems <- m.vector_elems + n;
        m.mem_ops <- m.mem_ops + n;
        st.last_store_done <- imax st.last_store_done done_;
        let b = reg_int fr base and s = reg_int fr stride in
        let r = fr.vregs.(src) in
        if r.n < n then error "vector register shorter than store";
        (match mty with
        | M_float | M_double ->
            for i = 0 to n - 1 do
              let x = if r.fl then r.vf.(i) else float_of_int r.vi.(i) in
              store_float st mty (b + (i * s)) x
            done
        | M_char | M_int | M_ptr ->
            for i = 0 to n - 1 do
              store_int st mty (b + (i * s))
                (if r.fl then float_to_int mty r.vf.(i) else int_to_int mty r.vi.(i))
            done
        | M_void | M_agg -> if n > 0 then bad_store mty);
        pc := next
    | Vop { op; dst; a; b; len; single; flops } ->
        let n = reg_int fr len in
        let ops_ready =
          imax (imax (vsrc_ready fr a) (vsrc_ready fr b)) fr.ready.(len)
        in
        let done_ =
          issue_vector st ~unit_:Cost.FPU ~startup:Cost.vector_startup_fpu
            ~len:n ~ops_ready
        in
        m.vector_insts <- m.vector_insts + 1;
        m.vector_elems <- m.vector_elems + n;
        if flops then m.fp_ops <- m.fp_ops + n;
        let n = vlen n in
        (match op with
        | Isa.Fop fop ->
            let x = float_view st fr 0 a n and y = float_view st fr 1 b n in
            let d = vreg_for_write fr dst in
            if is_compare fop then begin
              let out = vi_cap d n in
              for i = 0 to n - 1 do out.(i) <- fcompare fop x.(i) y.(i) done;
              d.fl <- false
            end
            else begin
              vfarith fop ~single x y (vf_cap d n) n;
              d.fl <- true
            end;
            d.n <- n
        | Isa.Iop iop ->
            let x = int_view st fr 0 a n and y = int_view st fr 1 b n in
            let d = vreg_for_write fr dst in
            let out = vi_cap d n in
            for i = 0 to n - 1 do out.(i) <- eval_ialu iop x.(i) y.(i) done;
            d.fl <- false;
            d.n <- n);
        fr.vready.(dst) <- done_;
        pc := next
    | Vneg { dst; a; len; single; flops } ->
        let n = reg_int fr len in
        let done_ =
          issue_vector st ~unit_:Cost.FPU ~startup:Cost.vector_startup_fpu
            ~len:n ~ops_ready:(imax (vsrc_ready fr a) fr.ready.(len))
        in
        m.vector_insts <- m.vector_insts + 1;
        m.vector_elems <- m.vector_elems + n;
        if flops then m.fp_ops <- m.fp_ops + n;
        let n = vlen n in
        (match a with
        | Vr v ->
            let r = fr.vregs.(v) in
            if r.n < n then short_operand ();
            let d = vreg_for_write fr dst in
            if r.fl then begin
              let x = r.vf in
              let out = vf_cap d n in
              for i = 0 to n - 1 do out.(i) <- -.x.(i) done;
              if single then for i = 0 to n - 1 do out.(i) <- round_sp out.(i) done
            end
            else begin
              let x = r.vi in
              let out = vi_cap d n in
              for i = 0 to n - 1 do out.(i) <- wrap32 (-x.(i)) done
            end;
            d.fl <- r.fl;
            d.n <- n
        | Vscal s ->
            let d = vreg_for_write fr dst in
            if Bytes.get fr.kinds s = k_int then begin
              Array.fill (vi_cap d n) 0 n (wrap32 (-fr.ints.(s)));
              d.fl <- false
            end
            else begin
              let x = -.fr.floats.(s) in
              Array.fill (vf_cap d n) 0 n (if single then round_sp x else x);
              d.fl <- true
            end;
            d.n <- n);
        fr.vready.(dst) <- done_;
        pc := next
    | Viota { dst; offset; scale; len } ->
        let n = reg_int fr len in
        let done_ =
          issue_vector st ~unit_:Cost.FPU ~startup:Cost.viota_startup ~len:n
            ~ops_ready:
              (imax (imax fr.ready.(offset) fr.ready.(scale)) fr.ready.(len))
        in
        m.vector_insts <- m.vector_insts + 1;
        m.vector_elems <- m.vector_elems + n;
        (* iota broadcasts scalars too: scale 0 replicates a float *)
        let s = reg_int fr scale in
        let n = vlen n in
        let d = vreg_for_write fr dst in
        if s = 0 && Bytes.get fr.kinds offset = k_float then begin
          Array.fill (vf_cap d n) 0 n fr.floats.(offset);
          d.fl <- true
        end
        else begin
          let out = vi_cap d n in
          if n > 0 then begin
            let o = reg_int fr offset in
            for i = 0 to n - 1 do out.(i) <- wrap32 (o + (s * i)) done
          end;
          d.fl <- false
        end;
        d.n <- n;
        fr.vready.(dst) <- done_;
        pc := next
    | Vcvt { dst; a; len; to_ } ->
        let n = reg_int fr len in
        let done_ =
          issue_vector st ~unit_:Cost.FPU ~startup:Cost.vector_startup_fpu
            ~len:n ~ops_ready:(imax fr.vready.(a) fr.ready.(len))
        in
        m.vector_insts <- m.vector_insts + 1;
        m.vector_elems <- m.vector_elems + n;
        let n = vlen n in
        (* an element past the source's length converts from 0 *)
        let r = fr.vregs.(a) in
        let sn = r.n and sfl = r.fl and si = r.vi and sf = r.vf in
        let d = vreg_for_write fr dst in
        let to_floats =
          match to_ with M_float | M_double -> true | M_void -> sfl | _ -> false
        in
        (match to_ with
        | M_agg -> if n > 0 then error "bad conversion"
        | _ when to_floats ->
            let out = vf_cap d n in
            for i = 0 to n - 1 do
              out.(i) <-
                (if i >= sn then 0.0 else if sfl then sf.(i) else float_of_int si.(i))
            done;
            if to_ == M_float then
              for i = 0 to n - 1 do out.(i) <- round_sp out.(i) done;
            d.fl <- true
        | _ ->
            let out = vi_cap d n in
            for i = 0 to n - 1 do
              out.(i) <-
                (if i >= sn then 0
                 else if sfl then float_to_int to_ sf.(i)
                 else int_to_int to_ si.(i))
            done;
            d.fl <- false);
        d.n <- n;
        fr.vready.(dst) <- done_;
        pc := next
    | Par_enter ->
        if not st.par_active then begin
          (* a nested region is accounted serially *)
          st.par_active <- true;
          st.par_enter_clock <- st.clock;
          st.par_buckets <- Array.make (max st.config.procs 1) 0;
          st.par_iter <- -1;
          st.par_iter_start <- st.clock;
          st.par_serial_total <- 0;
          m.parallel_regions <- m.parallel_regions + 1
        end;
        pc := next
    | Par_serial_end ->
        (* doacross (§10): the time since this iteration began is the
           serialized pointer-advance part; it accumulates globally *)
        if st.par_active then begin
          st.par_serial_total <-
            st.par_serial_total + (st.clock - st.par_iter_start);
          st.par_iter_start <- st.clock
        end;
        pc := next
    | Par_iter ->
        if st.da_active then begin
          da_finish_iter st;
          st.da_iter <- st.da_iter + 1;
          let p = st.da_iter mod Array.length st.da_proc_done in
          st.da_iter_vstart <- st.da_proc_done.(p);
          st.da_iter_base <- st.clock;
          st.da_stall <- 0
        end
        else if st.par_active then begin
          par_finish_iter st;
          st.par_iter <- st.par_iter + 1;
          st.par_iter_start <- st.clock
        end;
        pc := next
    | Da_enter ->
        if not st.par_active then begin
          (* a nested region is accounted serially *)
          st.par_active <- true;
          st.da_active <- true;
          st.par_enter_clock <- st.clock;
          st.da_proc_done <- Array.make (max st.config.procs 1) 0;
          st.da_iter <- -1;
          st.da_iter_vstart <- 0;
          st.da_iter_base <- st.clock;
          st.da_stall <- 0;
          st.da_posts.rows <- [||];
          st.da_post_pre.rows <- [||];
          m.parallel_regions <- m.parallel_regions + 1
        end;
        pc := next
    | Post chan ->
        m.posts <- m.posts + 1;
        st.clock <- st.clock + Cost.post_cycles;
        if st.da_active then begin
          let now = da_now st in
          posts_set st.da_posts chan st.da_iter now;
          let prev = posts_find st.da_post_pre chan (st.da_iter - 1) in
          posts_set st.da_post_pre chan st.da_iter (imax now prev)
        end;
        pc := next
    | Wait { chan; dist; cum } ->
        m.waits <- m.waits + 1;
        st.clock <- st.clock + Cost.wait_cycles;
        (if st.da_active && st.da_iter >= 0 then begin
           let target = st.da_iter - dist in
           (* iterations below the loop's lower bound count as posted *)
           if target >= 0 then
             let table = if cum then st.da_post_pre else st.da_posts in
             let post_v = posts_find table chan target in
             if post_v <> not_posted then begin
               let stall = post_v - da_now st in
               if stall > 0 then begin
                 st.da_stall <- st.da_stall + stall;
                 m.post_wait_stalls <- m.post_wait_stalls + stall
               end
             end
             else
               error
                 "doacross %swait on c%d in iteration %d: iteration %d \
                  never posted (deadlock)"
                 (if cum then "cumulative " else "")
                 chan st.da_iter target
         end);
        pc := next
    | Par_exit ->
        if st.da_active then begin
          da_finish_iter st;
          let serial_time = st.clock - st.par_enter_clock in
          let par_time =
            Array.fold_left imax 0 st.da_proc_done + Cost.barrier_cycles
          in
          if par_time < serial_time then
            st.saved <- st.saved + (serial_time - par_time);
          st.da_active <- false;
          st.par_active <- false;
          st.da_posts.rows <- [||];
          st.da_post_pre.rows <- [||]
        end
        else if st.par_active then begin
          par_finish_iter st;
          let serial_time = st.clock - st.par_enter_clock in
          let par_time =
            st.par_serial_total
            + Array.fold_left imax 0 st.par_buckets
            + Cost.barrier_cycles
          in
          if par_time < serial_time then
            st.saved <- st.saved + (serial_time - par_time);
          st.par_active <- false
        end;
        pc := next
  done;
  !result

(* ----------------------------------------------------------------- *)
(* Entry points                                                      *)
(* ----------------------------------------------------------------- *)

type run_result = {
  return_value : value;
  stdout_text : string;
  metrics : metrics;
  mflops_rate : float;
}

let rec const_value (e : Expr.t) : value =
  match e.Expr.desc with
  | Expr.Const_int n -> Vi n
  | Expr.Const_float f -> Vf f
  | Expr.Cast (ty, a) -> convert ty (const_value a)
  | Expr.Unop (Expr.Neg, a) -> (
      match const_value a with Vi n -> Vi (-n) | Vf f -> Vf (-.f))
  | _ -> error "non-constant global initializer"

let init_globals st =
  List.iter
    (fun (g : Prog.global) ->
      let addr = Hashtbl.find st.layout.addr_of g.gvar.Var.id in
      let ty = g.gvar.Var.ty in
      match g.Prog.ginit with
      | Prog.Init_none -> ()
      | Prog.Init_scalar e ->
          store_mem st (mty_of ty) addr (convert ty (const_value e))
      | Prog.Init_array es ->
          let elt = match ty with Ty.Array (e, _) -> e | t -> t in
          let esize = Ty.sizeof st.layout.lprog.Prog.structs elt in
          List.iteri
            (fun i e ->
              store_mem st (mty_of elt) (addr + (i * esize))
                (convert elt (const_value e)))
            es
      | Prog.Init_string s ->
          String.iteri (fun i c -> Bytes.set st.mem (addr + i) c) s;
          Bytes.set st.mem (addr + String.length s) '\000')
    (Prog.globals_list st.layout.lprog)

let create_state config collect (layout : layout) : state =
  let stack_base = layout.globals_top + 64 in
  let st =
    {
      collect;
      config;
      sched = config.sched;
      mem = Bytes.make (min mem_size (stack_base + initial_stack)) '\000';
      layout;
      stack_top = stack_base;
      output = Buffer.create 256;
      metrics = new_metrics ();
      clock = 0;
      saved = 0;
      unit_free = Array.make 4 0;
      last_store_done = 0;
      last_mem_done = 0;
      par_buckets = [||];
      par_iter = -1;
      par_iter_start = 0;
      par_enter_clock = 0;
      par_active = false;
      par_serial_total = 0;
      da_active = false;
      da_proc_done = [||];
      da_iter = -1;
      da_iter_vstart = 0;
      da_iter_base = 0;
      da_stall = 0;
      da_posts = { rows = [||] };
      da_post_pre = { rows = [||] };
      fuel = config.max_insts;
      markers = 0;
      issued = 0;
      scratch_f = [| [||]; [||] |];
      scratch_i = [| [||]; [||] |];
    }
  in
  init_globals st;
  st

(* Declare every instrumented site to the collector before execution, so
   a site the run never reaches is recorded as measured-cold (zero
   counts) rather than absent. *)
let declare_sites (c : Vpc_profile.Collect.t) (program : Isa.program) =
  Hashtbl.iter
    (fun _ (f : Isa.func) ->
      Array.iter
        (function
          | Isa.Prof (Isa.Ploop_enter k) -> Vpc_profile.Collect.declare_loop c k
          | Isa.Prof (Isa.Pcall_begin (k, callee)) ->
              Vpc_profile.Collect.declare_call c k ~callee
          | _ -> ())
        f.Isa.code)
    program.Isa.funcs

let sched_name = function
  | Sequential -> "seq"
  | Overlap_conservative -> "conservative"
  | Overlap_full -> "full"

let run ?(config = default_config) ?(entry = "main") ?(args = []) ?collect
    ?(vreuse = false) (prog : Prog.t) : run_result =
  let layout = layout_globals prog in
  let program =
    Codegen.gen_program prog ~vreuse
      ~instrument:(Option.is_some collect)
      ~global_addr:(fun id ->
        match Hashtbl.find_opt layout.addr_of id with
        | Some a -> a
        | None -> error "no address for global %d" id)
  in
  (match collect with Some c -> declare_sites c program | None -> ());
  let lookup = decode program in
  let st = create_state config collect layout in
  (* the entry's arguments, as the registers of a caller frame *)
  let args = Array.of_list args in
  let caller =
    {
      kinds = Bytes.init (Array.length args) (fun i ->
          match args.(i) with Vi _ -> k_int | Vf _ -> k_float);
      ints = Array.map (function Vi n -> n | Vf _ -> 0) args;
      floats = Array.map (function Vf f -> f | Vi _ -> 0.0) args;
      ready = Array.make (Array.length args) 0;
      vregs = [||];
      vready = [||];
    }
  in
  let return_value =
    call st (lookup entry) caller (Array.init (Array.length args) Fun.id)
  in
  let m = st.metrics in
  m.cycles <- st.clock - st.saved;
  m.insts <- config.max_insts - st.fuel - st.markers;
  {
    return_value;
    stdout_text = Buffer.contents st.output;
    metrics = m;
    mflops_rate = mflops m ~clock_mhz:config.clock_mhz;
  }
