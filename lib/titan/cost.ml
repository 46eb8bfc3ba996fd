(* The Titan timing model.  Parameters are calibrated so the machine's
   published character holds: a 16 MHz multi-processor whose pipelined
   floating-point unit needs vector instructions to stay full (§2), where
   a well-scheduled scalar loop runs a few times faster than a naive one
   (§6's 0.5 → 1.9 MFLOPS) and a vectorized, two-processor loop runs an
   order of magnitude faster than scalar code (§9's 12×). *)

type unit_ = IU | FPU | MEM | CTRL

(* issue interval (pipelined units accept one op per cycle), result
   latency *)
type op_cost = { unit_ : unit_; issue : int; latency : int }

let imov = { unit_ = IU; issue = 1; latency = 1 }
let ialu = { unit_ = IU; issue = 1; latency = 1 }
let imul = { unit_ = IU; issue = 2; latency = 5 }
let idiv = { unit_ = IU; issue = 12; latency = 18 }
let falu = { unit_ = FPU; issue = 1; latency = 8 }
let fmul = { unit_ = FPU; issue = 1; latency = 8 }
let fdiv = { unit_ = FPU; issue = 12; latency = 22 }
let fcvt = { unit_ = FPU; issue = 1; latency = 4 }
let load = { unit_ = MEM; issue = 1; latency = 6 }
let store = { unit_ = MEM; issue = 1; latency = 1 }
let branch = { unit_ = CTRL; issue = 1; latency = 2 }

(* vector operations: startup + one element per cycle *)
let vector_startup_mem = 14
let vector_startup_fpu = 8
let viota_startup = 4

(* call/return overhead beyond the callee's own cycles *)
let call_overhead = 16
let ret_overhead = 4

(* synchronization barrier closing a parallel loop *)
let barrier_cycles = 120

let clock_mhz = 16.0

(* ----------------------------------------------------------------- *)
(* Loop-cost estimates for profile-guided decisions                   *)
(* ----------------------------------------------------------------- *)

(* The vectorizer's static heuristics cannot see trip counts; when a
   profile supplies them, these estimates — calibrated against the
   simulator's scheduling models above — let it choose serial vs vector
   vs do-parallel and pick strip lengths.  A [shape] summarizes one loop
   iteration by its operation mix. *)

type sched = Seq | Conservative | Full

let sched_of_name = function
  | "seq" -> Seq
  | "conservative" -> Conservative
  | _ -> Full

type shape = {
  mem_refs : int;  (* loads + stores per iteration *)
  flops : int;     (* floating-point ALU ops per iteration *)
  iops : int;      (* integer ALU ops per iteration *)
}

(* Operation mix of a statement list treated as one loop iteration. *)
let shape_of_stmts (stmts : Vpc_il.Stmt.t list) : shape =
  let open Vpc_il in
  let mem = ref 0 and flops = ref 0 and iops = ref 0 in
  let count_expr e =
    Expr.iter
      (fun (e : Expr.t) ->
        match e.Expr.desc with
        | Expr.Load _ -> incr mem
        | Expr.Binop _ | Expr.Unop _ ->
            if Ty.is_float e.Expr.ty then incr flops else incr iops
        | _ -> ())
      e
  in
  List.iter
    (fun s ->
      Stmt.iter
        (fun (s : Stmt.t) ->
          List.iter count_expr (Stmt.shallow_exprs s);
          match s.Stmt.desc with
          | Stmt.Assign (Stmt.Lmem _, _) -> incr mem (* the store itself *)
          | _ -> ())
        s)
    stmts;
  { mem_refs = !mem; flops = !flops; iops = !iops }

let add_shape a b =
  {
    mem_refs = a.mem_refs + b.mem_refs;
    flops = a.flops + b.flops;
    iops = a.iops + b.iops;
  }

(* Steady-state cycles of one serial scalar iteration, including the
   index increment and loop-closing branch (+2 ops). *)
let scalar_iter_cycles ~sched (s : shape) =
  match sched with
  | Full ->
      (* dataflow-limited: bounded by the single memory port, the FPU,
         and the machine's 4-wide issue floor *)
      let total = s.mem_refs + s.flops + s.iops + 2 in
      max 1 (max s.mem_refs (max s.flops ((total + 3) / 4)))
  | Conservative ->
      (* in-order issue; every load waits on earlier stores *)
      (s.mem_refs * (load.issue + 2)) + s.flops + s.iops + branch.latency
  | Seq ->
      (s.mem_refs * load.latency) + (s.flops * falu.latency) + s.iops
      + branch.latency

let scalar_loop_cycles ~sched (s : shape) ~trips =
  trips * scalar_iter_cycles ~sched s

(* A do-parallel serial-bodied loop: round-robin buckets + barrier. *)
let parallel_scalar_cycles ~sched (s : shape) ~trips ~procs =
  if procs <= 1 then scalar_loop_cycles ~sched s ~trips
  else
    (((trips + procs - 1) / procs) * scalar_iter_cycles ~sched s)
    + barrier_cycles

(* One vector strip of [len] elements.  The vector instructions of a
   strip form a dependence chain through the single memory port and the
   FPU, so their busy times add. *)
let vector_strip_cycles (s : shape) ~len =
  (s.mem_refs * (vector_startup_mem + len))
  + (s.flops * (vector_startup_fpu + len))

(* A whole vectorized loop: short vector (no strip loop) when the trip
   count fits in one strip, otherwise strip-mined, optionally spread
   over processors with a closing barrier. *)
let vector_loop_cycles (s : shape) ~trips ~vlen ~procs ~parallel =
  if trips <= 0 then 0
  else if trips <= vlen then vector_strip_cycles s ~len:trips
  else begin
    let full = trips / vlen and rem = trips mod vlen in
    let strip = vector_strip_cycles s ~len:vlen in
    if (not parallel) || procs <= 1 then
      (full * strip)
      + (if rem > 0 then vector_strip_cycles s ~len:rem else 0)
    else
      let strips = full + if rem > 0 then 1 else 0 in
      (((strips + procs - 1) / procs) * strip) + barrier_cycles
  end

(* Best vector-side cost at a given trip count (serial strips vs spread
   over processors), for the break-even search and reports. *)
let best_vector_cycles (s : shape) ~trips ~vlen ~procs ~parallelize =
  let serial = vector_loop_cycles s ~trips ~vlen ~procs:1 ~parallel:false in
  if parallelize && procs > 1 then
    min serial (vector_loop_cycles s ~trips ~vlen ~procs ~parallel:true)
  else serial

(* ----------------------------------------------------------------- *)
(* Memory-port traffic under vector-register reuse                    *)
(* ----------------------------------------------------------------- *)

(* One vector strip of [len] elements when [resident] of the strip's
   [mem_refs] references stay in vector registers (an accumulator held
   across the enclosing loop counts its load AND its store).  With the
   memory traffic thinned out, the port and the FPU genuinely overlap —
   the strip costs whichever unit is busier, not the sum of both. *)
let strip_port_cycles (s : shape) ~len ~resident =
  let mem = max 0 (s.mem_refs - resident) in
  let mem_busy = mem * (vector_startup_mem + len) in
  let fpu_busy = s.flops * (vector_startup_fpu + len) in
  max 1 (max mem_busy fpu_busy)

(* A vectorized loop of [trips] elements repeated [reps] times (once per
   iteration of an enclosing serial loop) with [resident] references kept
   in registers across all repetitions: each repetition pays only the
   thinned-out port traffic, and the one-time load-before/store-after of
   the resident values is amortized over the repetitions. *)
let reuse_vector_loop_cycles (s : shape) ~trips ~vlen ~resident ~reps =
  if trips <= 0 then 0
  else begin
    let strip len = strip_port_cycles s ~len ~resident in
    let body =
      if trips <= vlen then strip trips
      else
        let full = trips / vlen and rem = trips mod vlen in
        (full * strip vlen) + if rem > 0 then strip rem else 0
    in
    let reps = max 1 reps in
    let edge = resident * 2 * (vector_startup_mem + min trips vlen) in
    body + ((edge + reps - 1) / reps)
  end

(* ----------------------------------------------------------------- *)
(* Doacross pipelining                                                *)
(* ----------------------------------------------------------------- *)

(* The post/wait counter primitives: a post stamps a per-loop iteration
   counter, a wait spins until the producer iteration's stamp appears.
   Both are cheap scalar operations on the shared synchronization RAM. *)
let post_cycles = 4
let wait_cycles = 6

(* One synchronized carried edge of a doacross candidate, summarized for
   the pipeline model: cycle offsets of the post (completion of the source
   statement) and the wait (start of the destination statement) within a
   single iteration, plus the carried distance in iterations. *)
type dedge = { post_offset : int; wait_offset : int; ddist : int }

(* Per-iteration pipeline delay.  Edge (p, w, d) forces iteration i to
   hold its wait point until iteration i-d clears its post point, so the
   iteration-start spacing is at least (p - w + sync cost) / d; the
   round-robin assignment bounds it below by iter/procs (P iterations in
   flight share a processor).  The per-iteration delay of the loop is the
   max over its edges and the processor bound. *)
let doacross_iter_delay ~iter_cycles ~procs (edges : dedge list) =
  let edge_delay (e : dedge) =
    let lag = e.post_offset - e.wait_offset + post_cycles + wait_cycles in
    let d = max 1 e.ddist in
    if lag <= 0 then 0 else (lag + d - 1) / d
  in
  List.fold_left
    (fun acc e -> max acc (edge_delay e))
    ((iter_cycles + max 1 procs - 1) / max 1 procs)
    edges

(* Whole doacross loop: pipeline fill (the first iteration runs in full)
   plus one delay per remaining iteration plus the closing barrier.  Each
   iteration also pays its own post/wait instructions, folded into
   [iter_cycles] here. *)
let doacross_loop_cycles ~sched (s : shape) ~trips ~procs
    (edges : dedge list) =
  if trips <= 0 then 0
  else begin
    let sync = List.length edges * (post_cycles + wait_cycles) in
    let iter = scalar_iter_cycles ~sched s + sync in
    if procs <= 1 then (trips * iter) + barrier_cycles
    else
      let delay = doacross_iter_delay ~iter_cycles:iter ~procs edges in
      iter + ((trips - 1) * delay) + barrier_cycles
  end

(* ----------------------------------------------------------------- *)
(* Nest-traversal estimates for loop restructuring                    *)
(* ----------------------------------------------------------------- *)

(* Trip count assumed when neither the bounds nor a profile reveal one:
   restructuring decisions then favor the moderately-long loops the
   Titan was built for. *)
let default_trip = 64

(* Control overhead of entering a counted loop once: index and limit
   setup plus the initial test — paid again on every iteration of the
   enclosing loop, which is what makes deep nests with tiny inner trips
   expensive and fusion profitable. *)
let loop_overhead_cycles = 4

(* The Titan's interleaved memory banks reward small strides; the
   simulator's port model does not time this, so the penalty is kept at
   one cycle per wide-strided reference — enough to break ties between
   otherwise equal loop orders toward stride-1 innermost access, never
   enough to override a vectorizability difference. *)
let strided_mem_penalty ~bytes = if bytes >= -8 && bytes <= 8 then 0 else 1

(* Whole-nest cycles under one loop order: the innermost loop (vector or
   scalar, [vectorizable] says which) runs once per combination of outer
   iterations, each level's entry overhead is paid per enclosing
   iteration, and each inner iteration pays the stride penalty of its
   memory references ([inner_strides], bytes per innermost iteration). *)
let nest_order_cycles ~sched ?(pgo_gates = false) (s : shape)
    ~(trips : int array) ~vlen ~procs ~parallelize ~vectorizable
    ~(inner_strides : int list) =
  let depth = Array.length trips in
  let outer = ref 1 in
  for k = 0 to depth - 2 do
    outer := !outer * max 0 trips.(k)
  done;
  let outer = !outer in
  let inner = max 0 trips.(depth - 1) in
  let inner_cost =
    if vectorizable then begin
      let vc = best_vector_cycles s ~trips:inner ~vlen ~procs ~parallelize in
      (* Under profile-guided compilation a vectorizable innermost loop
         is an option, not an obligation: the vectorizer's PGO gate keeps
         it scalar when that is cheaper, so price the order at the better
         of the two.  Without the [min], an order whose vector form loses
         to scalar code is charged the vector cost and a better-strided
         order can lose the comparison outright — the matmul ijk/ikj tie
         then never reaches the stride tie-break at low processor
         counts.  Without a profile the static vectorizer vectorizes
         unconditionally, so the vector price stands. *)
      if pgo_gates then min vc (scalar_loop_cycles ~sched s ~trips:inner)
      else vc
    end
    else scalar_loop_cycles ~sched s ~trips:inner
  in
  let rec overhead k enclosing =
    if k >= depth then 0
    else
      (enclosing * loop_overhead_cycles)
      + overhead (k + 1) (enclosing * max 0 trips.(k))
  in
  let stride_pen =
    List.fold_left (fun acc st -> acc + strided_mem_penalty ~bytes:st) 0
      inner_strides
  in
  (outer * inner_cost) + overhead 0 1 + (outer * inner * stride_pen)

(* Smallest trip count at which the vector form beats scalar code, or
   [None] if it never does (within a generous horizon).  Under the full
   scheduling model a single processor's scalar loop is memory-port
   bound just like the vector unit, so vectorization only pays once
   barrier and startup costs amortize across processors. *)
let vector_break_even ~sched (s : shape) ~vlen ~procs ~parallelize =
  let beats t =
    best_vector_cycles s ~trips:t ~vlen ~procs ~parallelize
    < scalar_loop_cycles ~sched s ~trips:t
  in
  let rec scan t = if t > 65536 then None else if beats t then Some t else scan (t + 1) in
  scan 1
