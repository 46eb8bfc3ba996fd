(** The Titan timing model.  Parameters were calibrated once against the
    paper's two published backsolve rates (§6: 0.5 and 1.9 MFLOPS) and
    then left alone; every experiment uses this single model. *)

type unit_ = IU | FPU | MEM | CTRL

(** Per-operation cost: the execution unit, the issue interval (pipelined
    units accept one per cycle), and the result latency. *)
type op_cost = { unit_ : unit_; issue : int; latency : int }

val imov : op_cost
val ialu : op_cost
val imul : op_cost
val idiv : op_cost
val falu : op_cost
val fmul : op_cost
val fdiv : op_cost
val fcvt : op_cost
val load : op_cost
val store : op_cost
val branch : op_cost

(** Vector operations cost startup + one element per cycle. *)
val vector_startup_mem : int

val vector_startup_fpu : int
val viota_startup : int

(** Call/return overhead beyond the callee's own cycles. *)
val call_overhead : int

val ret_overhead : int

(** Synchronization closing a parallel loop. *)
val barrier_cycles : int

(** The Titan clock: 16 MHz. *)
val clock_mhz : float

(** {2 Loop-cost estimates for profile-guided decisions}

    Calibrated against the simulator's scheduling models: the vectorizer
    consults these with measured trip counts to choose serial vs vector
    vs do-parallel code and to pick strip lengths. *)

type sched = Seq | Conservative | Full

(** Of a {!Machine.sched_name}-style name; unknown names mean [Full]. *)
val sched_of_name : string -> sched

(** One loop iteration summarized by its operation mix. *)
type shape = { mem_refs : int; flops : int; iops : int }

(** Operation mix of a statement list treated as one loop iteration. *)
val shape_of_stmts : Vpc_il.Stmt.t list -> shape

val add_shape : shape -> shape -> shape

val scalar_loop_cycles : sched:sched -> shape -> trips:int -> int

(** A do-parallel loop with a serial body: round-robin buckets plus the
    closing barrier. *)
val parallel_scalar_cycles :
  sched:sched -> shape -> trips:int -> procs:int -> int

(** A whole vectorized loop: short vector when [trips <= vlen],
    otherwise strip-mined, optionally spread over processors. *)
val vector_loop_cycles :
  shape -> trips:int -> vlen:int -> procs:int -> parallel:bool -> int

(** Smallest trip count at which vector code beats scalar code, [None]
    if it never does within a generous horizon. *)
val vector_break_even :
  sched:sched -> shape -> vlen:int -> procs:int -> parallelize:bool -> int option

(** {2 Memory-port traffic under vector-register reuse} *)

(** One vector strip of [len] elements when [resident] of its [mem_refs]
    references stay in vector registers: the remaining port traffic
    overlaps with FPU work, so the strip costs the busier unit, not the
    sum. *)
val strip_port_cycles : shape -> len:int -> resident:int -> int

(** A vectorized loop of [trips] elements repeated [reps] times with
    [resident] references held in registers across all repetitions; the
    one-time load/store of the resident values is amortized over
    [reps]. *)
val reuse_vector_loop_cycles :
  shape -> trips:int -> vlen:int -> resident:int -> reps:int -> int

(** {2 Doacross pipelining} *)

(** Cycles a post / a wait instruction charges the issuing iteration. *)
val post_cycles : int

val wait_cycles : int

(** One synchronized carried edge, summarized for the pipeline model:
    cycle offsets of the post (source-statement completion) and the wait
    (destination-statement start) within a single iteration, plus the
    carried distance in iterations. *)
type dedge = { post_offset : int; wait_offset : int; ddist : int }

(** Whole doacross loop: pipeline fill + one delay per remaining
    iteration + the closing barrier; each iteration also pays its
    post/wait instructions. *)
val doacross_loop_cycles :
  sched:sched -> shape -> trips:int -> procs:int -> dedge list -> int

(** {2 Nest-traversal estimates for loop restructuring} *)

(** Trip count assumed when neither bounds nor a profile reveal one. *)
val default_trip : int

(** Whole-nest cycles under one loop order: the innermost loop (vector
    when [vectorizable], else scalar) runs once per combination of
    outer iterations ([trips], outermost first), plus per-level entry
    overhead and the stride penalties of [inner_strides].  With
    [pgo_gates] (a measured profile gates vectorization), a
    vectorizable inner level is priced at the cheaper of its vector and
    scalar forms, letting stride penalties break otherwise-equal
    orders. *)
val nest_order_cycles :
  sched:sched ->
  ?pgo_gates:bool ->
  shape ->
  trips:int array ->
  vlen:int ->
  procs:int ->
  parallelize:bool ->
  vectorizable:bool ->
  inner_strides:int list ->
  int
