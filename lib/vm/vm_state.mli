(** The resumable production engine: every piece of mutable run state of
    the lowered interpreter — threads, frames, scheduler cursor, the
    copy-on-write store, input cursors — behind one value, with
    {!snapshot} / {!revert} and mid-run pauses at quantum boundaries.

    [Interp.run] delegates here ({!run_program}); the incremental ER
    pipeline instead holds a long-lived [t], pauses it at checkpoint
    intervals, and reverts to the deepest checkpoint still valid for the
    next iteration's recording-point set.

    One compiled engine runs every configuration.  Each block compiles
    to closure units — singletons, fused superinstructions, whole-block
    chains — once per lowered program and per set of installed hooks,
    and the units call those hooks themselves, at the reference
    engine's points and in its order.  Plain, recorded (ER, rr) and
    replayed ([Verify]) runs therefore share one dispatch path;
    [Interp.run_reference] is the oracle it is tested against.

    Recording points are applied as a {!plan} over the base program
    rather than by rewriting it with ptwrite instructions.  The plan is
    a compile-time input of the threaded code: its marked blocks compile
    with a virtual ptwrite (clock-free, like an instrumented [Ptwrite])
    after each marked instruction, inside the fused units and whole-block
    chains, and its unmarked blocks share the plain code.  A mark fires
    inline unless the instruction ends the thread's budget or is a call;
    then it waits on the frame and fires before the frame's next step.
    The executed program is therefore constant across iterations and
    checkpoints never need remapping when the point set changes. *)

open Er_ir.Types

(** {1 Retirement metrics} *)

val m_i_alu : Er_metrics.counter
val m_i_load : Er_metrics.counter
val m_i_store : Er_metrics.counter
val m_i_mem : Er_metrics.counter
val m_i_call : Er_metrics.counter
val m_i_io : Er_metrics.counter
val m_i_sync : Er_metrics.counter
val m_i_branch : Er_metrics.counter
val m_i_other : Er_metrics.counter
val m_loads : Er_metrics.counter
val m_stores : Er_metrics.counter
val m_branches : Er_metrics.counter
val m_switches : Er_metrics.counter

(** The thirteen VM counters above, in a fixed order. *)
val vm_counters : Er_metrics.counter list

(** Hottest lowered blocks by retirement count ([er_vm_top_block_retired]). *)
val m_top_blocks : Er_metrics.top

(** Hottest adjacent opcode pairs, weighted by block retirements
    ([er_vm_top_opcode_pair]) — the mining input for the committed
    superinstruction set in {!Er_ir.Fuse.default_pairs}. *)
val m_top_pairs : Er_metrics.top

val count_instr : instr -> unit
val count_term : terminator -> unit

(** {1 Hooks and configuration} *)

type hooks = {
  on_branch : (bool -> unit) option;
  on_switch : (tid:int -> clock:int -> unit) option;
  on_ptwrite : (int64 -> unit) option;
  on_input : (stream:string -> value:int64 -> unit) option;
  on_store :
    (obj:int -> index:int -> old_value:int64 -> new_value:int64 -> unit) option;
  on_alloc : (int64 -> unit) option;
  on_def : (point -> reg:string -> value:int64 -> unit) option;
  on_enter : (func:string -> args:int64 list -> unit) option;
  on_ret : (func:string -> value:int64 option -> unit) option;
}

val no_hooks : hooks

(** ER's production recording into an encoder: branch outcomes, thread
    switches, traced data values and allocation sizes. *)
val recording_hooks : Er_trace.Encoder.t -> hooks

(** Run two hook sets side by side (first argument first). *)
val compose_hooks : hooks -> hooks -> hooks

type config = {
  max_instrs : int;
  max_call_depth : int;
  quantum : int;
  quantum_jitter : int;
  sched_seed : int;
  hooks : hooks;
}

val default_config : config

type outcome = Finished of int64 option | Failed of Failure.t

type run_result = {
  outcome : outcome;
  instr_count : int;
  branch_count : int;
  outputs : int64 list;
  peak_mem_cells : int;
  final_mem : Memory.t;
}

type tstatus = Runnable | Blocked_lock of int64 | Waiting_join | Done_t

(** Outcome of stepping one thread by one instruction.  [Stepped_free]
    executes without advancing the clock: ptwrite is hardware tracing
    work, not program work, so instrumentation must not perturb the
    schedule. *)
type step =
  | Stepped
  | Stepped_free
  | Blocked
  | Thread_done
  | Program_done of int64 option

exception Crash of Failure.kind

(** {1 Shared evaluation helpers}

    Used by the reference engine too, so both engines provably share one
    semantics. *)

val norm : ty -> int64 -> int64
val smt_binop : binop -> Er_smt.Expr.binop
val eval_cmp : cmpop -> int -> int64 -> int64 -> bool
val chunk_quantum : config -> int -> int
val alloc_global_mem : Memory.t -> global -> int64

(** {1 Recording plans} *)

(** Marks instructions of the base program for virtual ptwrite recording
    — the plan-mode equivalent of [Instrument.apply].  Points that
    define no register, or that name unknown functions/blocks/indices,
    are skipped (exactly the points [Instrument.apply] would not
    instrument). *)
type plan

val empty_plan : Er_ir.Lower.t -> plan
val plan_of_points : Er_ir.Lower.t -> point list -> plan

(** Whether the program can ever create a second thread.  Spawn-free
    programs are scheduler-seed-independent, so their checkpoints stay
    valid across occurrences that differ only in [sched_seed]. *)
val has_spawn : Er_ir.Lower.t -> bool

(** {1 Construction and running} *)

type t

(** [create ?config ?plan prog inputs] readies a run from clock 0.
    Passing [~plan] (even an empty one) enables plan-driven recording
    and first-execution tracking; without it the engine behaves exactly
    like the classic lowered interpreter on the given program.  The
    plan's marked blocks are compiled for the config's hook set on first
    use and memoized in the plan.  Raises [Invalid_argument] if the plan
    was built for another lowered program. *)
val create : ?config:config -> ?plan:plan -> Er_ir.Prog.t -> Inputs.t -> t

(** Replace the recording plan (between runs or after a revert) by
    swapping in its compiled code.  A mark already waiting on a frame
    still fires.  Raises [Invalid_argument] if the state was created
    without a plan, or if the plan was built for another program. *)
val set_plan : t -> plan -> unit

(** Run until the program finishes, or — with [~pause_at:c] — until the
    first quantum boundary at clock >= [c] ([None] = paused, call again
    to continue).  Pausing commutes with execution: an uninterrupted run
    and one paused and resumed any number of times perform the identical
    step sequence.  Once finished, returns the same result again. *)
val run : ?pause_at:int -> t -> run_result option

(** [run] with no pause: always completes. *)
val run_to_end : t -> run_result

(** Fresh state run straight to the end — the classic [Interp.run]. *)
val run_program : ?config:config -> Er_ir.Prog.t -> Inputs.t -> run_result

(** {1 Snapshot / revert} *)

type checkpoint

val clock_of_checkpoint : checkpoint -> int

(** Capture the full run state: registers and frames by copy, memory as
    a CoW page-table snapshot, input cursors, scheduler position.  Valid
    between quanta (before the first [run], or after a paused or
    finished one).  Any number of checkpoints may be live at once; each
    survives repeated reverts. *)
val snapshot : t -> checkpoint

(** Restore the state captured by {!snapshot}.  Process-registry metric
    counters are shared with everything else that ran since, so winding
    them back is opt-in ([~restore_metrics:true]); the ER pipeline
    leaves them monotone. *)
val revert : ?restore_metrics:bool -> t -> checkpoint -> unit

(** Swap in another workload's stream contents while keeping the current
    cursors: how a resumed prefix continues under the next occurrence's
    inputs.  Only sound when [Inputs.prefix_ok] held. *)
val swap_inputs : t -> Inputs.t -> unit

(** {1 Checkpoint-validity queries} *)

(** Clock at which the point's block first became current, [None] if it
    never did.  A checkpoint at clock [c] stays valid when a new
    recording point lands in a block iff [c] <= that block's first-exec
    clock (or the block never ran). *)
val first_exec_clock : t -> point -> int option

(** True when the program is statically spawn-free, making checkpoints
    reusable across runs that differ only in [sched_seed]. *)
val seed_independent : t -> bool

(** Would the run up to the checkpoint have consumed identical values
    under [fresh]'s streams?  ([Inputs.prefix_ok] against the state's
    current streams — the run the checkpoint was taken from.) *)
val inputs_prefix_ok : t -> checkpoint -> fresh:Inputs.t -> bool

(** {1 Inspection} *)

val clock : t -> int
val branches : t -> int
val result : t -> run_result option
val memory : t -> Memory.t
val inputs : t -> Inputs.t
val outputs_so_far : t -> int64 list
val lowered : t -> Er_ir.Lower.t

(** This state's adjacent opcode-pair retirement counts (every adjacent
    pair of a block, terminator included, weighted by the block's
    retirement count), hottest first; ties broken by key for
    deterministic output.  Counts accumulate only while metrics are
    enabled, like the block profile they derive from. *)
val opcode_pair_profile : t -> (string * int) list

type frame_view = {
  fv_func : string;
  fv_block : string;
  fv_ip : int;
  fv_regs : (string * int64) list;   (** defined registers, slot order *)
  fv_pending : string option;        (** register with a pending ptwrite *)
}

type thread_view = {
  tv_tid : int;
  tv_status : tstatus;
  tv_frames : frame_view list;       (** innermost first *)
}

val threads : t -> thread_view list
