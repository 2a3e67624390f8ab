(** The concrete EIR runtime: failure detection, a coarse-chunk jittered
    thread scheduler, and tracing hooks.

    Two engines implement one semantics.  {!run} is the production path:
    it delegates to {!Vm_state}, whose compiled units — one compilation
    per program and set of installed hooks — run plain, recorded and
    replayed executions alike, with all run state behind a resumable
    value.  {!run_reference} is the tree-walking reference engine kept
    in this module; the differential suite in test/test_lower.ml
    enforces their bit-for-bit agreement on every observable (every
    hook call with its arguments, failure reports, outputs, metric
    totals).  The untimed offline analyses run on the reference engine
    through {!run_observed}, whose callbacks the production engine does
    not have.

    The hook, config and result types are defined in {!Vm_state} and
    re-exported here, so callers write [Interp.run] and
    [Interp.default_config]; the retirement counters and evaluation
    helpers both engines share live in {!Vm_state} only. *)

open Er_ir.Types

(** {1 Hooks and configuration} *)

type hooks = Vm_state.hooks = {
  on_branch : (bool -> unit) option;
  on_switch : (tid:int -> clock:int -> unit) option;
  on_ptwrite : (int64 -> unit) option;
  on_input : (stream:string -> value:int64 -> unit) option;
  on_store :
    (obj:int -> index:int -> old_value:int64 -> new_value:int64 -> unit) option;
  on_alloc : (int64 -> unit) option;
}

val no_hooks : hooks

(** Run two hook sets side by side (first argument first). *)
val compose_hooks : hooks -> hooks -> hooks

type config = Vm_state.config = {
  max_instrs : int;
  max_call_depth : int;
  quantum : int;
  quantum_jitter : int;
  sched_seed : int;
  hooks : hooks;
}

val default_config : config

(** {1 Results} *)

type outcome = Vm_state.outcome =
  | Finished of int64 option
  | Failed of Failure.t

type run_result = Vm_state.run_result = {
  outcome : outcome;
  instr_count : int;
  branch_count : int;
  outputs : int64 list;
  peak_mem_cells : int;
  final_mem : Memory.t;
}

(** {1 Execution} *)

(** The production engine: compiled units from the code cache, with
    the configured hooks compiled in; resumable state ({!Vm_state}). *)
val run : ?config:config -> Er_ir.Prog.t -> Inputs.t -> run_result

(** The tree-walking reference engine. *)
val run_reference : ?config:config -> Er_ir.Prog.t -> Inputs.t -> run_result

(** The offline analyses' callbacks: every register definition with its
    value (REPT's ground truth) and every function entry and return (the
    Daikon case study).  Only the reference engine fires them. *)
type observer = {
  on_def : (point -> reg:string -> value:int64 -> unit) option;
  on_enter : (func:string -> args:int64 list -> unit) option;
  on_ret : (func:string -> value:int64 option -> unit) option;
}

val no_observer : observer

(** {!run_reference} firing the observer's callbacks as well as the
    configured hooks. *)
val run_observed :
  ?config:config -> observer -> Er_ir.Prog.t -> Inputs.t -> run_result
