(** Shepherded symbolic execution (paper section 3.2).

    The executor replays a decoded runtime trace over an (instrumented)
    EIR program: conditional branches consume TNT bits and assert the
    branch condition's recorded outcome; [ptwrite] instructions consume
    PTW values and concretize the instrumented register; thread chunks
    follow the recorded TIP/MTC schedule; allocation sizes are bound to
    their traced values.  No forking happens — the recorded control flow
    eliminates path explosion by construction.

    The solver is invoked at symbolic memory accesses and at the final
    failure state; a budget-exhausted query is a {e stall}, returned
    together with the constraint graph for key data value selection. *)

type config = {
  solver_budget : int;        (** SAT work budget per query *)
  gate_budget : int;          (** bit-blasting budget for the whole run *)
}

val default_config : config

type stall_info = {
  graph : Cgraph.t;           (** constraint graph at stall time *)
  memory : Symmem.t;          (** symbolic memory with its write chains *)
  stalled_at : Er_ir.Types.point;
  stall_reason : string;
}

type solution = {
  model : Er_smt.Model.t;
  input_log : (string * Er_smt.Expr.t) list;
      (** input reads in consumption order: (stream, symbolic variable) *)
  path_constraints : Er_smt.Expr.t list;
}

type outcome =
  | Complete of solution
  | Stalled of stall_info
  | Diverged of string

type progress_sample = { ps_steps : int; ps_solver_cost : int }

type result = {
  outcome : outcome;
  steps : int;
  solver_calls : int;
  solver_cost : int;
      (** deterministic: gates + propagations actually charged — with the
          incremental session this is the marginal work per query, not a
          re-solve of the whole prefix *)
  cache_hits : int;           (** solver result-cache hits of this run *)
  cache_misses : int;
  progress : progress_sample list;
}

(** [run prog ~trace ~failure ~failure_clock] shepherds symbolic
    execution along [trace] until the instruction at [failure_clock]
    (which must match [failure]'s program point), then solves for
    failure-inducing inputs.

    [run] dispatches over the pre-lowered code cache
    ({!Er_ir.Lower}); {!run_reference} interprets the raw IR with
    string-keyed register files.  The two engines share one run loop
    (state, schedule, failure clock, final solve, metrics), every
    instruction's symbolic semantics, the failure constraints and
    call/return/spawn; they differ only in their frames, operand
    evaluation, register writes, and block and callee resolution.  Both
    produce identical outcomes, path constraints, and (deterministic)
    solver costs — the differential suite pins this down on the corpus
    and on generated programs.

    Before shepherding, [run] replays a spawn-free program's input-free
    prefix of at least {!min_prefix} instructions on the compiled VM,
    checking it against the trace, and starts from the VM's state; the
    prefix adds no path constraint, provenance or solver query.
    [steps] still counts the replayed instructions.  Seeded memory holds
    each object's current contents rather than its write history, and
    constants the prefix computed are interned later, so a term built
    after the prefix can differ from the reference's (a read at an
    input-derived index, an equality's operand order) while meaning the
    same; a trace the VM does not follow shepherds from clock 0.

    Each run owns one solver session; both engines release it when
    they return ({!Er_smt.Solver.Session.release}), so the next run on
    the domain reuses its SAT storage. *)
val run :
  ?config:config ->
  Er_ir.Prog.t ->
  trace:Er_trace.Decoder.split ->
  failure:Er_vm.Failure.t ->
  failure_clock:int ->
  result

(** The shortest input-free prefix {!run} replays on the compiled VM
    before shepherding (1,000 instructions, the tracer's checkpoint
    interval).  Shorter prefixes, and spawning programs, shepherd from
    clock 0. *)
val min_prefix : int

(** The retained reference engine: the oracle of the differential
    tests. *)
val run_reference :
  ?config:config ->
  Er_ir.Prog.t ->
  trace:Er_trace.Decoder.split ->
  failure:Er_vm.Failure.t ->
  failure_clock:int ->
  result
