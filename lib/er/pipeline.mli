(** The staged ER pipeline (paper Fig. 2, section 3.3.4).

    Four stages per failure occurrence — TRACER (instrumented production
    run), SHEPHERD (trace-guided symbolic execution), SELECTOR (key data
    value selection at a stall), VERIFIER (concrete re-execution of the
    generated test case) — folded over occurrences until the failure is
    reproduced or a budget runs out.  Each stage is a first-class module
    so alternative implementations can be swapped in via {!Make}; every
    stage reports through the typed {!Events} bus and per-iteration
    accounting is derived from that stream.

    Entry points: callers construct a {!Job.request} and let a scheduler
    drive it, or call {!run} directly (what {!Job.execute} does under
    the hood).  The fold state, coordinate-mapping helpers and stage
    metrics are private. *)

open Er_ir.Types

type config = {
  max_occurrences : int;       (** bound on production runs consumed *)
  exec_config : Er_symex.Exec.config;
  ring_bytes : int;            (** trace ring buffer size *)
  incremental : bool;          (** resume runs from CoW checkpoints *)
}
(** Every production run, traced or replayed by the verifier, runs under
    [Er_vm.Interp.default_config] with the occurrence's scheduler seed,
    and every reproduced test case is verified. *)

val default_config : config

type workload = occurrence:int -> Er_vm.Inputs.t * int
(** Produces the inputs (and scheduler seed) of the k-th occurrence of
    the failure in production. *)

(** {1 Stage interfaces} *)

(** What the tracer ships to the analysis engine: the decoded trace
    snapshot plus the failure context of the run that produced it. *)
type capture = {
  cap_bytes : int;                       (** raw snapshot size *)
  cap_packets : int;
  cap_ptwrites : int;
  cap_switches : int;
  cap_vm_instrs : int;
  cap_overwritten : int;                 (** ring bytes lost to wrap-around *)
  cap_split : Er_trace.Decoder.split;
  cap_failure : Er_vm.Failure.t;         (** instrumented coordinates *)
  cap_base_failure : Er_vm.Failure.t;    (** base-program coordinates *)
  cap_failure_clock : int;
  cap_sched_seed : int;
}

type trace_outcome =
  | Captured of capture
  | No_failure                 (** the run finished without the failure *)
  | Different_failure          (** an unrelated bug fired; keep waiting *)
  | Decode_failed of string    (** snapshot shipped but unusable *)

(** Checkpoint accounting of a whole reconstruction. *)
type ckpt_stats = {
  ck_taken : int;              (** checkpoints captured *)
  ck_resumes : int;            (** production runs resumed from one *)
  ck_saved_instrs : int;       (** shared-prefix instructions not re-executed *)
  ck_executed_instrs : int;    (** instructions the tracer actually executed *)
}

module type TRACER = sig
  type session

  val start : config:config -> base_prog:Er_ir.Prog.t -> session

  val capture :
    session:session ->
    config:config ->
    points:point list ->
    forward:(point -> point) ->
    tracked:Er_vm.Failure.t option ->
    inputs:Er_vm.Inputs.t ->
    sched_seed:int ->
    trace_outcome * int option

  val stats : session -> ckpt_stats
end

module type SHEPHERD = sig
  val analyze :
    config:Er_symex.Exec.config ->
    prog:Er_ir.Prog.t ->
    capture:capture ->
    Er_symex.Exec.result
end

(** The selector's answer: which base-program points to instrument next,
    plus the bottleneck statistics that justified the choice. *)
type selection = {
  sel_points : point list;       (** new points only — deduped vs existing *)
  sel_longest_chain : int;
  sel_largest_object_bytes : int;
}

module type SELECTOR = sig
  val select :
    stall:Er_symex.Exec.stall_info ->
    mapper:Er_select.Instrument.mapper ->
    existing:point list ->
    selection
end

module type VERIFIER = sig
  val verify :
    solution:Er_symex.Exec.solution option ->
    base_prog:Er_ir.Prog.t ->
    testcase:Testcase.t ->
    expected_failure:Er_vm.Failure.t ->
    expected_branches:bool array ->
    sched_seed:int ->
    Verify.verdict
end

module Default_tracer : TRACER
module Default_shepherd : SHEPHERD
module Default_selector : SELECTOR
module Default_verifier : VERIFIER

(** {1 Results} *)

type iteration = {
  occurrence : int;
  trace_bytes : int;
  trace_packets : int;
  ptwrites_recorded : int;
  vm_instrs : int;
  ring_overwritten : int;      (** trace bytes lost to ring wrap-around *)
  trace_time : float;          (** tracer stage wall clock *)
  symex_steps : int;
  symex_time : float;          (** shepherd stage wall clock *)
  solver_calls : int;
  solver_cost : int;
  cache_hits : int;            (** solver result-cache hits of this run *)
  cache_misses : int;
  outcome : Outcome.step;
  recording_set_size : int;    (** accumulated points after this iteration *)
  graph_nodes : int;           (** constraint graph size at stall/finish *)
  selection_time : float;      (** selector stage wall clock *)
  verify_time : float;         (** verifier stage wall clock *)
}

type status =
  | Reproduced of {
      testcase : Testcase.t;
      verified : Verify.verdict option;
      solution : Er_symex.Exec.solution;
    }
  | Gave_up of Outcome.give_up

type result = {
  status : status;
  iterations : iteration list;
  occurrences : int;           (** failure occurrences ER analyzed *)
  runs : int;                  (** production runs consumed, incl. skipped *)
  total_symex_time : float;
  recording_points : point list;  (** base-program coordinates *)
  failure : Er_vm.Failure.t option;
  ckpt : ckpt_stats;           (** tracer checkpoint/resume accounting *)
  events : Events.event list;  (** the full buffered event stream *)
}

val iterations_of_events : Events.event list -> iteration list
(** Per-iteration accounting as a pure function of the event stream —
    whatever a sink saw is, by construction, the same data the result
    reports. *)

(** {1 Running} *)

module Make (_ : TRACER) (_ : SHEPHERD) (_ : SELECTOR) (_ : VERIFIER) : sig
  val run :
    ?config:config ->
    ?events:Events.sink ->
    ?should_stop:(unit -> bool) ->
    base_prog:program ->
    workload:workload ->
    unit ->
    result
end

val run :
  ?config:config ->
  ?events:Events.sink ->
  ?should_stop:(unit -> bool) ->
  base_prog:program ->
  workload:workload ->
  unit ->
  result
(** The staged pipeline with the paper's stage implementations.
    [should_stop] is polled at each occurrence boundary; when it turns
    true the fold finishes with status [Gave_up Cancelled] and whatever
    partial accounting it has ({!Job.cancel} wires this). *)

(** {1 Machine-readable rendering} *)

val iteration_to_json : iteration -> Json.t
val result_to_json_value : result -> Json.t
val result_to_json : result -> string
