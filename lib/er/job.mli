(** First-class reconstruction jobs.

    The job API is the single entry point every execution mode consumes:
    one-shot ([er_cli reproduce]), batch ({!Fleet}) and daemon
    ({!Server}).  A {!request} bundles what to reconstruct with who asked
    and under which budgets; {!create} yields a handle that any domain
    can [status]/[poll]/[cancel]/[await] while an executor drives it with
    {!execute}.  {!Pipeline.run} stays the library call for a single
    reconstruction in a process that runs nothing else. *)

module Config : sig
  (** The serializable reconstruction knobs, flattened into one record:
      the occurrence bound, the symbolic executor's budgets and the
      solver store.  No VM limit is a knob: the traced run and its
      verifying replay share [Er_vm.Interp.default_config]. *)
  type t = {
    max_occurrences : int;       (** bound on production runs consumed *)
    solver_budget : int;         (** SAT work budget per query *)
    gate_budget : int;           (** bit-blasting budget for the run *)
    cache_dir : string option;
        (** directory of the persistent solver-knowledge store; [None]
            disables persistence *)
  }

  val default : t
  (** [of_pipeline Pipeline.default_config]. *)

  val of_pipeline : Pipeline.config -> t

  val to_pipeline : t -> Pipeline.config
  (** Right inverse of {!of_pipeline} on the serializable fields; the
      rest comes from {!Pipeline.default_config}. *)

  val to_json_value : t -> Json.t
  val to_json : t -> string

  val of_json_value : ?base:t -> Json.t -> (t, string) result
  (** Decode an object over [base] (default {!default}): present fields
      override, absent fields keep [base]'s value.  An unknown key, a
      mistyped value or a non-object rejects the whole document; the
      error names the first offending key.  A full {!to_json_value}
      image round-trips exactly. *)

  val of_json : ?base:t -> string -> (t, string) result

  val fingerprint : t -> string
  (** Digest basis for the persistent solver store: the config's JSON
      with [cache_dir] blanked — every knob that could alter the solver
      query sequence, and nothing else. *)
end

type source = {
  src_name : string;
  src_prog : Er_ir.Types.program;
  src_workload : Pipeline.workload;
}
(** What to reconstruct: a base program plus the workload producing the
    inputs of each failure occurrence. *)

type work =
  | Reconstruct of source
      (** first-class form: the pipeline runs under the request's
          config with cooperative cancellation *)
  | Thunk of { name : string; run : unit -> Pipeline.result }
      (** opaque-body form: a pre-bound body (say, a {!Pipeline.Make}
          instance with instrumented stages) that binds its own budgets,
          so only the config's [cache_dir] applies; cancellable only
          while still queued *)

type request = {
  tenant : string;  (** fair-queueing identity *)
  work : work;
  config : Config.t;
}

type outcome =
  | Finished of Pipeline.result
  | Crashed of { exn : string; backtrace : string }
      (** the job raised; isolated to the job, not the executor *)
  | Cancelled of Pipeline.result option
      (** [Some r]: cancelled mid-run at an occurrence boundary with
          partial result [r] (status [Gave_up Cancelled]); [None]:
          cancelled while still queued *)

type t
(** A job handle.  Thread-safe: all operations may be called from any
    domain. *)

val create : ?events:Events.sink -> request -> t

val id : t -> int
(** Process-unique job id. *)

val request : t -> request
val name : t -> string
val tenant : t -> string

type status = [ `Queued | `Running | `Done | `Crashed | `Cancelled ]

val status : t -> status
val status_to_string : status -> string

val poll : t -> outcome option
(** [None] while queued or running. *)

val await : t -> outcome
(** Block until the job completes. *)

val cancel : t -> bool
(** Best-effort cancellation.  A queued job completes immediately as
    [Cancelled None]; a running job stops at the next occurrence
    boundary with a partial result.  [false] iff already completed. *)

val worker : t -> int option
(** Index of the worker that executed (or is executing) the job. *)

val wall : t -> float
(** Execution wall seconds, once done. *)

val execute : ?worker:int -> t -> unit
(** Run the job to completion on the calling domain: crash-isolated
    (exceptions become {!Crashed}, except [Out_of_memory] and
    [Stack_overflow] which re-raise), inside a fresh term-interning
    space so results depend only on the request.  A job already [Done]
    (e.g. cancelled while queued) is skipped; calling on a [Running] job
    raises [Invalid_argument]. *)
