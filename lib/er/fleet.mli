(** Domain-parallel batch execution over the job scheduler.

    The batch face of the job API: wraps each corpus bug in a
    {!Job.Thunk}, submits the lot to a {!Scheduler} pool under one
    tenant, awaits the handles in submission order and renders a
    wall-clock and process-CPU report.  Determinism contract: [run
    ~jobs:8] produces the same per-bug content as [run ~jobs:1]; only
    timings and worker placement vary, and [report_to_json_value
    ~normalize:true] strips exactly those (the CI fleet-determinism gate
    diffs that view). *)

type job = {
  job_name : string;
  job_run : unit -> Pipeline.result;
  job_config : Job.Config.t;
      (** request config; {!Job.execute} binds the persistent solver
          store from its [cache_dir] — the budgets the thunk actually
          runs under are bound inside [job_run] *)
}

type outcome =
  | Finished of Pipeline.result
  | Worker_crashed of { exn : string; backtrace : string }
      (** the job raised; isolated to the job, not the fleet *)

type row = {
  row_name : string;
  row_outcome : outcome;
  row_worker : int;  (** index of the worker that executed the job *)
  row_wall : float;  (** wall-clock seconds the job took *)
}

type report = {
  rows : row list;  (** submission order, not completion order *)
  jobs : int;       (** workers actually used *)
  wall : float;     (** fleet wall clock, spawn to last join *)
  cpu : float;
      (** process user + system seconds across {!run}, every domain
          included ([Unix.times]) *)
}

val run : ?jobs:int -> job list -> report
(** Execute the jobs on [jobs] worker domains (default
    [Domain.recommended_domain_count ()], capped at the job count). *)

val normalize_json : Json.t -> Json.t
(** Zero every wall-clock field of a result JSON — the determinism view
    used by the serve-vs-batch differential and the fleet gate. *)

val report_to_json_value : ?normalize:bool -> ?baseline:string * float -> report -> Json.t
(** [~normalize:true] renders per-bug content only — no wall clocks, no
    worker placement, no job count; two reports from the same corpus at
    different [-j] must render byte-identically.  [?baseline] adds the
    committed sequential baseline the human table compares against. *)

val report_to_json : ?normalize:bool -> ?baseline:string * float -> report -> string
