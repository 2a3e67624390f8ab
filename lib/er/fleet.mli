(** Domain-parallel batch execution over the job scheduler.

    The batch face of the job API: submits the {!Job.t} handles its
    caller created — each with its own request and event sink — to a
    {!Scheduler} pool, awaits them in submission order and renders a
    wall-clock and process-CPU report.  Determinism contract: [run
    ~jobs:8] produces the same per-bug content as [run ~jobs:1]; only
    timings and worker placement vary, and [report_to_json_value
    ~normalize:true] strips exactly those (the CI fleet-determinism gate
    diffs that view). *)

type row = {
  row_name : string;
  row_outcome : Job.outcome;
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

val run : ?jobs:int -> Job.t list -> report
(** Execute the jobs on [jobs] worker domains (default
    [Domain.recommended_domain_count ()], capped at the job count).  A
    handle executes at most once: one already done (cancelled, or run by
    an earlier [run]) keeps its outcome. *)

val normalize_json : Json.t -> Json.t
(** Zero every wall-clock field of a result JSON — the determinism view
    used by the serve-vs-batch differential and the fleet gate. *)

val report_to_json_value : ?normalize:bool -> report -> Json.t
(** [~normalize:true] renders per-bug content only — no wall clocks, no
    worker placement, no job count; two reports from the same corpus at
    different [-j] must render byte-identically. *)

val report_to_json : ?normalize:bool -> report -> string
