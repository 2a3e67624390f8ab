(** Load generation against an er-serve daemon.

    Replays bug names as N concurrent client connections (one domain
    and tenant each, pipelined submits, retry-on-reject) and measures
    reconstructions/sec, per-job latency and cross-client determinism.
    Shared by [er_cli loadgen] and the serve daemon test. *)

type result = {
  lg_clients : int;
  lg_jobs : int;             (** results received across all clients *)
  lg_failed : int;           (** [Job_failed] frames *)
  lg_rejected : int;         (** reject-then-retry events (backpressure) *)
  lg_errors : int;           (** protocol errors + unexpected cancels *)
  lg_wall : float;
  lg_latencies : float list; (** submit → result receipt, seconds *)
  lg_results : (string * string) list;
      (** (bug, normalized payload) for every received result *)
}

val run :
  socket:string ->
  clients:int ->
  ?rounds:int ->
  bugs:string list ->
  unit ->
  result
(** Each client submits [bugs] × [rounds] (default 1) jobs pipelined
    and waits for all of them.  Latency is measured from the first
    submit, so backpressure delay lands in the tail percentiles. *)

val throughput : result -> float
(** Received results per second of wall clock. *)

val percentile : float -> float list -> float
(** Nearest-rank percentile, e.g. [percentile 99. r.lg_latencies]. *)

val deterministic : result -> bool
(** Every client received the trajectory-identical payload per bug:
    byte-identical after masking the three fields the persistent
    solver store is allowed to change ([solver_cost], [cache_hits],
    [cache_misses]) — a daemon running with [--cache-dir] serves warm
    repeats of a bug at lower cost, never with a different result. *)

val to_json_value : result -> Json.t
(** The [loadgen --json] rendering: clients, jobs, failed, rejected, errors,
    wall, throughput_rps, p50/p99 ms, deterministic. *)
