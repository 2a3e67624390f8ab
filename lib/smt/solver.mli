(** Budgeted check-sat over bitvector+array assertions.

    The pipeline is: array elimination ({!Arrays}), Tseitin bit-blasting
    ({!Bitblast}), CDCL search ({!Sat}), model reconstruction ({!Model}).
    Budgets are deterministic work counters, ER's stand-in for the
    paper's 30-second solver timeout: a query either solves, refutes, or
    *stalls* ([Unknown]) identically on every machine.

    The primary interface is {!Session}: a stateful incremental solving
    context.  Shepherded symbolic execution pushes one constraint per
    traced branch and re-checks; a session encodes each pushed assertion
    exactly once and retains CDCL learned clauses and variable
    activities across checks, so the per-check cost is proportional to
    the *new* constraints, not to the whole prefix.  {!check} remains as
    a thin one-shot wrapper over a throwaway session.

    There is no global mutable solver state: per-check statistics are
    returned as a value alongside the outcome. *)

type outcome =
  | Sat of Model.t
  | Unsat
  | Unknown of string  (** budget exhausted: a symbolic-execution stall *)

(** Work performed by one [check] call.  [sat_vars] is the solver's
    current variable count; the other fields are deltas charged by this
    call (for a one-shot [check] they equal the totals).  A result-cache
    hit reports all-zero work. *)
type stats = {
  sat_vars : int;
  gates : int;
  propagations : int;
  conflicts : int;
  decisions : int;
  restarts : int;
  clauses : int;
}

(** Incremental solving sessions.

    A session owns one SAT solver, one blasting context and one array
    elimination state.  [push] grows an assertion stack; each assertion
    is guarded by a fresh selector variable and activated per-check via
    solver assumptions, so [pop] retires the newest assertion without
    discarding its encoding or anything learned from it.

    Results are memoized in a result cache keyed by the canonical
    (sorted, deduplicated) hash-consed ids of the asserted set.  The
    cache is sharded by interning space ({!Expr.space_stamp}): sessions
    created in the same space share a mutex-protected shard, sessions in
    different spaces never see each other's entries (ids from different
    spaces denote different terms, so a cross-space hit would be
    unsound).  Each session tallies its own hits and misses exactly,
    even under concurrent domains.  Besides exact hits, a cached UNSAT
    core refutes any superset and a cached model of a superset satisfies
    any subset; [Unknown] results are budget artifacts and are never
    cached.

    Budgets stay deterministic because the work counters carry over
    across incremental calls.  The propagation budget is a per-check
    allowance, charged relative to the session's counters at entry, so
    every check gets the same search allowance a fresh solver would.
    The gate budget is cumulative over the session: hash-consed blasting
    builds the same unique-gate set incrementally that a one-shot
    re-blast of the whole prefix would build, so capping the total keeps
    the gate-stall boundary on exactly the same assertion set. *)
module Session : sig
  type t

  (** Cumulative result-cache traffic of this session. *)
  type cache_stats = { cache_hits : int; cache_misses : int }

  (** [create ~budget ~gate_budget ()] — the budgets (generous ones by
      default) apply to every [check] unless overridden per call.

      If a persistent answer journal is attached to the current
      interning space ({!Persist.attach}), the session replays it: at
      each in-memory-cache miss the next journaled answer — Sat model,
      Unsat verdict, or stall — is adopted at zero cost, provided the
      run is still in lock-step with the recorded one; every real solve
      is appended for the next run.  This cannot change a trajectory,
      only its cost.

      A check that exhausts its propagation budget returns [Unknown]:
      the stall is answered by the caller (ER records more data on the
      next failure occurrence), never by searching again here. *)
  val create : ?budget:int -> ?gate_budget:int -> unit -> t

  (** Push one width-1 assertion onto the stack. *)
  val push : t -> Expr.t -> unit

  (** Retire the newest assertion.  Raises [Invalid_argument] on an
      empty stack. *)
  val pop : t -> unit

  (** Current stack depth. *)
  val depth : t -> int

  (** The asserted stack, oldest first. *)
  val assertions : t -> Expr.t list

  (** Decide the conjunction of the current stack.  Newly pushed
      assertions are encoded first (charging the gate budget); a
      gate-budget abort leaves them pending, and a later [check] resumes
      from the blasting memo rather than restarting. *)
  val check : ?budget:int -> ?gate_budget:int -> t -> outcome * stats

  val cache_stats : t -> cache_stats

  (** Of this session's cache hits, how many were answered by replaying
      the persistent journal. *)
  val replays : t -> int
end

(** [check ~budget ~gate_budget assertions] decides the conjunction of
    width-1 [assertions] with a throwaway session.  [gate_budget] caps
    bit-blasting work, [budget] caps SAT propagation work. *)
val check : ?budget:int -> ?gate_budget:int -> Expr.t list -> outcome * stats

(** [Ok sat?] when decided within budget; [Error reason] carries the
    stall reason ([Unknown]) instead of silently dropping it. *)
val is_satisfiable :
  ?budget:int -> ?gate_budget:int -> Expr.t list -> (bool, string) result

(** Is [e] entailed by [assumptions]?  ([Ok true] iff [not e] is unsat;
    [Error reason] on a stall.) *)
val must_be_true :
  ?budget:int -> ?gate_budget:int -> Expr.t list -> Expr.t -> (bool, string) result

(** Drop every shard of the result cache (test isolation). *)
val reset_cache : unit -> unit

(** Drop the current interning space's shard of the result cache.  A
    job calls this as its fresh space ends: nothing can intern into that
    space again, so its shard would otherwise stay reachable for the
    life of the process.  Sessions still holding the shard keep working. *)
val release_cache : unit -> unit

(** Number of result-cache shards alive (one per space that created a
    session and has not released it). *)
val cache_shards : unit -> int
