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

    Each session memoizes its own Sat/Unsat verdicts, keyed by the
    canonical (sorted, deduplicated) hash-consed ids of the asserted
    set, and answers a check from that table only when the same set is
    asked again.  The table belongs to the session alone: no other
    session, run or domain reads it, so one run's answers never reach
    another.  [Unknown] results are budget artifacts and are never
    memoized.

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
      default) apply to every [check].

      If a persistent answer journal is attached on the calling domain
      ({!Persist.attach}), the session replays it: at each result-cache
      miss the next journaled answer — Sat model, Unsat verdict, or
      stall — is adopted at zero cost, provided the run is still in
      lock-step with the recorded one; every real solve is appended for
      the next run.  This cannot change a trajectory, only its cost.

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

  (** Decide the conjunction of the current stack.  Newly pushed
      assertions are encoded first (charging the gate budget); a
      gate-budget abort leaves them pending, and a later [check] resumes
      from the blasting memo rather than restarting. *)
  val check : t -> outcome * stats

  val cache_stats : t -> cache_stats

  (** Of this session's cache hits, how many were answered by replaying
      the persistent journal. *)
  val replays : t -> int

  (** [release t] parks [t]'s SAT storage on the calling domain for the
      next session there ({!Sat.release}).  Afterwards [push], [pop]
      and [check] raise [Invalid_argument]; [depth], [cache_stats] and
      [replays] still read.  Releasing twice is a no-op. *)
  val release : t -> unit
end

(** [check ~budget ~gate_budget assertions] decides the conjunction of
    width-1 [assertions] with a throwaway session, released afterwards.
    [gate_budget] caps bit-blasting work, [budget] caps SAT propagation
    work. *)
val check : ?budget:int -> ?gate_budget:int -> Expr.t list -> outcome * stats
