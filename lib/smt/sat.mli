(** A from-scratch CDCL SAT solver (MiniSat lineage): two watched
    literals, first-UIP learning, VSIDS decisions, phase saving, Luby
    restarts — with a deterministic work budget so that timeouts are a
    property of the formula, not of the machine. *)

type result = Sat | Unsat | Unknown

type t

(** An empty solver.  Its heuristics are fixed: VSIDS decay 0.95, Luby
    restarts with base 64, phase saving from an initial phase of false.
    It reuses the storage of the solver last parked on the calling
    domain by {!release}, if any, and allocates one otherwise; either
    way it searches exactly as a newly allocated solver would. *)
val create : unit -> t

(** [release t] hands [t]'s storage to the next {!create} on the calling
    domain: it empties [t] back to the state {!create} returns, keeping
    its capacity, and parks it.  A domain keeps one spare, the one with
    the larger variable capacity.  [t] must not be used afterwards. *)
val release : t -> unit

(** Allocate a variable; returns its external (1-based, DIMACS) index. *)
val new_var : t -> int

(** Add a clause of DIMACS literals (non-zero; sign = polarity).  Must be
    called at decision level zero (before or between [solve] calls).
    The literals are sorted and deduplicated; a tautology, or a clause
    already true at level zero, is dropped, and literals already false
    at level zero are removed. *)
val add_clause : t -> int list -> unit

(** [add_clause2 t a b] = [add_clause t [a; b]] and [add_clause3 t a b c]
    = [add_clause t [a; b; c]], with identical effect on the clause
    database, watch lists and search — but no list and no allocation
    per clause.  Bit-blasting adds every gate clause through these. *)
val add_clause2 : t -> int -> int -> unit

val add_clause3 : t -> int -> int -> int -> unit

(** [solve ~budget ~assumptions t] searches until a model or refutation
    is found, or until the budget (propagations + weighted conflicts,
    counted relative to the totals at entry so every call gets the same
    deterministic allowance) is exhausted.

    [assumptions] are DIMACS literals decided before any heuristic
    decision.  If they are contradicted the answer is [Unsat] *under the
    assumptions only*: the solver stays usable and a later call with
    different assumptions may answer [Sat].  Learned clauses are implied
    by the clause database alone and are retained across calls. *)
val solve : ?budget:int -> ?assumptions:int list -> t -> result

(** Undo all decision levels.  A [Sat] answer leaves the trail in place
    so [value] can read the model; an incremental caller must backtrack
    to root before adding clauses, or the new clauses would be simplified
    against model values as if they were level-0 facts. *)
val backtrack_root : t -> unit

(** Model value of an external variable after [Sat]. *)
val value : t -> int -> bool

(** (propagations, conflicts, clauses) *)
val stats : t -> int * int * int

(** Branching decisions taken so far. *)
val decisions : t -> int

(** Luby restarts performed so far. *)
val restarts : t -> int

val num_vars : t -> int

(** The [k] most VSIDS-active variables (external indices, activity),
    highest first, ties by index — deterministic. *)
val top_activity : ?k:int -> t -> (int * float) list

(** [top_k ~k act n]: the [k] greatest of [act.(0..n-1)] as (index + 1,
    value), greatest first by [Float.compare], ties by index — the
    selection {!top_activity} runs over the activity array, in one pass
    without sorting. *)
val top_k : k:int -> float array -> int -> (int * float) list
