(** Tseitin bit-blasting of (array-free) bitvector terms onto the CDCL
    SAT solver.  Each bitvector term maps to an array of SAT literals,
    LSB first, memoized by hash-consed expression id so that shared
    subterms are encoded exactly once — also across successive calls,
    which is what makes a persistent context incremental: re-blasting an
    already-seen assertion is a table lookup.

    Gate construction is budgeted: when a formula needs more gates than
    the current budget allows (the typical outcome of a long symbolic
    write chain expanded to ite towers), blasting raises {!Too_large},
    which the solver reports as [Unknown] — a stall, in the paper's
    terminology.  The memo table keeps whatever was built before the
    abort, so a later call reuses it rather than restarting. *)

exception Too_large

(** Arrays must be eliminated (see {!Arrays}) before blasting. *)
exception Unsupported of string

(** A persistent blasting context.  The context owns its expr-id memo
    table and the variable/bit-literal map; both only grow, and both
    remain valid across SAT [solve] calls as long as all clauses are
    added at decision level zero (see {!Sat.backtrack_root}). *)
type ctx

(** [create ?gate_budget sat] allocates the constant-true variable on
    [sat] with an absolute gate limit of [gate_budget] (default:
    unlimited).  The limit is on {!gate_count}, which carries over
    across encoding runs: budgeting the *total* encoding size is what
    makes an incremental session stall on exactly the assertion set a
    one-shot re-blast of the whole prefix would have stalled on. *)
val create : ?gate_budget:int -> Sat.t -> ctx

(** Total gates built so far (monotone; survives {!Too_large}). *)
val gate_count : ctx -> int

(** Blast a width-1 expression to its single SAT literal (DIMACS) without
    asserting it.  Raises {!Too_large} on budget exhaustion and
    [Invalid_argument] if the expression is not width 1. *)
val lit_of : ctx -> Expr.t -> int

(** Assert a width-1 expression unconditionally (a unit clause). *)
val assert_true : ctx -> Expr.t -> unit

(** Variables encountered so far with their bit literals, newest first
    (model extraction). *)
val blasted_vars : ctx -> (Expr.t * int array) list

(** Read back the value of a blasted variable from a SAT model. *)
val value_of_bits : Sat.t -> int array -> int64
