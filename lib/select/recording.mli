(** The recording set (paper section 3.3.2, "Reducing the Cost of
    Recording").

    Starting from the bottleneck set, find a cheaper set of recordable
    terms (register definitions, cost = size × dynamic executions) that
    determines every bottleneck element: per element, the cheaper of
    "record it" and "record a determining cut below it", followed by a
    global pass dropping elements already determined by the chosen set —
    which is how V[x] drops out of the paper's {x, c, V[x]} example. *)

open Er_ir.Types

type item = {
  it_point : point;        (** where the ptwrite goes *)
  it_expr : Er_smt.Expr.t; (** the recorded term *)
  it_cost : int;           (** bytes x dynamic executions *)
}

type plan = {
  items : item list;
  bottleneck_cost : int;   (** cost of recording the raw bottleneck set *)
  reduced_cost : int;      (** cost of the final recording set *)
}

val reduce : Er_symex.Cgraph.t -> Er_smt.Expr.t list -> plan

(** The program points to instrument. *)
val points : plan -> point list

(** [fresh ~existing pts] is [pts] without the points already in
    [existing], deduplicated, in first-seen order — the recording-set
    increment one selection round contributes. *)
val fresh : existing:point list -> point list -> point list

(** [is_prefix pre full]: recording-point sets grow by appending, so
    consecutive iterations' sets relate by list prefix; the incremental
    pipeline asserts this before reusing checkpoints. *)
val is_prefix : point list -> point list -> bool
