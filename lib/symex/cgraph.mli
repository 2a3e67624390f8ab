(** The constraint graph of section 3.2: the term DAG produced by
    shepherded symbolic execution, annotated with provenance — for each
    term that was the value of an IR register, the program point that
    defined it and how many times that point executed in the trace.

    Key data value selection (section 3.3) runs over this structure:
    provenance is what makes a term *recordable* (ER can only instrument
    register definitions with ptwrite), and the reference counts give
    the recording costs. *)

module Expr = Er_smt.Expr

type prov = {
  pr_point : Er_ir.Types.point;  (** first defining program point *)
  mutable pr_count : int;        (** dynamic executions of that point *)
  pr_width : int;                (** bits *)
}

type t = {
  prov : (int, prov) Hashtbl.t;      (** expr id -> provenance *)
  mutable assertions : Expr.t list;  (** the path constraint at stall time *)
}

val create : unit -> t

(** Record that [e] was just defined by the register write at [point]. *)
val define : t -> Er_ir.Types.point -> Expr.t -> unit

val provenance : t -> Expr.t -> prov option
val set_assertions : t -> Expr.t list -> unit

(** Cost of recording one element: size in bytes times the number of
    times its defining point executed (section 3.3.2). *)
val cost_of : t -> Expr.t -> int option

(** Distinct nodes reachable from the stall-time assertions — the
    "constraint graph size" reported in section 5.3. *)
val node_count : t -> int

(** Edges of the term DAG: one per operand slot of each distinct node. *)
val edge_count : t -> int
