(* The constraint graph of section 3.2: the term DAG produced by
   shepherded symbolic execution, annotated with provenance — for each
   term that was the value of an IR register, the program point that
   defined it and how many times that point executed in the trace.

   Key data value selection (section 3.3) runs over this structure:
   provenance is what makes a term *recordable* (ER can only instrument
   register definitions with ptwrite), and the reference counts give the
   recording costs. *)

module Expr = Er_smt.Expr
open Er_ir.Types

type prov = {
  pr_point : point;          (* first defining program point *)
  mutable pr_count : int;    (* dynamic executions of that point *)
  pr_width : int;            (* bits *)
}

type t = {
  prov : (int, prov) Hashtbl.t;       (* expr id -> provenance *)
  mutable assertions : Expr.t list;   (* the path constraint at stall time *)
}

let create () = { prov = Hashtbl.create 1024; assertions = [] }

(* Record that [e] was just defined by the register write at [point]. *)
let define t point (e : Expr.t) =
  if not (Expr.is_const e) then
    match Hashtbl.find_opt t.prov (Expr.id e) with
    | Some p -> p.pr_count <- p.pr_count + 1
    | None ->
        Hashtbl.add t.prov (Expr.id e)
          { pr_point = point; pr_count = 1; pr_width = Expr.width e }

let provenance t e = Hashtbl.find_opt t.prov (Expr.id e)

let set_assertions t assertions = t.assertions <- assertions

(* Cost of recording one element: size in bytes times the number of times
   its defining point executed (section 3.3.2). *)
let cost_of t e =
  match provenance t e with
  | None -> None
  | Some p -> Some (max 1 (p.pr_width / 8) * p.pr_count)

(* Total number of distinct nodes reachable from the stall-time
   assertions — the "constraint graph size" reported in section 5.3. *)
let node_count t =
  Expr.fold_subterms (fun n _ -> n + 1) 0 t.assertions

(* Edges of the term DAG: one per operand slot of each distinct node. *)
let edge_count t =
  Expr.fold_subterms
    (fun n e -> n + List.length (Expr.children e))
    0 t.assertions
