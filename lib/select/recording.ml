(* The recording set (section 3.3.2, "Reducing the Cost of Recording").

   Starting from the bottleneck set, ER searches the constraint graph for
   a cheaper set of recordable values from which each bottleneck element
   can be deduced.  A term is *recordable* when it has provenance (it was
   the value of a register definition, so a ptwrite can capture it); its
   recording cost is size-in-bytes times the number of times its defining
   point executed.  Every non-leaf operation is a deterministic function
   of its operands, so a set S determines a term e iff every path from e
   to a symbolic input passes through S — a cut.  The search below is the
   paper's depth-first cost-reduction: for each node take the cheaper of
   "record this node" and "record a determining cut below it". *)

open Er_ir.Types
module Expr = Er_smt.Expr
module Cgraph = Er_symex.Cgraph
module M = Er_metrics

let m_points =
  M.counter ~help:"Fresh recording points added to the recording set."
    "er_select_points_total"

type item = {
  it_point : point;       (* where to insert the ptwrite *)
  it_expr : Expr.t;       (* the recorded term *)
  it_cost : int;          (* bytes x dynamic executions *)
}

type plan = {
  items : item list;
  bottleneck_cost : int;  (* cost of recording the raw bottleneck set *)
  reduced_cost : int;     (* cost of the final recording set *)
}

(* Best determining cut below [e]: None when [e] cannot be determined by
   recordable descendants (an input with no provenance — impossible for
   well-formed traces, but handled).  Costs of shared subterms are counted
   once per bottleneck element; the heuristic matches the paper's greedy
   search rather than an exact minimum cut. *)
let best_cut (graph : Cgraph.t) (e : Expr.t) : (int * Expr.t list) option =
  let memo : (int, (int * Expr.t list) option) Hashtbl.t = Hashtbl.create 256 in
  let rec go e =
    match Hashtbl.find_opt memo (Expr.id e) with
    | Some r -> r
    | None ->
        (* break cycles defensively (the DAG has none, but memoize first) *)
        Hashtbl.add memo (Expr.id e) None;
        let self =
          match Cgraph.cost_of graph e with
          | Some c -> Some (c, [ e ])
          | None -> None
        in
        let result =
          if Expr.is_const e then Some (0, [])
          else begin
            let via_children =
              match Expr.children e with
              | [] -> None    (* a Var: only recordable via provenance *)
              | kids ->
                  List.fold_left
                    (fun acc kid ->
                       match acc, go kid with
                       | Some (c1, s1), Some (c2, s2) -> Some (c1 + c2, s1 @ s2)
                       | _, None | None, _ -> None)
                    (Some (0, [])) kids
            in
            match self, via_children with
            | Some (cs, ss), Some (cc, sc) ->
                if cc < cs then Some (cc, sc) else Some (cs, ss)
            | Some r, None | None, Some r -> Some r
            | None, None -> None
          end
        in
        Hashtbl.replace memo (Expr.id e) result;
        result
  in
  go e

let dedup_items items =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun it ->
       let key = point_to_string it.it_point in
       if Hashtbl.mem seen key then false
       else begin
         Hashtbl.add seen key ();
         true
       end)
    items

(* Is [e] determined by the set [s] of already-recorded terms?  Constants
   determine themselves; operations are deterministic functions of their
   operands, so [e] is determined when every path from it down to a
   symbolic input passes through [s].  This is the second half of the
   paper's search: V[x] drops out of the recording set because the
   already-chosen {x, c} determine it. *)
let determined_by (s : (int, unit) Hashtbl.t) (e : Expr.t) : bool =
  let memo = Hashtbl.create 64 in
  let rec det e =
    match Hashtbl.find_opt memo (Expr.id e) with
    | Some r -> r
    | None ->
        Hashtbl.add memo (Expr.id e) false;   (* cycle guard *)
        let r =
          Expr.is_const e
          || Hashtbl.mem s (Expr.id e)
          ||
          match Expr.children e with
          | [] -> (match Expr.node e with Expr.Const_array _ -> true | _ -> false)
          | kids -> List.for_all det kids
        in
        Hashtbl.replace memo (Expr.id e) r;
        r
  in
  det e

let reduce (graph : Cgraph.t) (bottleneck : Expr.t list) : plan =
  let cost_of e = Option.value ~default:0 (Cgraph.cost_of graph e) in
  let bottleneck_cost = List.fold_left (fun a e -> a + cost_of e) 0 bottleneck in
  (* process cheap elements first so expensive deducible ones are dropped *)
  let ordered =
    List.stable_sort (fun a b -> Int.compare (cost_of a) (cost_of b)) bottleneck
  in
  let chosen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let items =
    List.concat_map
      (fun e ->
         if determined_by chosen e then []
         else begin
           let cut =
             match best_cut graph e with
             | Some (_, cut) -> cut
             | None -> [ e ]
           in
           List.filter_map
             (fun c ->
                if Hashtbl.mem chosen (Expr.id c) then None
                else
                  match Cgraph.provenance graph c with
                  | Some p ->
                      Hashtbl.replace chosen (Expr.id c) ();
                      Some
                        {
                          it_point = p.Cgraph.pr_point;
                          it_expr = c;
                          it_cost =
                            max 1 (p.Cgraph.pr_width / 8) * p.Cgraph.pr_count;
                        }
                  | None -> None)
             cut
         end)
      ordered
    |> dedup_items
  in
  let reduced_cost = List.fold_left (fun a it -> a + it.it_cost) 0 items in
  { items; bottleneck_cost; reduced_cost }

let points plan = List.map (fun it -> it.it_point) plan.items

(* Recording-point sets grow monotonically across ER iterations (each
   selection round appends its fresh points), so consecutive sets relate
   by list prefix.  The incremental pipeline uses these to decide whether
   a checkpointed run — taken under the previous iteration's set — can be
   resumed under the next one. *)

let is_prefix (pre : point list) (full : point list) : bool =
  let rec go = function
    | [], _ -> true
    | _ :: _, [] -> false
    | p :: ps, q :: qs -> point_compare p q = 0 && go (ps, qs)
  in
  go (pre, full)

(* Points not already in [existing], deduplicated and in first-seen order
   — the increment the pipeline's selector hands back each iteration. *)
let fresh ~existing pts =
  let mem p l = List.exists (fun q -> Er_ir.Types.point_compare p q = 0) l in
  let added =
    List.rev
      (List.fold_left
         (fun acc p -> if mem p existing || mem p acc then acc else p :: acc)
         [] pts)
  in
  M.add m_points (List.length added);
  added
