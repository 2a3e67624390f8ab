(* Shepherded symbolic execution (section 3.2).

   The executor replays the decoded runtime trace over the program: every
   conditional branch consumes the next TNT bit and asserts the branch
   condition's outcome; every ptwrite consumes the next PTW value and
   concretizes the instrumented register; thread chunks follow the
   recorded TIP/MTC schedule.  There is no forking — path explosion is
   gone by construction.

   The solver is invoked at symbolic memory accesses and at the final
   failure state.  A budgeted query that returns Unknown is a *stall*
   (the paper's solver timeout), and the executor returns the constraint
   graph so that key data value selection can pick what to record on the
   next failure occurrence. *)

open Er_ir.Types
module Expr = Er_smt.Expr
module Solver = Er_smt.Solver
module Failure_ = Er_vm.Failure
module M = Er_metrics

(* Shepherding metrics; recorded once per [run] (not per step), so the
   hot loop is untouched. *)
let m_steps =
  M.counter ~help:"Shepherded symbolic-execution steps." "er_symex_steps_total"

let m_forks_avoided =
  M.counter
    ~help:"Conditional branches resolved by a trace TNT bit instead of a fork."
    "er_symex_forks_avoided_total"

let m_stalls =
  M.counter ~help:"Shepherded runs that stalled on a solver budget."
    "er_symex_stalls_total"

let m_divergences =
  M.counter ~help:"Shepherded runs that diverged from the trace."
    "er_symex_divergences_total"

let m_completions =
  M.counter ~help:"Shepherded runs that reached the failure and solved it."
    "er_symex_completions_total"

let m_path_constraints =
  M.gauge ~help:"Path-constraint count at the end of the last run."
    "er_symex_path_constraints"

let m_stall_depth =
  M.gauge ~help:"Call-stack depth at the last stall."
    "er_symex_stall_depth"

type config = {
  solver_budget : int;
  gate_budget : int;
  max_steps : int;
  progress_every : int;       (* sample period for Fig 5, in steps *)
}

let default_config =
  {
    solver_budget = 600_000;
    gate_budget = 120_000;
    max_steps = 30_000_000;
    progress_every = 1_000;
  }

type stall_info = {
  graph : Cgraph.t;
  memory : Symmem.t;
  stalled_at : point;
  stall_reason : string;
}

type solution = {
  model : Er_smt.Model.t;
  (* input reads in consumption order: stream, symbolic variable, width *)
  input_log : (string * Expr.t) list;
  path_constraints : Expr.t list;
}

type outcome =
  | Complete of solution
  | Stalled of stall_info
  | Diverged of string

type progress_sample = { ps_steps : int; ps_solver_cost : int }

type result = {
  outcome : outcome;
  steps : int;
  solver_calls : int;
  solver_cost : int;          (* deterministic: gates + propagations *)
  cache_hits : int;           (* solver result-cache hits of this run *)
  cache_misses : int;
  progress : progress_sample list;
}

(* --- executor state ----------------------------------------------------- *)

type frame = {
  fr_func : func;
  mutable fr_block : block;
  mutable fr_ip : int;
  fr_regs : (string, Sval.t) Hashtbl.t;
  fr_dst : reg option;
  mutable fr_stack_objs : int list;
}

type thread = {
  tid : int;
  mutable stack : frame list;
  mutable depth : int;          (* cached [List.length stack] *)
  mutable live : bool;
}

(* Shared executor state, parametric in the thread representation so the
   reference engine (string-keyed frames) and the lowered engine (slot
   arrays over {!Er_ir.Lower}) reuse the same solver plumbing — and
   therefore make byte-identical solver queries. *)
type 'th st = {
  prog : Er_ir.Prog.t;
  cfg : config;
  trace : Er_trace.Decoder.split;
  failure : Failure_.t;
  failure_clock : int;
  graph : Cgraph.t;
  session : Solver.Session.t;   (* one incremental session per run *)
  mem : Symmem.t;
  globals : (string, int) Hashtbl.t;      (* name -> object id *)
  lobjs : int array;            (* global object ids, lowered-index order *)
  mutable threads : 'th list;
  mutable next_tid : int;
  mutable clock : int;
  mutable branch_i : int;
  mutable data_i : int;
  mutable sched_i : int;
  mutable path : Expr.t list;             (* newest first *)
  mutable input_log : (string * Expr.t) list; (* newest first *)
  input_counters : (string, int ref) Hashtbl.t;
  mutable solver_calls : int;
  mutable solver_cost : int;
  mutable progress : progress_sample list;
}

exception Diverge of string
exception Stall of { at : point; reason : string }

(* --- solver helper -------------------------------------------------------- *)

let sample st =
  st.progress <- { ps_steps = st.clock; ps_solver_cost = st.solver_cost } :: st.progress

(* Extend the path constraint: mirror into the run's solver session so
   only the new assertion needs encoding at the next query. *)
let push_path st e =
  st.path <- e :: st.path;
  Solver.Session.push st.session e

(* Query the session with [extra] assertions on top of the path.  With
   [keep], a satisfiable [extra] becomes part of the path (the
   [assert_feasible] protocol); otherwise the extras are popped again.
   The per-query solver cost is the session's *marginal* work — gates
   and propagations this check actually performed. *)
let query st ~at ?(keep = false) extra =
  st.solver_calls <- st.solver_calls + 1;
  List.iter (Solver.Session.push st.session) extra;
  let r, stats = Solver.Session.check st.session in
  st.solver_cost <-
    st.solver_cost + stats.Solver.gates + stats.Solver.propagations;
  sample st;
  match r with
  | Solver.Unknown reason -> raise (Stall { at; reason })
  | Solver.Sat m ->
      if keep then
        List.iter
          (fun e -> if not (Expr.is_true e) then st.path <- e :: st.path)
          extra
      else List.iter (fun _ -> Solver.Session.pop st.session) extra;
      Some m
  | Solver.Unsat ->
      if not keep then List.iter (fun _ -> Solver.Session.pop st.session) extra;
      None

let assert_feasible st ~at ~what extra =
  match query st ~at ~keep:true extra with
  | Some _ -> ()
  | None -> raise (Diverge (Printf.sprintf "infeasible %s at %s" what
                              (point_to_string at)))

(* --- value helpers --------------------------------------------------------- *)

let bvc ~width v = Expr.const ~width v

let norm_expr ty e =
  let w = width_of_ty ty in
  let ew = Expr.width e in
  if ew = w then e
  else if ew > w then Expr.truncate ~to_:w e
  else Expr.zero_extend ~to_:w e

let eval_value st (fr : frame) v : Sval.t =
  match v with
  | Imm (value, ty) -> Sval.Bv (bvc ~width:(width_of_ty ty) value)
  | Null -> Sval.null
  | Global g -> (
      match Hashtbl.find_opt st.globals g with
      | Some obj -> Sval.Ptr { obj; index = bvc ~width:32 0L }
      | None -> invalid_arg ("Exec: unknown global " ^ g))
  | Reg r -> (
      match Hashtbl.find_opt fr.fr_regs r with
      | Some sv -> sv
      | None ->
          invalid_arg
            (Printf.sprintf "Exec: read of undefined register %s in %s" r
               fr.fr_func.fname))

let point_of (fr : frame) =
  { p_func = fr.fr_func.fname; p_block = fr.fr_block.label; p_index = fr.fr_ip }

let set_reg st (fr : frame) r (sv : Sval.t) =
  (* provenance: this register definition is a recordable program point *)
  (match sv with
   | Sval.Bv e -> Cgraph.define st.graph (point_of fr) e
   | Sval.Ptr { index; _ } -> Cgraph.define st.graph (point_of fr) index);
  Hashtbl.replace fr.fr_regs r sv

let smt_binop : binop -> Expr.binop = function
  | Add -> Expr.Add | Sub -> Expr.Sub | Mul -> Expr.Mul | Udiv -> Expr.Udiv
  | Urem -> Expr.Urem | And -> Expr.And | Or -> Expr.Or | Xor -> Expr.Xor
  | Shl -> Expr.Shl | Lshr -> Expr.Lshr | Ashr -> Expr.Ashr

let sym_cmp op ty (a : Sval.t) (b : Sval.t) : Expr.t =
  let ea, eb =
    match a, b with
    | Sval.Ptr { obj = oa; index = ia }, Sval.Ptr { obj = ob; index = ib }
      when oa = ob ->
        (* same-object pointer comparison reduces to index comparison *)
        ia, ib
    | _ -> norm_expr ty (Sval.expect_bv a), norm_expr ty (Sval.expect_bv b)
  in
  match op with
  | Eq -> Expr.eq ea eb
  | Ne -> Expr.ne ea eb
  | Ult -> Expr.ult ea eb
  | Ule -> Expr.ule ea eb
  | Ugt -> Expr.ugt ea eb
  | Uge -> Expr.uge ea eb
  | Slt -> Expr.slt ea eb
  | Sle -> Expr.sle ea eb
  | Sgt -> Expr.sgt ea eb
  | Sge -> Expr.sge ea eb

(* --- memory access ---------------------------------------------------------- *)

(* Resolve an address value to (object, 32-bit index expr).  A symbolic
   packed pointer is concretized to one object via a solver model, the way
   ER's engine resolves symbolic memory accesses to concrete objects. *)
let resolve_addr st ~at (sv : Sval.t) : Symmem.sobj * Expr.t =
  let obj_of id =
    match Symmem.find st.mem id with
    | Some o -> o
    | None -> raise (Diverge (Printf.sprintf "access to unknown object %d" id))
  in
  match sv with
  | Sval.Ptr { obj; index } -> obj_of obj, index
  | Sval.Bv e -> (
      match Sval.decode_ptr e with
      | Sval.Ptr { obj; index } -> obj_of obj, index
      | Sval.Bv e -> (
          (* fully symbolic address: ask the solver for a concrete object *)
          match query st ~at [] with
          | None -> raise (Diverge "path infeasible at address resolution")
          | Some m ->
              let v = Er_smt.Model.eval m e in
              let obj = Er_vm.Memory.ptr_obj v in
              let hi = Expr.extract ~hi:63 ~lo:32 e in
              let pin = Expr.eq hi (bvc ~width:32 (Int64.of_int obj)) in
              push_path st pin;
              obj_of obj, Expr.extract ~hi:31 ~lo:0 e))

(* A non-failing access must be in bounds; with a symbolic index this is
   where the solver gets invoked and where stalls happen. *)
let check_bounds st ~at (o : Symmem.sobj) idx =
  if o.Symmem.s_freed then
    raise (Diverge (Printf.sprintf "access to freed object %d mid-trace" o.Symmem.s_id));
  match Expr.to_const idx with
  | Some v ->
      let i = Int64.to_int v in
      if i < 0 || i >= o.Symmem.s_size then
        raise
          (Diverge
             (Printf.sprintf "concrete out-of-bounds mid-trace (obj %d idx %d)"
                o.Symmem.s_id i))
  | None ->
      let bound = Expr.ult idx (bvc ~width:32 (Int64.of_int o.Symmem.s_size)) in
      assert_feasible st ~at ~what:"memory bounds" [ bound ]

let access_ty_ok (o : Symmem.sobj) ty = o.Symmem.s_elt_ty = ty

(* --- the failing instruction ------------------------------------------------ *)

(* Constraints that make the final instruction fail the way production did. *)
let failure_constraints st (fr : frame) (i : instr option) : Expr.t list =
  let ev v = eval_value st fr v in
  let addr_of = function
    | Load { addr; _ } | Store { addr; _ } | Free { addr } -> Some (ev addr)
    | Bin _ | Cmp _ | Select _ | Cast _ | Alloc _ | Gep _ | Call _ | Input _
    | Output _ | Ptwrite _ | Assert _ | Spawn _ | Join | Lock _ | Unlock _ ->
        None
  in
  match st.failure.Failure_.kind, i with
  | Failure_.Null_deref, Some instr -> (
      match addr_of instr with
      | Some (Sval.Ptr { obj = 0; _ }) -> []
      | Some (Sval.Ptr _) -> raise (Diverge "expected null pointer, got object")
      | Some (Sval.Bv e) -> [ Expr.eq e (bvc ~width:64 0L) ]
      | None -> raise (Diverge "null-deref failure at non-memory instruction"))
  | Failure_.Out_of_bounds _, Some instr -> (
      match addr_of instr with
      | Some sv ->
          let o, idx = resolve_addr st ~at:st.failure.Failure_.point sv in
          [ Expr.uge idx (bvc ~width:32 (Int64.of_int o.Symmem.s_size)) ]
      | None -> raise (Diverge "out-of-bounds failure at non-memory instruction"))
  | Failure_.Use_after_free _, Some instr -> (
      match addr_of instr with
      | Some sv ->
          let o, _ = resolve_addr st ~at:st.failure.Failure_.point sv in
          if o.Symmem.s_freed then []
          else raise (Diverge "expected freed object at failure point")
      | None -> raise (Diverge "use-after-free at non-memory instruction"))
  | Failure_.Double_free _, Some (Free { addr }) -> (
      match resolve_addr st ~at:st.failure.Failure_.point (ev addr) with
      | o, _ when o.Symmem.s_freed -> []
      | _ -> raise (Diverge "expected freed object at double free"))
  | Failure_.Div_by_zero, Some (Bin { ty; b; _ }) ->
      [ Expr.eq (norm_expr ty (Sval.expect_bv (ev b)))
          (bvc ~width:(width_of_ty ty) 0L) ]
  | Failure_.Assert_failed _, Some (Assert { cond; _ }) ->
      [ Expr.eq (norm_expr I1 (Sval.expect_bv (ev cond))) (bvc ~width:1 0L) ]
  | Failure_.Input_exhausted _, _ -> []
  | Failure_.Abort_called _, _ | Failure_.Unreachable_reached, _ -> []
  | Failure_.Access_type_error _, _ | Failure_.Invalid_pointer, _ -> []
  | Failure_.Stack_overflow, _ -> []
  | (Failure_.Deadlock | Failure_.Lock_error _ | Failure_.Hang), _ ->
      raise (Diverge "failure kind not supported by reconstruction")
  | _, None -> []
  | _, Some _ -> raise (Diverge "failure kind does not match failing instruction")

(* --- stepping ---------------------------------------------------------------- *)

type step = Stepped | Stepped_free | Thread_done | Reached_failure

let jump st (fr : frame) label =
  fr.fr_block <- Er_ir.Prog.block st.prog ~func:fr.fr_func.fname ~label;
  fr.fr_ip <- 0

let next_branch st =
  if st.branch_i >= Array.length st.trace.Er_trace.Decoder.branches then
    raise (Diverge "control-flow trace exhausted");
  let b = st.trace.Er_trace.Decoder.branches.(st.branch_i) in
  st.branch_i <- st.branch_i + 1;
  b

let next_data st =
  if st.data_i >= Array.length st.trace.Er_trace.Decoder.data then
    raise (Diverge "data-value trace exhausted");
  let v = st.trace.Er_trace.Decoder.data.(st.data_i) in
  st.data_i <- st.data_i + 1;
  v

let fresh_input st stream ty =
  let c =
    match Hashtbl.find_opt st.input_counters stream with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.replace st.input_counters stream c;
        c
  in
  let name = Printf.sprintf "%s!%d" stream !c in
  incr c;
  let v = Expr.bv_var name ~width:(width_of_ty ty) in
  st.input_log <- (stream, v) :: st.input_log;
  v

let make_frame (f : func) (args : Sval.t list) ~dst =
  let regs = Hashtbl.create 16 in
  (try
     List.iter2
       (fun (r, ty) sv ->
          let sv =
            match sv with
            | Sval.Bv e -> Sval.Bv (norm_expr ty e)
            | Sval.Ptr _ -> sv
          in
          Hashtbl.replace regs r sv)
       f.params args
   with Invalid_argument _ ->
     invalid_arg (Printf.sprintf "Exec: arity mismatch calling %s" f.fname));
  match f.blocks with
  | [] -> assert false
  | entry :: _ ->
      { fr_func = f; fr_block = entry; fr_ip = 0; fr_regs = regs; fr_dst = dst;
        fr_stack_objs = [] }

let do_return st (th : thread) (v : Sval.t option) : step =
  match th.stack with
  | [] -> assert false
  | fr :: rest ->
      List.iter
        (fun id ->
           match Symmem.find st.mem id with
           | Some o -> o.Symmem.s_freed <- true
           | None -> ())
        fr.fr_stack_objs;
      th.stack <- rest;
      th.depth <- th.depth - 1;
      (match rest with
       | [] ->
           th.live <- false;
           Thread_done
       | caller :: _ ->
           (match fr.fr_dst, v with
            | Some dst, Some sv -> set_reg st caller dst sv
            | Some dst, None -> set_reg st caller dst (Sval.of_const ~width:64 0L)
            | None, _ -> ());
           Stepped)

let step_instr st (th : thread) (fr : frame) (i : instr) : step =
  let at = point_of fr in
  let ev v = eval_value st fr v in
  let bv ty v = norm_expr ty (Sval.expect_bv (ev v)) in
  match i with
  | Bin { dst; op; ty; a; b } ->
      let ea = bv ty a and eb = bv ty b in
      (match op with
       | Udiv | Urem ->
           (* the production run did not crash here: divisor was nonzero *)
           if not (Expr.is_const eb) then begin
             let nz = Expr.ne eb (bvc ~width:(width_of_ty ty) 0L) in
             push_path st nz
           end
           else if Int64.equal (Option.get (Expr.to_const eb)) 0L then
             raise (Diverge "concrete division by zero mid-trace")
       | _ -> ());
      (* pointer arithmetic through Bin: keep the object when adding a
         concrete-object pointer and an integer *)
      let result =
        match op, ev a, ev b with
        | Add, Sval.Ptr { obj; index }, other when ty = Ptr ->
            Sval.Ptr { obj; index = Expr.add index (norm_expr I32 (Sval.expect_bv other)) }
        | Add, other, Sval.Ptr { obj; index } when ty = Ptr ->
            Sval.Ptr { obj; index = Expr.add index (norm_expr I32 (Sval.expect_bv other)) }
        | _ -> Sval.Bv (Expr.binop (smt_binop op) ea eb)
      in
      set_reg st fr dst result;
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Cmp { dst; op; ty; a; b } ->
      set_reg st fr dst (Sval.Bv (sym_cmp op ty (ev a) (ev b)));
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Select { dst; ty; cond; if_true; if_false } ->
      let c = norm_expr I1 (Sval.expect_bv (ev cond)) in
      let tv = ev if_true and fv = ev if_false in
      let result =
        match Expr.to_const c with
        | Some 1L -> tv
        | Some _ -> fv
        | None -> (
            match tv, fv with
            | Sval.Ptr { obj = ot; index = it }, Sval.Ptr { obj = of_; index = if_ }
              when ot = of_ ->
                Sval.Ptr { obj = ot; index = Expr.ite c it if_ }
            | _ ->
                Sval.Bv
                  (Expr.ite c
                     (norm_expr ty (Sval.expect_bv tv))
                     (norm_expr ty (Sval.expect_bv fv))))
      in
      set_reg st fr dst result;
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Cast { dst; kind; to_ty; v; from_ty } ->
      let sv = ev v in
      let result =
        match kind, sv with
        | (Ptrtoint | Inttoptr | Zext), Sval.Ptr _ when width_of_ty to_ty = 64 ->
            sv    (* identity on packed pointers *)
        | Inttoptr, Sval.Bv e when width_of_ty to_ty = 64 ->
            Sval.decode_ptr (norm_expr to_ty e)
        | _ ->
            let e = norm_expr from_ty (Sval.expect_bv sv) in
            let out =
              match kind with
              | Zext | Ptrtoint | Inttoptr ->
                  if width_of_ty to_ty >= Expr.width e then
                    Expr.zero_extend ~to_:(width_of_ty to_ty) e
                  else Expr.truncate ~to_:(width_of_ty to_ty) e
              | Trunc -> Expr.truncate ~to_:(width_of_ty to_ty) e
              | Sext -> Expr.sign_extend_e ~to_:(width_of_ty to_ty) e
            in
            Sval.Bv out
      in
      set_reg st fr dst result;
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Load { dst; ty; addr } ->
      let o, idx = resolve_addr st ~at (ev addr) in
      if not (access_ty_ok o ty) then
        raise (Diverge "access type mismatch mid-trace");
      check_bounds st ~at o idx;
      let e = Symmem.read o idx in
      let sv = if ty = Ptr then Sval.decode_ptr e else Sval.Bv e in
      set_reg st fr dst sv;
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Store { ty; v; addr } ->
      let o, idx = resolve_addr st ~at (ev addr) in
      if not (access_ty_ok o ty) then
        raise (Diverge "access type mismatch mid-trace");
      check_bounds st ~at o idx;
      Symmem.write o idx (bv ty v);
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Alloc { dst; elt_ty; count; heap } ->
      (* the runtime always traces allocation sizes; bind the symbolic
         count to the recorded concrete size *)
      let recorded = next_data st in
      let c = bv I32 count in
      (if not (Expr.is_const c) then
         push_path st (Expr.eq c (bvc ~width:32 recorded))
       else if not (Int64.equal (Option.get (Expr.to_const c)) recorded) then
         raise (Diverge "allocation size contradicts trace"));
      let n = Int64.to_int recorded in
      let o = Symmem.alloc st.mem ~elt_ty ~size:n ~heap in
      if not heap then fr.fr_stack_objs <- o.Symmem.s_id :: fr.fr_stack_objs;
      set_reg st fr dst (Sval.Ptr { obj = o.Symmem.s_id; index = bvc ~width:32 0L });
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Free { addr } ->
      let o, _ = resolve_addr st ~at (ev addr) in
      if o.Symmem.s_freed then raise (Diverge "double free mid-trace");
      o.Symmem.s_freed <- true;
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Gep { dst; base; idx } ->
      let delta =
        let e = Sval.expect_bv (ev idx) in
        if Expr.width e = 32 then e
        else if Expr.width e > 32 then Expr.truncate ~to_:32 e
        else Expr.sign_extend_e ~to_:32 e
      in
      (match ev base with
       | Sval.Ptr { obj; index } ->
           set_reg st fr dst (Sval.Ptr { obj; index = Expr.add index delta })
       | Sval.Bv e ->
           (match Sval.decode_ptr e with
            | Sval.Ptr { obj; index } ->
                set_reg st fr dst (Sval.Ptr { obj; index = Expr.add index delta })
            | Sval.Bv e ->
                set_reg st fr dst
                  (Sval.Bv (Expr.add e (Expr.zero_extend ~to_:64 delta)))));
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Call { dst; func; args } ->
      let f = Er_ir.Prog.func st.prog func in
      let vargs = List.map ev args in
      fr.fr_ip <- fr.fr_ip + 1;
      th.stack <- make_frame f vargs ~dst :: th.stack;
      th.depth <- th.depth + 1;
      Stepped
  | Input { dst; ty; stream } ->
      set_reg st fr dst (Sval.Bv (fresh_input st stream ty));
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Output _ ->
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Ptwrite { v } ->
      (* consume the recorded value and concretize (section 3.3.3) *)
      let recorded = next_data st in
      (match ev v with
       | Sval.Bv e ->
           let c = bvc ~width:(Expr.width e) recorded in
           if not (Expr.is_const e) then begin
             push_path st (Expr.eq e c);
             (* subsequent uses of the register see the concrete value *)
             (match v with
              | Reg r -> Hashtbl.replace fr.fr_regs r (Sval.Bv c)
              | Imm _ | Global _ | Null -> ())
           end
       | Sval.Ptr { obj; index } ->
           let idx_c = Int64.of_int (Er_vm.Memory.ptr_index recorded) in
           let c = bvc ~width:32 idx_c in
           if not (Expr.is_const index) then begin
             push_path st (Expr.eq index c);
             match v with
             | Reg r -> Hashtbl.replace fr.fr_regs r (Sval.Ptr { obj; index = c })
             | Imm _ | Global _ | Null -> ()
           end);
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped_free
  | Assert { cond; _ } ->
      (* mid-trace asserts passed in production *)
      let c = norm_expr I1 (Sval.expect_bv (ev cond)) in
      if not (Expr.is_true c) then push_path st c;
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Spawn { func; args } ->
      let f = Er_ir.Prog.func st.prog func in
      let vargs = List.map ev args in
      let t =
        { tid = st.next_tid; stack = [ make_frame f vargs ~dst:None ];
          depth = 1; live = true }
      in
      st.next_tid <- st.next_tid + 1;
      st.threads <- st.threads @ [ t ];
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Join | Lock _ | Unlock _ ->
      (* synchronization is replayed via the recorded schedule *)
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped

let step_term st (th : thread) (fr : frame) (t : terminator) : step =
  match t with
  | Br l ->
      jump st fr l;
      Stepped
  | Cond_br { cond; if_true; if_false } ->
      let c = norm_expr I1 (Sval.expect_bv (eval_value st fr cond)) in
      let taken = next_branch st in
      (match Expr.to_const c with
       | Some v ->
           if Int64.equal v 1L <> taken then
             raise (Diverge "concrete branch contradicts trace")
       | None ->
           let want = if taken then c else Expr.not_ c in
           push_path st want);
      jump st fr (if taken then if_true else if_false);
      Stepped
  | Ret v -> do_return st th (Option.map (eval_value st fr) v)
  | Abort _ | Unreachable -> Reached_failure

let step_thread st (th : thread) : step =
  match th.stack with
  | [] ->
      th.live <- false;
      Thread_done
  | fr :: _ ->
      if fr.fr_ip < Array.length fr.fr_block.instrs then
        step_instr st th fr fr.fr_block.instrs.(fr.fr_ip)
      else step_term st th fr fr.fr_block.term

(* --- main entry -------------------------------------------------------------- *)

let run_reference ?(config = default_config) (prog : Er_ir.Prog.t)
    ~(trace : Er_trace.Decoder.split) ~(failure : Failure_.t)
    ~(failure_clock : int) : result =
  let st =
    {
      prog;
      cfg = config;
      trace;
      failure;
      failure_clock;
      graph = Cgraph.create ();
      session =
        Solver.Session.create ~budget:config.solver_budget
          ~gate_budget:config.gate_budget ();
      mem = Symmem.create ();
      globals = Hashtbl.create 16;
      lobjs = [||];
      threads = [];
      next_tid = 1;
      clock = 0;
      branch_i = 0;
      data_i = 0;
      sched_i = 0;
      path = [];
      input_log = [];
      input_counters = Hashtbl.create 8;
      solver_calls = 0;
      solver_cost = 0;
      progress = [];
    }
  in
  (* globals allocate in the same order as the concrete runtime *)
  List.iter
    (fun (g : global) ->
       let o = Symmem.alloc st.mem ~elt_ty:g.g_elt_ty ~size:g.g_size ~heap:true in
       (match g.g_init with
        | None -> ()
        | Some init ->
            Array.iteri (fun i v -> Symmem.init_cell o ~index:i v) init);
       Hashtbl.replace st.globals g.gname o.Symmem.s_id)
    prog.program.globals;
  let main_thread =
    { tid = 0; stack = [ make_frame (Er_ir.Prog.main prog) [] ~dst:None ];
      depth = 1; live = true }
  in
  st.threads <- [ main_thread ];
  let thread_by_id tid =
    match List.find_opt (fun t -> t.tid = tid) st.threads with
    | Some t -> t
    | None -> raise (Diverge (Printf.sprintf "schedule names unknown thread %d" tid))
  in
  let finish outcome =
    if M.enabled M.default then begin
      M.add m_steps st.clock;
      M.add m_forks_avoided st.branch_i;
      M.set m_path_constraints (float_of_int (List.length st.path));
      match outcome with
      | Complete _ -> M.inc m_completions
      | Stalled _ -> M.inc m_stalls
      | Diverged _ -> M.inc m_divergences
    end;
    let cs = Solver.Session.cache_stats st.session in
    {
      outcome;
      steps = st.clock;
      solver_calls = st.solver_calls;
      solver_cost = st.solver_cost;
      cache_hits = cs.Solver.Session.cache_hits;
      cache_misses = cs.Solver.Session.cache_misses;
      progress = List.rev st.progress;
    }
  in
  let result = ref None in
  let cur = ref main_thread in
  (try
     while !result = None do
       (* follow the recorded chunk schedule *)
       (if st.sched_i < Array.length st.trace.Er_trace.Decoder.schedule then begin
          let tid, sw_clock = st.trace.Er_trace.Decoder.schedule.(st.sched_i) in
          if st.clock >= sw_clock then begin
            st.sched_i <- st.sched_i + 1;
            cur := thread_by_id tid
          end
        end);
       let th = !cur in
       if st.clock > st.cfg.max_steps then
         raise (Diverge "step budget exhausted")
       else if
         st.clock = st.failure_clock
         && (match th.stack with
             | fr :: _ ->
                 (* clock-free instrumentation executes before the failing
                    instruction is identified *)
                 not
                   (fr.fr_ip < Array.length fr.fr_block.instrs
                    && match fr.fr_block.instrs.(fr.fr_ip) with
                       | Ptwrite _ -> true
                       | _ -> false)
             | [] -> true)
       then begin
         (* we are at the failing instruction *)
         match th.stack with
         | [] -> raise (Diverge "failure clock reached with empty stack")
         | fr :: _ ->
             let here = point_of fr in
             if point_compare here st.failure.Failure_.point <> 0 then
               raise
                 (Diverge
                    (Printf.sprintf "failure point mismatch: at %s, expected %s"
                       (point_to_string here)
                       (point_to_string st.failure.Failure_.point)));
             let failing_instr =
               if fr.fr_ip < Array.length fr.fr_block.instrs then
                 Some fr.fr_block.instrs.(fr.fr_ip)
               else None
             in
             let fc = failure_constraints st fr failing_instr in
             List.iter (push_path st) (List.rev fc);
             (* final solve: compute failure-inducing inputs *)
             (match query st ~at:here [] with
              | None -> raise (Diverge "final path constraint unsatisfiable")
              | Some model ->
                  Cgraph.set_assertions st.graph st.path;
                  result :=
                    Some
                      (finish
                         (Complete
                            {
                              model;
                              input_log = List.rev st.input_log;
                              path_constraints = st.path;
                            })))
       end
       else begin
         match step_thread st th with
         | Stepped -> st.clock <- st.clock + 1
         | Stepped_free -> ()
         | Thread_done -> (
             (* pick any live thread; the schedule will correct us *)
             match List.find_opt (fun t -> t.live) st.threads with
             | Some t -> cur := t
             | None -> raise (Diverge "all threads done before failure point"))
         | Reached_failure ->
             raise
               (Diverge
                  (Printf.sprintf "reached terminator failure early at clock %d"
                     st.clock))
       end
     done;
     match !result with Some r -> r | None -> assert false
   with
   | Diverge msg -> finish (Diverged msg)
   | Stall { at; reason } ->
       Cgraph.set_assertions st.graph st.path;
       M.set m_stall_depth (float_of_int (!cur).depth);
       finish
         (Stalled
            { graph = st.graph; memory = st.mem; stalled_at = at;
              stall_reason = reason }))

(* ======================================================================== *)
(* Lowered engine                                                           *)
(* ======================================================================== *)

(* Shepherding over the pre-lowered code cache ({!Er_ir.Lower}): register
   files are dense [Sval.t array]s, control flow and call targets are
   array indices.  Every [Expr] construction and every solver query is
   made in exactly the order of the reference engine above, so path
   constraints, constraint-graph provenance, and the deterministic
   solver cost are identical — the corpus differential in
   test/test_lower.ml checks solver_cost equality per bug. *)

module L = Er_ir.Lower

type lframe = {
  lfr_func : L.lfunc;
  mutable lfr_block : L.lblock;
  mutable lfr_ip : int;
  lfr_regs : Sval.t array;
  lfr_defined : Bytes.t;   (* per-slot definedness; length 0 when untracked *)
  lfr_dst : int option;
  mutable lfr_stack_objs : int list;
}

type lthread = {
  ltid : int;
  mutable lstack : lframe list;
  mutable ldepth : int;    (* cached [List.length lstack] *)
  mutable llive : bool;
}

let lpoint_of (fr : lframe) =
  { p_func = fr.lfr_func.L.lf_name; p_block = fr.lfr_block.L.lb_label;
    p_index = fr.lfr_ip }

let lev st (fr : lframe) (o : L.operand) : Sval.t =
  match o with
  | L.Oslot s -> Array.unsafe_get fr.lfr_regs s
  | L.Oimm { v; ity } -> Sval.Bv (bvc ~width:(width_of_ty ity) v)
  | L.Onull -> Sval.null
  | L.Oglobal i -> Sval.Ptr { obj = st.lobjs.(i); index = bvc ~width:32 0L }
  | L.Ocheck { slot; reg } ->
      if Bytes.get fr.lfr_defined slot = '\001' then fr.lfr_regs.(slot)
      else
        invalid_arg
          (Printf.sprintf "Exec: read of undefined register %s in %s" reg
             fr.lfr_func.L.lf_name)

let lset_reg st (fr : lframe) slot (sv : Sval.t) =
  (match sv with
   | Sval.Bv e -> Cgraph.define st.graph (lpoint_of fr) e
   | Sval.Ptr { index; _ } -> Cgraph.define st.graph (lpoint_of fr) index);
  fr.lfr_regs.(slot) <- sv;
  if Bytes.length fr.lfr_defined <> 0 then Bytes.set fr.lfr_defined slot '\001'

let empty_defined = Bytes.create 0

let make_lframe (lf : L.lfunc) (args : Sval.t list) ~dst =
  let regs = Array.make lf.L.lf_nslots Sval.null in
  let defined =
    if lf.L.lf_tracked then Bytes.make lf.L.lf_nslots '\000' else empty_defined
  in
  if List.length args <> Array.length lf.L.lf_params then
    invalid_arg (Printf.sprintf "Exec: arity mismatch calling %s" lf.L.lf_name);
  List.iteri
    (fun i sv ->
       let slot, ty = lf.L.lf_params.(i) in
       let sv =
         match sv with
         | Sval.Bv e -> Sval.Bv (norm_expr ty e)
         | Sval.Ptr _ -> sv
       in
       regs.(slot) <- sv;
       if lf.L.lf_tracked then Bytes.set defined slot '\001')
    args;
  { lfr_func = lf; lfr_block = lf.L.lf_blocks.(0); lfr_ip = 0; lfr_regs = regs;
    lfr_defined = defined; lfr_dst = dst; lfr_stack_objs = [] }

let ldo_return st (th : lthread) (v : Sval.t option) : step =
  match th.lstack with
  | [] -> assert false
  | fr :: rest ->
      List.iter
        (fun id ->
           match Symmem.find st.mem id with
           | Some o -> o.Symmem.s_freed <- true
           | None -> ())
        fr.lfr_stack_objs;
      th.lstack <- rest;
      th.ldepth <- th.ldepth - 1;
      (match rest with
       | [] ->
           th.llive <- false;
           Thread_done
       | caller :: _ ->
           (match fr.lfr_dst, v with
            | Some dst, Some sv -> lset_reg st caller dst sv
            | Some dst, None ->
                lset_reg st caller dst (Sval.of_const ~width:64 0L)
            | None, _ -> ());
           Stepped)

let lfailure_constraints st (fr : lframe) (i : L.linstr option) : Expr.t list =
  let ev o = lev st fr o in
  let addr_of = function
    | L.LLoad { addr; _ } | L.LStore { addr; _ } | L.LFree { addr } ->
        Some (ev addr)
    | L.LBin _ | L.LCmp _ | L.LSelect _ | L.LCast _ | L.LAlloc _ | L.LGep _
    | L.LCall _ | L.LInput _ | L.LOutput _ | L.LPtwrite _ | L.LAssert _
    | L.LSpawn _ | L.LJoin | L.LLock _ | L.LUnlock _ ->
        None
  in
  match st.failure.Failure_.kind, i with
  | Failure_.Null_deref, Some instr -> (
      match addr_of instr with
      | Some (Sval.Ptr { obj = 0; _ }) -> []
      | Some (Sval.Ptr _) -> raise (Diverge "expected null pointer, got object")
      | Some (Sval.Bv e) -> [ Expr.eq e (bvc ~width:64 0L) ]
      | None -> raise (Diverge "null-deref failure at non-memory instruction"))
  | Failure_.Out_of_bounds _, Some instr -> (
      match addr_of instr with
      | Some sv ->
          let o, idx = resolve_addr st ~at:st.failure.Failure_.point sv in
          [ Expr.uge idx (bvc ~width:32 (Int64.of_int o.Symmem.s_size)) ]
      | None -> raise (Diverge "out-of-bounds failure at non-memory instruction"))
  | Failure_.Use_after_free _, Some instr -> (
      match addr_of instr with
      | Some sv ->
          let o, _ = resolve_addr st ~at:st.failure.Failure_.point sv in
          if o.Symmem.s_freed then []
          else raise (Diverge "expected freed object at failure point")
      | None -> raise (Diverge "use-after-free at non-memory instruction"))
  | Failure_.Double_free _, Some (L.LFree { addr }) -> (
      match resolve_addr st ~at:st.failure.Failure_.point (ev addr) with
      | o, _ when o.Symmem.s_freed -> []
      | _ -> raise (Diverge "expected freed object at double free"))
  | Failure_.Div_by_zero, Some (L.LBin { ty; b; _ }) ->
      [ Expr.eq (norm_expr ty (Sval.expect_bv (ev b)))
          (bvc ~width:(width_of_ty ty) 0L) ]
  | Failure_.Assert_failed _, Some (L.LAssert { cond; _ }) ->
      [ Expr.eq (norm_expr I1 (Sval.expect_bv (ev cond))) (bvc ~width:1 0L) ]
  | Failure_.Input_exhausted _, _ -> []
  | Failure_.Abort_called _, _ | Failure_.Unreachable_reached, _ -> []
  | Failure_.Access_type_error _, _ | Failure_.Invalid_pointer, _ -> []
  | Failure_.Stack_overflow, _ -> []
  | (Failure_.Deadlock | Failure_.Lock_error _ | Failure_.Hang), _ ->
      raise (Diverge "failure kind not supported by reconstruction")
  | _, None -> []
  | _, Some _ -> raise (Diverge "failure kind does not match failing instruction")

let lstep_instr st (th : lthread) (fr : lframe) (i : L.linstr) : step =
  let at = lpoint_of fr in
  let ev o = lev st fr o in
  let bv ty o = norm_expr ty (Sval.expect_bv (ev o)) in
  match i with
  | L.LBin { dst; op; ty; a; b; _ } ->
      let ea = bv ty a and eb = bv ty b in
      (match op with
       | Udiv | Urem ->
           if not (Expr.is_const eb) then begin
             let nz = Expr.ne eb (bvc ~width:(width_of_ty ty) 0L) in
             push_path st nz
           end
           else if Int64.equal (Option.get (Expr.to_const eb)) 0L then
             raise (Diverge "concrete division by zero mid-trace")
       | _ -> ());
      let result =
        match op, ev a, ev b with
        | Add, Sval.Ptr { obj; index }, other when ty = Ptr ->
            Sval.Ptr
              { obj;
                index = Expr.add index (norm_expr I32 (Sval.expect_bv other)) }
        | Add, other, Sval.Ptr { obj; index } when ty = Ptr ->
            Sval.Ptr
              { obj;
                index = Expr.add index (norm_expr I32 (Sval.expect_bv other)) }
        | _ -> Sval.Bv (Expr.binop (smt_binop op) ea eb)
      in
      lset_reg st fr dst result;
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LCmp { dst; op; ty; a; b; _ } ->
      lset_reg st fr dst (Sval.Bv (sym_cmp op ty (ev a) (ev b)));
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LSelect { dst; ty; cond; if_true; if_false; _ } ->
      let c = norm_expr I1 (Sval.expect_bv (ev cond)) in
      let tv = ev if_true and fv = ev if_false in
      let result =
        match Expr.to_const c with
        | Some 1L -> tv
        | Some _ -> fv
        | None -> (
            match tv, fv with
            | Sval.Ptr { obj = ot; index = it }, Sval.Ptr { obj = of_; index = if_ }
              when ot = of_ ->
                Sval.Ptr { obj = ot; index = Expr.ite c it if_ }
            | _ ->
                Sval.Bv
                  (Expr.ite c
                     (norm_expr ty (Sval.expect_bv tv))
                     (norm_expr ty (Sval.expect_bv fv))))
      in
      lset_reg st fr dst result;
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LCast { dst; kind; to_ty; from_ty; v; _ } ->
      let sv = ev v in
      let result =
        match kind, sv with
        | (Ptrtoint | Inttoptr | Zext), Sval.Ptr _ when width_of_ty to_ty = 64 ->
            sv    (* identity on packed pointers *)
        | Inttoptr, Sval.Bv e when width_of_ty to_ty = 64 ->
            Sval.decode_ptr (norm_expr to_ty e)
        | _ ->
            let e = norm_expr from_ty (Sval.expect_bv sv) in
            let out =
              match kind with
              | Zext | Ptrtoint | Inttoptr ->
                  if width_of_ty to_ty >= Expr.width e then
                    Expr.zero_extend ~to_:(width_of_ty to_ty) e
                  else Expr.truncate ~to_:(width_of_ty to_ty) e
              | Trunc -> Expr.truncate ~to_:(width_of_ty to_ty) e
              | Sext -> Expr.sign_extend_e ~to_:(width_of_ty to_ty) e
            in
            Sval.Bv out
      in
      lset_reg st fr dst result;
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LLoad { dst; ty; addr } ->
      let o, idx = resolve_addr st ~at (ev addr) in
      if not (access_ty_ok o ty) then
        raise (Diverge "access type mismatch mid-trace");
      check_bounds st ~at o idx;
      let e = Symmem.read o idx in
      let sv = if ty = Ptr then Sval.decode_ptr e else Sval.Bv e in
      lset_reg st fr dst sv;
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LStore { ty; v; addr; _ } ->
      let o, idx = resolve_addr st ~at (ev addr) in
      if not (access_ty_ok o ty) then
        raise (Diverge "access type mismatch mid-trace");
      check_bounds st ~at o idx;
      Symmem.write o idx (bv ty v);
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LAlloc { dst; elt_ty; count; heap } ->
      let recorded = next_data st in
      let c = bv I32 count in
      (if not (Expr.is_const c) then
         push_path st (Expr.eq c (bvc ~width:32 recorded))
       else if not (Int64.equal (Option.get (Expr.to_const c)) recorded) then
         raise (Diverge "allocation size contradicts trace"));
      let n = Int64.to_int recorded in
      let o = Symmem.alloc st.mem ~elt_ty ~size:n ~heap in
      if not heap then fr.lfr_stack_objs <- o.Symmem.s_id :: fr.lfr_stack_objs;
      lset_reg st fr dst
        (Sval.Ptr { obj = o.Symmem.s_id; index = bvc ~width:32 0L });
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LFree { addr } ->
      let o, _ = resolve_addr st ~at (ev addr) in
      if o.Symmem.s_freed then raise (Diverge "double free mid-trace");
      o.Symmem.s_freed <- true;
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LGep { dst; base; idx } ->
      let delta =
        let e = Sval.expect_bv (ev idx) in
        if Expr.width e = 32 then e
        else if Expr.width e > 32 then Expr.truncate ~to_:32 e
        else Expr.sign_extend_e ~to_:32 e
      in
      (match ev base with
       | Sval.Ptr { obj; index } ->
           lset_reg st fr dst (Sval.Ptr { obj; index = Expr.add index delta })
       | Sval.Bv e ->
           (match Sval.decode_ptr e with
            | Sval.Ptr { obj; index } ->
                lset_reg st fr dst
                  (Sval.Ptr { obj; index = Expr.add index delta })
            | Sval.Bv e ->
                lset_reg st fr dst
                  (Sval.Bv (Expr.add e (Expr.zero_extend ~to_:64 delta)))));
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LCall { dst; fidx; args } ->
      let low = Er_ir.Prog.lowered st.prog in
      let lf = low.L.l_funcs.(fidx) in
      let vargs = Array.to_list (Array.map ev args) in
      fr.lfr_ip <- fr.lfr_ip + 1;
      th.lstack <- make_lframe lf vargs ~dst :: th.lstack;
      th.ldepth <- th.ldepth + 1;
      Stepped
  | L.LInput { dst; ty; stream } ->
      lset_reg st fr dst (Sval.Bv (fresh_input st stream ty));
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LOutput _ ->
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LPtwrite { v } ->
      let recorded = next_data st in
      (match ev v with
       | Sval.Bv e ->
           let c = bvc ~width:(Expr.width e) recorded in
           if not (Expr.is_const e) then begin
             push_path st (Expr.eq e c);
             (* subsequent uses of the register see the concrete value;
                the write is hook-free and provenance-free, like the raw
                [Hashtbl.replace] of the reference engine *)
             (match v with
              | L.Oslot s -> fr.lfr_regs.(s) <- Sval.Bv c
              | L.Ocheck { slot; _ } -> fr.lfr_regs.(slot) <- Sval.Bv c
              | L.Oimm _ | L.Oglobal _ | L.Onull -> ())
           end
       | Sval.Ptr { obj; index } ->
           let idx_c = Int64.of_int (Er_vm.Memory.ptr_index recorded) in
           let c = bvc ~width:32 idx_c in
           if not (Expr.is_const index) then begin
             push_path st (Expr.eq index c);
             match v with
             | L.Oslot s -> fr.lfr_regs.(s) <- Sval.Ptr { obj; index = c }
             | L.Ocheck { slot; _ } ->
                 fr.lfr_regs.(slot) <- Sval.Ptr { obj; index = c }
             | L.Oimm _ | L.Oglobal _ | L.Onull -> ()
           end);
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped_free
  | L.LAssert { cond; _ } ->
      let c = norm_expr I1 (Sval.expect_bv (ev cond)) in
      if not (Expr.is_true c) then push_path st c;
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LSpawn { fidx; args } ->
      let low = Er_ir.Prog.lowered st.prog in
      let lf = low.L.l_funcs.(fidx) in
      let vargs = Array.to_list (Array.map ev args) in
      let t =
        { ltid = st.next_tid; lstack = [ make_lframe lf vargs ~dst:None ];
          ldepth = 1; llive = true }
      in
      st.next_tid <- st.next_tid + 1;
      st.threads <- st.threads @ [ t ];
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped
  | L.LJoin | L.LLock _ | L.LUnlock _ ->
      fr.lfr_ip <- fr.lfr_ip + 1;
      Stepped

let lstep_term st (th : lthread) (fr : lframe) (t : L.lterm) : step =
  match t with
  | L.LBr i ->
      fr.lfr_block <- fr.lfr_func.L.lf_blocks.(i);
      fr.lfr_ip <- 0;
      Stepped
  | L.LCond_br { cond; if_true; if_false } ->
      let c = norm_expr I1 (Sval.expect_bv (lev st fr cond)) in
      let taken = next_branch st in
      (match Expr.to_const c with
       | Some v ->
           if Int64.equal v 1L <> taken then
             raise (Diverge "concrete branch contradicts trace")
       | None ->
           let want = if taken then c else Expr.not_ c in
           push_path st want);
      fr.lfr_block <- fr.lfr_func.L.lf_blocks.(if taken then if_true else if_false);
      fr.lfr_ip <- 0;
      Stepped
  | L.LRet v -> ldo_return st th (Option.map (lev st fr) v)
  | L.LAbort _ | L.LUnreachable -> Reached_failure

let lstep_thread st (th : lthread) : step =
  match th.lstack with
  | [] ->
      th.llive <- false;
      Thread_done
  | fr :: _ ->
      if fr.lfr_ip < Array.length fr.lfr_block.L.lb_instrs then
        lstep_instr st th fr fr.lfr_block.L.lb_instrs.(fr.lfr_ip)
      else lstep_term st th fr fr.lfr_block.L.lb_term

let run ?(config = default_config) (prog : Er_ir.Prog.t)
    ~(trace : Er_trace.Decoder.split) ~(failure : Failure_.t)
    ~(failure_clock : int) : result =
  let low = Er_ir.Prog.lowered prog in
  let st =
    {
      prog;
      cfg = config;
      trace;
      failure;
      failure_clock;
      graph = Cgraph.create ();
      session =
        Solver.Session.create ~budget:config.solver_budget
          ~gate_budget:config.gate_budget ();
      mem = Symmem.create ();
      globals = Hashtbl.create 16;
      lobjs = Array.make (Array.length low.L.l_globals) 0;
      threads = [];
      next_tid = 1;
      clock = 0;
      branch_i = 0;
      data_i = 0;
      sched_i = 0;
      path = [];
      input_log = [];
      input_counters = Hashtbl.create 8;
      solver_calls = 0;
      solver_cost = 0;
      progress = [];
    }
  in
  (* globals allocate in the same order as the concrete runtime *)
  Array.iteri
    (fun gi (g : global) ->
       let o = Symmem.alloc st.mem ~elt_ty:g.g_elt_ty ~size:g.g_size ~heap:true in
       (match g.g_init with
        | None -> ()
        | Some init ->
            Array.iteri (fun i v -> Symmem.init_cell o ~index:i v) init);
       Hashtbl.replace st.globals g.gname o.Symmem.s_id;
       st.lobjs.(gi) <- o.Symmem.s_id)
    low.L.l_globals;
  let main_thread =
    { ltid = 0;
      lstack = [ make_lframe low.L.l_funcs.(low.L.l_main) [] ~dst:None ];
      ldepth = 1; llive = true }
  in
  st.threads <- [ main_thread ];
  let thread_by_id tid =
    match List.find_opt (fun t -> t.ltid = tid) st.threads with
    | Some t -> t
    | None -> raise (Diverge (Printf.sprintf "schedule names unknown thread %d" tid))
  in
  let finish outcome =
    if M.enabled M.default then begin
      M.add m_steps st.clock;
      M.add m_forks_avoided st.branch_i;
      M.set m_path_constraints (float_of_int (List.length st.path));
      match outcome with
      | Complete _ -> M.inc m_completions
      | Stalled _ -> M.inc m_stalls
      | Diverged _ -> M.inc m_divergences
    end;
    let cs = Solver.Session.cache_stats st.session in
    {
      outcome;
      steps = st.clock;
      solver_calls = st.solver_calls;
      solver_cost = st.solver_cost;
      cache_hits = cs.Solver.Session.cache_hits;
      cache_misses = cs.Solver.Session.cache_misses;
      progress = List.rev st.progress;
    }
  in
  let result = ref None in
  let cur = ref main_thread in
  (try
     while !result = None do
       (* follow the recorded chunk schedule *)
       (if st.sched_i < Array.length st.trace.Er_trace.Decoder.schedule then begin
          let tid, sw_clock = st.trace.Er_trace.Decoder.schedule.(st.sched_i) in
          if st.clock >= sw_clock then begin
            st.sched_i <- st.sched_i + 1;
            cur := thread_by_id tid
          end
        end);
       let th = !cur in
       if st.clock > st.cfg.max_steps then
         raise (Diverge "step budget exhausted")
       else if
         st.clock = st.failure_clock
         && (match th.lstack with
             | fr :: _ ->
                 (* clock-free instrumentation executes before the failing
                    instruction is identified *)
                 not
                   (fr.lfr_ip < Array.length fr.lfr_block.L.lb_instrs
                    && match fr.lfr_block.L.lb_instrs.(fr.lfr_ip) with
                       | L.LPtwrite _ -> true
                       | _ -> false)
             | [] -> true)
       then begin
         (* we are at the failing instruction *)
         match th.lstack with
         | [] -> raise (Diverge "failure clock reached with empty stack")
         | fr :: _ ->
             let here = lpoint_of fr in
             if point_compare here st.failure.Failure_.point <> 0 then
               raise
                 (Diverge
                    (Printf.sprintf "failure point mismatch: at %s, expected %s"
                       (point_to_string here)
                       (point_to_string st.failure.Failure_.point)));
             let failing_instr =
               if fr.lfr_ip < Array.length fr.lfr_block.L.lb_instrs then
                 Some fr.lfr_block.L.lb_instrs.(fr.lfr_ip)
               else None
             in
             let fc = lfailure_constraints st fr failing_instr in
             List.iter (push_path st) (List.rev fc);
             (* final solve: compute failure-inducing inputs *)
             (match query st ~at:here [] with
              | None -> raise (Diverge "final path constraint unsatisfiable")
              | Some model ->
                  Cgraph.set_assertions st.graph st.path;
                  result :=
                    Some
                      (finish
                         (Complete
                            {
                              model;
                              input_log = List.rev st.input_log;
                              path_constraints = st.path;
                            })))
       end
       else begin
         match lstep_thread st th with
         | Stepped -> st.clock <- st.clock + 1
         | Stepped_free -> ()
         | Thread_done -> (
             (* pick any live thread; the schedule will correct us *)
             match List.find_opt (fun t -> t.llive) st.threads with
             | Some t -> cur := t
             | None -> raise (Diverge "all threads done before failure point"))
         | Reached_failure ->
             raise
               (Diverge
                  (Printf.sprintf "reached terminator failure early at clock %d"
                     st.clock))
       end
     done;
     match !result with Some r -> r | None -> assert false
   with
   | Diverge msg -> finish (Diverged msg)
   | Stall { at; reason } ->
       Cgraph.set_assertions st.graph st.path;
       M.set m_stall_depth (float_of_int (!cur).ldepth);
       finish
         (Stalled
            { graph = st.graph; memory = st.mem; stalled_at = at;
              stall_reason = reason }))
