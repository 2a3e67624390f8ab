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
   next failure occurrence.

   Two engines run this one algorithm.  The reference engine
   ([run_reference]) walks the IR with string-keyed register files and is
   the differential oracle; the lowered engine ([run]) steps the code
   cache of {!Er_ir.Lower} with slot-array register files.  They share the
   thread and state records, every instruction's symbolic semantics, the
   failure constraints, call/return/spawn and the run loop ([shepherd]).
   Each engine keeps only its frame type, operand evaluation, register
   write, block and callee resolution, and a thin dispatch over its own
   instruction type — so both make the same terms in the same order and
   the same solver queries.  Only the reference engine checks register
   definedness and call arity at run time; the lowered one relies on
   the validation [Lower.compile] runs.  The lowered engine first
   replays a long input-free prefix on the compiled VM and shepherds
   from its state (see "Fast-forward" below). *)

open Er_ir.Types
module Expr = Er_smt.Expr
module Solver = Er_smt.Solver
module Failure_ = Er_vm.Failure
module M = Er_metrics
module L = Er_ir.Lower

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
}

let default_config = { solver_budget = 600_000; gate_budget = 120_000 }

(* Step bound of one run, in traced instructions. *)
let max_steps = 30_000_000

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

(* Threads and the executor state are polymorphic in the engine's frame. *)
type 'fr thread = {
  tid : int;
  mutable stack : 'fr list;
  mutable depth : int;          (* cached [List.length stack] *)
  mutable live : bool;
}

type 'fr st = {
  prog : Er_ir.Prog.t;
  cfg : config;
  trace : Er_trace.Decoder.split;
  failure : Failure_.t;
  failure_clock : int;
  graph : Cgraph.t;
  session : Solver.Session.t;   (* one incremental session per run *)
  mem : Symmem.t;
  globals : (string, int) Hashtbl.t;      (* name -> object id *)
  lobjs : int array;            (* global object ids, in program order *)
  mutable threads : 'fr thread list;
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

(* An argument bound to a parameter of type [ty]. *)
let norm_arg ty (sv : Sval.t) =
  match sv with
  | Sval.Bv e -> Sval.Bv (norm_expr ty e)
  | Sval.Ptr _ -> sv

(* Provenance: a register definition at [at] is a recordable program
   point. *)
let define st at (sv : Sval.t) =
  match sv with
  | Sval.Bv e -> Cgraph.define st.graph at e
  | Sval.Ptr { index; _ } -> Cgraph.define st.graph at index

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

(* A non-failing access has the object's element type and is in bounds;
   with a symbolic index this is where the solver gets invoked and where
   stalls happen. *)
let check_access st ~at (o : Symmem.sobj) ty idx =
  if o.Symmem.s_elt_ty <> ty then
    raise (Diverge "access type mismatch mid-trace");
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

(* --- the trace ------------------------------------------------------------- *)

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

(* --- instruction semantics ----------------------------------------------- *)

(* What each instruction computes, for both engines.  Operands are read
   through the engine's evaluator [ev] in a fixed order: term interning
   follows it, and the solver trajectory follows the interning order.
   The engine writes the result register and advances its frame. *)

let bv ev ty v = norm_expr ty (Sval.expect_bv (ev v))

let bin st ev op ty a b : Sval.t =
  let ea = bv ev ty a and eb = bv ev ty b in
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
  match op, ev a, ev b with
  | Add, Sval.Ptr { obj; index }, other when ty = Ptr ->
      Sval.Ptr { obj; index = Expr.add index (norm_expr I32 (Sval.expect_bv other)) }
  | Add, other, Sval.Ptr { obj; index } when ty = Ptr ->
      Sval.Ptr { obj; index = Expr.add index (norm_expr I32 (Sval.expect_bv other)) }
  | _ -> Sval.Bv (Expr.binop (smt_binop op) ea eb)

let select ev ty cond if_true if_false : Sval.t =
  let c = norm_expr I1 (Sval.expect_bv (ev cond)) in
  let tv = ev if_true and fv = ev if_false in
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

let cast ev kind ~from_ty ~to_ty v : Sval.t =
  let sv = ev v in
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

let load st ~at ev ty addr : Sval.t =
  let o, idx = resolve_addr st ~at (ev addr) in
  check_access st ~at o ty idx;
  let e = Symmem.read o idx in
  if ty = Ptr then Sval.decode_ptr e else Sval.Bv e

let store st ~at ev ty v addr =
  let o, idx = resolve_addr st ~at (ev addr) in
  check_access st ~at o ty idx;
  Symmem.write o idx (bv ev ty v)

(* The runtime always traces allocation sizes; bind the symbolic count to
   the recorded concrete size.  The engine keeps a stack object for
   freeing on return. *)
let alloc st ev ~elt_ty count : Symmem.sobj =
  let recorded = next_data st in
  let c = bv ev I32 count in
  (if not (Expr.is_const c) then
     push_path st (Expr.eq c (bvc ~width:32 recorded))
   else if not (Int64.equal (Option.get (Expr.to_const c)) recorded) then
     raise (Diverge "allocation size contradicts trace"));
  Symmem.alloc st.mem ~elt_ty ~size:(Int64.to_int recorded)

let obj_ptr (o : Symmem.sobj) =
  Sval.Ptr { obj = o.Symmem.s_id; index = bvc ~width:32 0L }

let free st ~at ev addr =
  let o, _ = resolve_addr st ~at (ev addr) in
  if o.Symmem.s_freed then raise (Diverge "double free mid-trace");
  o.Symmem.s_freed <- true

let gep ev base idx : Sval.t =
  let delta =
    let e = Sval.expect_bv (ev idx) in
    if Expr.width e = 32 then e
    else if Expr.width e > 32 then Expr.truncate ~to_:32 e
    else Expr.sign_extend_e ~to_:32 e
  in
  match ev base with
  | Sval.Ptr { obj; index } -> Sval.Ptr { obj; index = Expr.add index delta }
  | Sval.Bv e -> (
      match Sval.decode_ptr e with
      | Sval.Ptr { obj; index } -> Sval.Ptr { obj; index = Expr.add index delta }
      | Sval.Bv e -> Sval.Bv (Expr.add e (Expr.zero_extend ~to_:64 delta)))

(* Consume the recorded value and concretize (section 3.3.3).  A
   symbolic operand returns the concrete value its register holds from
   here on; the engine writes it without hooks or provenance. *)
let ptwrite st ev v : Sval.t option =
  let recorded = next_data st in
  match ev v with
  | Sval.Bv e ->
      let c = bvc ~width:(Expr.width e) recorded in
      if Expr.is_const e then None
      else begin
        push_path st (Expr.eq e c);
        Some (Sval.Bv c)
      end
  | Sval.Ptr { obj; index } ->
      let idx_c = Int64.of_int (Er_vm.Memory.ptr_index recorded) in
      let c = bvc ~width:32 idx_c in
      if Expr.is_const index then None
      else begin
        push_path st (Expr.eq index c);
        Some (Sval.Ptr { obj; index = c })
      end

(* mid-trace asserts passed in production *)
let assert_passed st ev cond =
  let c = norm_expr I1 (Sval.expect_bv (ev cond)) in
  if not (Expr.is_true c) then push_path st c

(* A conditional branch follows the next TNT bit; the condition's value
   [cond] is asserted to take the recorded direction, which is returned.
   It takes the value rather than an evaluator, as the condition is read
   first: terminator steps build no evaluator closure. *)
let branch st (cond : Sval.t) =
  let c = norm_expr I1 (Sval.expect_bv cond) in
  let taken = next_branch st in
  (match Expr.to_const c with
   | Some v ->
       if Int64.equal v 1L <> taken then
         raise (Diverge "concrete branch contradicts trace")
   | None ->
       let want = if taken then c else Expr.not_ c in
       push_path st want);
  taken

(* --- calls, returns, threads ----------------------------------------------- *)

type step = Stepped | Stepped_free | Thread_done | Reached_failure

let call th callee =
  th.stack <- callee :: th.stack;
  th.depth <- th.depth + 1;
  Stepped

let spawn st frame =
  let t = { tid = st.next_tid; stack = [ frame ]; depth = 1; live = true } in
  st.next_tid <- st.next_tid + 1;
  st.threads <- st.threads @ [ t ]

(* Pop [th]'s top frame, whose stack objects are [objs] and whose result
   goes to the caller's register [dst] through the engine's [set_reg]. *)
let do_return st th ~set_reg ~objs ~dst (v : Sval.t option) : step =
  match th.stack with
  | [] -> assert false
  | _ :: rest ->
      List.iter
        (fun id ->
           match Symmem.find st.mem id with
           | Some o -> o.Symmem.s_freed <- true
           | None -> ())
        objs;
      th.stack <- rest;
      th.depth <- th.depth - 1;
      (match rest with
       | [] ->
           th.live <- false;
           Thread_done
       | caller :: _ ->
           (match dst, v with
            | Some dst, Some sv -> set_reg st caller dst sv
            | Some dst, None -> set_reg st caller dst (Sval.of_const ~width:64 0L)
            | None, _ -> ());
           Stepped)

(* --- the failing instruction ------------------------------------------------ *)

(* The instruction at the failure clock, as [failure_constraints] sees
   it; an operand is read only if a constraint needs it. *)
type failing =
  | At_terminator
  | At_access of { addr : unit -> Sval.t; free : bool }  (* load, store, free *)
  | At_bin of { ty : ty; divisor : unit -> Sval.t }
  | At_assert of (unit -> Sval.t)
  | At_other

(* Constraints that make the final instruction fail the way production did. *)
let failure_constraints st (i : failing) : Expr.t list =
  let at = st.failure.Failure_.point in
  let addr what =
    match i with
    | At_access { addr; _ } -> addr ()
    | At_terminator | At_bin _ | At_assert _ | At_other ->
        raise (Diverge (what ^ " at non-memory instruction"))
  in
  match st.failure.Failure_.kind, i with
  | (Failure_.Deadlock | Failure_.Lock_error _ | Failure_.Hang), _ ->
      raise (Diverge "failure kind not supported by reconstruction")
  | _, At_terminator -> []
  | Failure_.Null_deref, _ -> (
      match addr "null-deref failure" with
      | Sval.Ptr { obj = 0; _ } -> []
      | Sval.Ptr _ -> raise (Diverge "expected null pointer, got object")
      | Sval.Bv e -> [ Expr.eq e (bvc ~width:64 0L) ])
  | Failure_.Out_of_bounds _, _ ->
      let o, idx = resolve_addr st ~at (addr "out-of-bounds failure") in
      [ Expr.uge idx (bvc ~width:32 (Int64.of_int o.Symmem.s_size)) ]
  | Failure_.Use_after_free _, _ ->
      let o, _ = resolve_addr st ~at (addr "use-after-free") in
      if o.Symmem.s_freed then []
      else raise (Diverge "expected freed object at failure point")
  | Failure_.Double_free _, At_access { addr; free = true } -> (
      match resolve_addr st ~at (addr ()) with
      | o, _ when o.Symmem.s_freed -> []
      | _ -> raise (Diverge "expected freed object at double free"))
  | Failure_.Div_by_zero, At_bin { ty; divisor } ->
      [ Expr.eq (norm_expr ty (Sval.expect_bv (divisor ())))
          (bvc ~width:(width_of_ty ty) 0L) ]
  | Failure_.Assert_failed _, At_assert cond ->
      [ Expr.eq (norm_expr I1 (Sval.expect_bv (cond ()))) (bvc ~width:1 0L) ]
  | ( ( Failure_.Input_exhausted _ | Failure_.Abort_called _
      | Failure_.Unreachable_reached | Failure_.Access_type_error _
      | Failure_.Invalid_pointer | Failure_.Stack_overflow ),
      _ ) ->
      []
  | (Failure_.Double_free _ | Failure_.Div_by_zero | Failure_.Assert_failed _), _
    ->
      raise (Diverge "failure kind does not match failing instruction")

(* --- the run loop ---------------------------------------------------------- *)

(* What [shepherd] needs of an engine. *)
type 'fr engine = {
  step_thread : 'fr st -> 'fr thread -> 'fr -> step;
      (* run the next instruction or terminator of the thread's top frame *)
  point_of : 'fr -> point;
  at_ptwrite : 'fr -> bool;   (* the frame's next instruction is a ptwrite *)
  failing : 'fr st -> 'fr -> failing;
}

(* A run's state before its first step: nothing allocated, at clock 0
   of the trace. *)
let new_state ~config (prog : Er_ir.Prog.t) ~trace ~failure ~failure_clock =
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
    lobjs = Array.make (List.length prog.Er_ir.Prog.program.globals) 0;
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

(* Start [st] at clock 0: the globals allocated in the same order as the
   concrete runtime, and [main] the main thread's only frame. *)
let start_at_zero st main =
  List.iteri
    (fun gi (g : global) ->
       let o = Symmem.alloc st.mem ~elt_ty:g.g_elt_ty ~size:g.g_size in
       (match g.g_init with
        | None -> ()
        | Some init ->
            Array.iteri (fun i v -> Symmem.init_cell o ~index:i v) init);
       Hashtbl.replace st.globals g.gname o.Symmem.s_id;
       st.lobjs.(gi) <- o.Symmem.s_id)
    st.prog.Er_ir.Prog.program.globals;
  st.threads <- [ { tid = 0; stack = [ main ]; depth = 1; live = true } ]

(* Shepherd [st] from its clock to the failure: the main thread runs
   first, and the trace cursors continue from where [st] holds them. *)
let shepherd eng st : result =
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
  (* the failing instruction: make it fail the way production did, then
     solve for failure-inducing inputs *)
  let solve fr =
    let here = eng.point_of fr in
    if point_compare here st.failure.Failure_.point <> 0 then
      raise
        (Diverge
           (Printf.sprintf "failure point mismatch: at %s, expected %s"
              (point_to_string here)
              (point_to_string st.failure.Failure_.point)));
    let fc = failure_constraints st (eng.failing st fr) in
    List.iter (push_path st) (List.rev fc);
    match query st ~at:here [] with
    | None -> raise (Diverge "final path constraint unsatisfiable")
    | Some model ->
        Cgraph.set_assertions st.graph st.path;
        finish
          (Complete
             { model; input_log = List.rev st.input_log;
               path_constraints = st.path })
  in
  let cur = ref (List.hd st.threads) in
  let rec loop () =
    (* follow the recorded chunk schedule *)
    (if st.sched_i < Array.length st.trace.Er_trace.Decoder.schedule then begin
       let tid, sw_clock = st.trace.Er_trace.Decoder.schedule.(st.sched_i) in
       if st.clock >= sw_clock then begin
         st.sched_i <- st.sched_i + 1;
         cur := thread_by_id tid
       end
     end);
    let th = !cur in
    if st.clock > max_steps then raise (Diverge "step budget exhausted");
    match th.stack with
    | [] when st.clock = st.failure_clock ->
        raise (Diverge "failure clock reached with empty stack")
    | fr :: _ when st.clock = st.failure_clock && not (eng.at_ptwrite fr) ->
        (* clock-free instrumentation executes before the failing
           instruction is identified *)
        solve fr
    | stack ->
        let step =
          match stack with
          | [] ->
              th.live <- false;
              Thread_done
          | fr :: _ -> eng.step_thread st th fr
        in
        (match step with
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
                     st.clock)));
        loop ()
  in
  try loop () with
  | Diverge msg -> finish (Diverged msg)
  | Stall { at; reason } ->
      Cgraph.set_assertions st.graph st.path;
      M.set m_stall_depth (float_of_int (!cur).depth);
      finish
        (Stalled
           { graph = st.graph; memory = st.mem; stalled_at = at;
             stall_reason = reason })

(* ======================================================================== *)
(* Reference engine: the IR as written                                      *)
(* ======================================================================== *)

module Reference = struct
  type frame = {
    fr_func : func;
    mutable fr_block : block;
    mutable fr_ip : int;
    fr_regs : (string, Sval.t) Hashtbl.t;
    fr_dst : reg option;
    mutable fr_stack_objs : int list;
  }

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

  let set_reg st (fr : frame) r sv =
    define st (point_of fr) sv;
    Hashtbl.replace fr.fr_regs r sv

  let next (fr : frame) =
    fr.fr_ip <- fr.fr_ip + 1;
    Stepped

  (* retire an instruction that defines [r] *)
  let def st fr r sv =
    set_reg st fr r sv;
    next fr

  let make_frame (f : func) (args : Sval.t list) ~dst =
    let regs = Hashtbl.create 16 in
    (try
       List.iter2
         (fun (r, ty) sv -> Hashtbl.replace regs r (norm_arg ty sv))
         f.params args
     with Invalid_argument _ ->
       invalid_arg (Printf.sprintf "Exec: arity mismatch calling %s" f.fname));
    match f.blocks with
    | [] -> assert false
    | entry :: _ ->
        { fr_func = f; fr_block = entry; fr_ip = 0; fr_regs = regs; fr_dst = dst;
          fr_stack_objs = [] }

  let jump st (fr : frame) label =
    fr.fr_block <- Er_ir.Prog.block st.prog ~func:fr.fr_func.fname ~label;
    fr.fr_ip <- 0;
    Stepped

  let step_instr st th (fr : frame) (i : instr) : step =
    let ev v = eval_value st fr v in
    match i with
    | Bin { dst; op; ty; a; b } -> def st fr dst (bin st ev op ty a b)
    | Cmp { dst; op; ty; a; b } ->
        def st fr dst (Sval.Bv (sym_cmp op ty (ev a) (ev b)))
    | Select { dst; ty; cond; if_true; if_false } ->
        def st fr dst (select ev ty cond if_true if_false)
    | Cast { dst; kind; to_ty; v; from_ty } ->
        def st fr dst (cast ev kind ~from_ty ~to_ty v)
    | Load { dst; ty; addr } ->
        def st fr dst (load st ~at:(point_of fr) ev ty addr)
    | Store { ty; v; addr } ->
        store st ~at:(point_of fr) ev ty v addr;
        next fr
    | Alloc { dst; elt_ty; count; heap } ->
        let o = alloc st ev ~elt_ty count in
        if not heap then fr.fr_stack_objs <- o.Symmem.s_id :: fr.fr_stack_objs;
        def st fr dst (obj_ptr o)
    | Free { addr } ->
        free st ~at:(point_of fr) ev addr;
        next fr
    | Gep { dst; base; idx } -> def st fr dst (gep ev base idx)
    | Call { dst; func; args } ->
        let f = Er_ir.Prog.func st.prog func in
        let vargs = List.map ev args in
        fr.fr_ip <- fr.fr_ip + 1;
        call th (make_frame f vargs ~dst)
    | Input { dst; ty; stream } ->
        def st fr dst (Sval.Bv (fresh_input st stream ty))
    | Ptwrite { v } ->
        (match ptwrite st ev v, v with
         | Some c, Reg r -> Hashtbl.replace fr.fr_regs r c
         | _ -> ());
        fr.fr_ip <- fr.fr_ip + 1;
        Stepped_free
    | Assert { cond; _ } ->
        assert_passed st ev cond;
        next fr
    | Spawn { func; args } ->
        let f = Er_ir.Prog.func st.prog func in
        let vargs = List.map ev args in
        spawn st (make_frame f vargs ~dst:None);
        next fr
    | Output _ | Join | Lock _ | Unlock _ ->
        (* output is not symbolic; synchronization is replayed via the
           recorded schedule *)
        next fr

  let step_term st th (fr : frame) (t : terminator) : step =
    match t with
    | Br l -> jump st fr l
    | Cond_br { cond; if_true; if_false } ->
        jump st fr (if branch st (eval_value st fr cond) then if_true else if_false)
    | Ret v ->
        do_return st th ~set_reg ~objs:fr.fr_stack_objs ~dst:fr.fr_dst
          (Option.map (eval_value st fr) v)
    | Abort _ | Unreachable -> Reached_failure

  let failing st (fr : frame) : failing =
    let ev v () = eval_value st fr v in
    if fr.fr_ip >= Array.length fr.fr_block.instrs then At_terminator
    else
      match fr.fr_block.instrs.(fr.fr_ip) with
      | Load { addr; _ } | Store { addr; _ } ->
          At_access { addr = ev addr; free = false }
      | Free { addr } -> At_access { addr = ev addr; free = true }
      | Bin { ty; b; _ } -> At_bin { ty; divisor = ev b }
      | Assert { cond; _ } -> At_assert (ev cond)
      | Cmp _ | Select _ | Cast _ | Alloc _ | Gep _ | Call _ | Input _ | Output _
      | Ptwrite _ | Spawn _ | Join | Lock _ | Unlock _ ->
          At_other

  let engine =
    {
      step_thread =
        (fun st th fr ->
           if fr.fr_ip < Array.length fr.fr_block.instrs then
             step_instr st th fr fr.fr_block.instrs.(fr.fr_ip)
           else step_term st th fr fr.fr_block.term);
      point_of;
      at_ptwrite =
        (fun fr ->
           fr.fr_ip < Array.length fr.fr_block.instrs
           && match fr.fr_block.instrs.(fr.fr_ip) with
              | Ptwrite _ -> true
              | _ -> false);
      failing;
    }
end

(* ======================================================================== *)
(* Lowered engine: the code cache of {!Er_ir.Lower}                         *)
(* ======================================================================== *)

(* Register files are dense [Sval.t array]s; control flow and call
   targets are array indices. *)
module Lowered = struct
  type frame = {
    fr_func : L.lfunc;
    mutable fr_block : L.lblock;
    mutable fr_ip : int;
    fr_regs : Sval.t array;
    fr_dst : int option;
    mutable fr_stack_objs : int list;
  }

  let point_of (fr : frame) =
    { p_func = fr.fr_func.L.lf_name; p_block = fr.fr_block.L.lb_label;
      p_index = fr.fr_ip }

  let eval st (fr : frame) (o : L.operand) : Sval.t =
    match o with
    | L.Oslot s -> Array.unsafe_get fr.fr_regs s
    | L.Oimm { v; ity } -> Sval.Bv (bvc ~width:(width_of_ty ity) v)
    | L.Onull -> Sval.null
    | L.Oglobal i -> Sval.Ptr { obj = st.lobjs.(i); index = bvc ~width:32 0L }

  let set_reg st (fr : frame) slot sv =
    define st (point_of fr) sv;
    fr.fr_regs.(slot) <- sv

  let next (fr : frame) =
    fr.fr_ip <- fr.fr_ip + 1;
    Stepped

  (* retire an instruction that defines [slot] *)
  let def st fr slot sv =
    set_reg st fr slot sv;
    next fr

  let make_frame (lf : L.lfunc) (args : Sval.t list) ~dst =
    let regs = Array.make lf.L.lf_nslots Sval.null in
    List.iteri
      (fun i sv ->
         let slot, ty = lf.L.lf_params.(i) in
         regs.(slot) <- norm_arg ty sv)
      args;
    { fr_func = lf; fr_block = lf.L.lf_blocks.(0); fr_ip = 0; fr_regs = regs;
      fr_dst = dst; fr_stack_objs = [] }

  let jump (fr : frame) i =
    fr.fr_block <- fr.fr_func.L.lf_blocks.(i);
    fr.fr_ip <- 0;
    Stepped

  let callee st fidx = (Er_ir.Prog.lowered st.prog).L.l_funcs.(fidx)

  let step_instr st th (fr : frame) (i : L.linstr) : step =
    let ev o = eval st fr o in
    match i with
    | L.LBin { dst; op; ty; a; b; _ } -> def st fr dst (bin st ev op ty a b)
    | L.LCmp { dst; op; ty; a; b; _ } ->
        def st fr dst (Sval.Bv (sym_cmp op ty (ev a) (ev b)))
    | L.LSelect { dst; ty; cond; if_true; if_false; _ } ->
        def st fr dst (select ev ty cond if_true if_false)
    | L.LCast { dst; kind; to_ty; from_ty; v; _ } ->
        def st fr dst (cast ev kind ~from_ty ~to_ty v)
    | L.LLoad { dst; ty; addr } ->
        def st fr dst (load st ~at:(point_of fr) ev ty addr)
    | L.LStore { ty; v; addr; _ } ->
        store st ~at:(point_of fr) ev ty v addr;
        next fr
    | L.LAlloc { dst; elt_ty; count; heap } ->
        let o = alloc st ev ~elt_ty count in
        if not heap then fr.fr_stack_objs <- o.Symmem.s_id :: fr.fr_stack_objs;
        def st fr dst (obj_ptr o)
    | L.LFree { addr } ->
        free st ~at:(point_of fr) ev addr;
        next fr
    | L.LGep { dst; base; idx } -> def st fr dst (gep ev base idx)
    | L.LCall { dst; fidx; args } ->
        let lf = callee st fidx in
        let vargs = Array.to_list (Array.map ev args) in
        fr.fr_ip <- fr.fr_ip + 1;
        call th (make_frame lf vargs ~dst)
    | L.LInput { dst; ty; stream } ->
        def st fr dst (Sval.Bv (fresh_input st stream ty))
    | L.LPtwrite { v } ->
        (match ptwrite st ev v, v with
         | Some c, L.Oslot s -> fr.fr_regs.(s) <- c
         | _ -> ());
        fr.fr_ip <- fr.fr_ip + 1;
        Stepped_free
    | L.LAssert { cond; _ } ->
        assert_passed st ev cond;
        next fr
    | L.LSpawn { fidx; args } ->
        let lf = callee st fidx in
        let vargs = Array.to_list (Array.map ev args) in
        spawn st (make_frame lf vargs ~dst:None);
        next fr
    | L.LOutput _ | L.LJoin | L.LLock _ | L.LUnlock _ -> next fr

  let step_term st th (fr : frame) (t : L.lterm) : step =
    match t with
    | L.LBr i -> jump fr i
    | L.LCond_br { cond; if_true; if_false } ->
        jump fr (if branch st (eval st fr cond) then if_true else if_false)
    | L.LRet v ->
        do_return st th ~set_reg ~objs:fr.fr_stack_objs ~dst:fr.fr_dst
          (Option.map (eval st fr) v)
    | L.LAbort _ | L.LUnreachable -> Reached_failure

  let failing st (fr : frame) : failing =
    let ev o () = eval st fr o in
    if fr.fr_ip >= Array.length fr.fr_block.L.lb_instrs then At_terminator
    else
      match fr.fr_block.L.lb_instrs.(fr.fr_ip) with
      | L.LLoad { addr; _ } | L.LStore { addr; _ } ->
          At_access { addr = ev addr; free = false }
      | L.LFree { addr } -> At_access { addr = ev addr; free = true }
      | L.LBin { ty; b; _ } -> At_bin { ty; divisor = ev b }
      | L.LAssert { cond; _ } -> At_assert (ev cond)
      | L.LCmp _ | L.LSelect _ | L.LCast _ | L.LAlloc _ | L.LGep _ | L.LCall _
      | L.LInput _ | L.LOutput _ | L.LPtwrite _ | L.LSpawn _ | L.LJoin
      | L.LLock _ | L.LUnlock _ ->
          At_other

  let engine =
    {
      step_thread =
        (fun st th fr ->
           if fr.fr_ip < Array.length fr.fr_block.L.lb_instrs then
             step_instr st th fr fr.fr_block.L.lb_instrs.(fr.fr_ip)
           else step_term st th fr fr.fr_block.L.lb_term);
      point_of;
      at_ptwrite =
        (fun fr ->
           fr.fr_ip < Array.length fr.fr_block.L.lb_instrs
           && match fr.fr_block.L.lb_instrs.(fr.fr_ip) with
              | L.LPtwrite _ -> true
              | _ -> false);
      failing;
    }
end

(* ======================================================================== *)
(* Fast-forward: the input-free prefix on the compiled VM                   *)
(* ======================================================================== *)

(* Like KLEE's concrete object state, or selective symbolic execution's
   concrete mode: until the failing run reads its first input, every
   value is concrete, so no step adds a path constraint, a provenance
   entry ([Cgraph.define] skips constants) or a solver query.  The
   lowered engine runs that prefix on the compiled VM, checking each
   conditional branch against the next TNT bit and each allocation size
   against the next data value, and consuming a data value at each
   ptwrite, as shepherding does for a constant register.  With no input
   data and the failure clock as its instruction bound, the VM stops at
   the first [input] or exactly at the failure clock; the shepherd then
   starts from its state.  A mismatch, an exhausted stream, a crash or a
   finished program discards the VM, and the run shepherds from clock
   0: its outcome is then the reference engine's, divergence included. *)

let m_fast_forwarded =
  M.counter
    ~help:"Failing-run instructions replayed on the compiled VM before shepherding."
    "er_symex_fast_forwarded_total"

(* The shortest prefix worth a VM, equal to the tracer's checkpoint
   interval.  No Table 1 failing run qualifies, so every Table 1 bug
   shepherds from clock 0. *)
let min_prefix = 1_000

module Vs = Er_vm.Vm_state

exception Off_trace

(* Whether a prefix could qualify, decided before any VM is built: a
   spawning program runs more than one thread, and a [main] that starts
   with an input has no prefix. *)
let may_fast_forward (low : L.t) ~(trace : Er_trace.Decoder.split)
    ~failure_clock =
  failure_clock >= min_prefix
  && (not low.L.l_has_spawn)
  && Array.length trace.Er_trace.Decoder.schedule = 0
  &&
  let entry = low.L.l_funcs.(low.L.l_main).L.lf_blocks.(0) in
  not
    (Array.length entry.L.lb_instrs > 0
     && match entry.L.lb_instrs.(0) with L.LInput _ -> true | _ -> false)

(* Replay the prefix of [trace] on the VM; the stopped VM and the branch
   and data cursors past it, or [None] when the trace is not followed or
   the prefix is shorter than [min_prefix]. *)
let replay_prefix (prog : Er_ir.Prog.t) ~(trace : Er_trace.Decoder.split)
    ~failure_clock =
  let branches = trace.Er_trace.Decoder.branches
  and data = trace.Er_trace.Decoder.data in
  let branch_i = ref 0 and data_i = ref 0 in
  let next_data () =
    if !data_i >= Array.length data then raise Off_trace;
    let v = data.(!data_i) in
    incr data_i;
    v
  in
  let hooks =
    { Vs.no_hooks with
      on_branch =
        Some
          (fun taken ->
             if !branch_i >= Array.length branches || branches.(!branch_i) <> taken
             then raise Off_trace;
             incr branch_i);
      on_alloc =
        Some (fun n -> if not (Int64.equal (next_data ()) n) then raise Off_trace);
      on_ptwrite = Some (fun _ -> ignore (next_data ())) }
  in
  (* past [max_steps] shepherding gives up, so the VM need not go
     further *)
  let config =
    { Vs.default_config with
      max_instrs = min failure_clock (max_steps + 1); hooks }
  in
  let vm = Vs.create ~config prog (Er_vm.Inputs.make []) in
  match Vs.run_to_end vm with
  | exception Off_trace -> None
  | { Vs.outcome =
        Vs.Failed { Failure_.kind = Failure_.Input_exhausted _ | Failure_.Hang; _ };
      instr_count; _ }
    when instr_count >= min_prefix ->
      Some (vm, !branch_i, !data_i)
  | _ -> None

(* The type each register slot of [lf] holds: its parameter's, or its
   defining instruction's result type. *)
let slot_types (low : L.t) (lf : L.lfunc) : ty array =
  let tys = Array.make lf.L.lf_nslots I64 in
  Array.iter (fun (slot, ty) -> tys.(slot) <- ty) lf.L.lf_params;
  Array.iter
    (fun (b : L.lblock) ->
       Array.iter
         (function
           | L.LBin { dst; ty; _ } | L.LSelect { dst; ty; _ }
           | L.LLoad { dst; ty; _ } | L.LInput { dst; ty; _ } ->
               tys.(dst) <- ty
           | L.LCmp { dst; _ } -> tys.(dst) <- I1
           | L.LCast { dst; to_ty; _ } -> tys.(dst) <- to_ty
           | L.LAlloc { dst; _ } | L.LGep { dst; _ } -> tys.(dst) <- Ptr
           | L.LCall { dst = Some dst; fidx; _ } ->
               tys.(dst) <-
                 Option.value ~default:I64 low.L.l_funcs.(fidx).L.lf_ret_ty
           | L.LCall { dst = None; _ } | L.LStore _ | L.LFree _ | L.LOutput _
           | L.LPtwrite _ | L.LAssert _ | L.LSpawn _ | L.LJoin | L.LLock _
           | L.LUnlock _ ->
               ())
         b.L.lb_instrs)
    lf.L.lf_blocks;
  tys

(* Seed [st] with the stopped VM's state: every object under its id with
   its current contents, the main thread's frames with their registers
   typed per slot, and the clock and trace cursors where the VM
   stopped. *)
let seed_from_vm st vm ~branch_i ~data_i =
  let low = Er_ir.Prog.lowered st.prog in
  let vmem = Vs.memory vm in
  List.iter
    (fun (id, size, elt_ty, freed) ->
       Symmem.seed st.mem ~id ~elt_ty ~size ~freed (fun index ->
           Option.get (Er_vm.Memory.peek vmem ~obj:id ~index)))
    (Er_vm.Memory.objects vmem);
  (* globals are the first objects either engine allocates *)
  List.iteri
    (fun gi (g : global) ->
       Hashtbl.replace st.globals g.gname (gi + 1);
       st.lobjs.(gi) <- gi + 1)
    st.prog.Er_ir.Prog.program.globals;
  let frame (fv : Vs.frame_view) : Lowered.frame =
    let lf = L.func_by_name low fv.Vs.fv_func in
    let tys = slot_types low lf in
    let value slot (_, v) =
      match tys.(slot) with
      | Ptr -> Sval.decode_ptr (bvc ~width:64 v)
      | ty -> Sval.Bv (bvc ~width:(width_of_ty ty) v)
    in
    { Lowered.fr_func = lf;
      fr_block =
        Option.get
          (Array.find_opt
             (fun (b : L.lblock) -> String.equal b.L.lb_label fv.Vs.fv_block)
             lf.L.lf_blocks);
      fr_ip = fv.Vs.fv_ip;
      fr_regs = Array.of_list (List.mapi value fv.Vs.fv_regs);
      fr_dst = fv.Vs.fv_dst;
      fr_stack_objs = fv.Vs.fv_stack_objs }
  in
  (match Vs.threads vm with
   | [ main ] ->
       let stack = List.map frame main.Vs.tv_frames in
       st.threads <-
         [ { tid = 0; stack; depth = List.length stack; live = true } ]
   | _ -> assert false (* spawn-free *));
  st.clock <- Vs.clock vm;
  st.branch_i <- branch_i;
  st.data_i <- data_i;
  M.add m_fast_forwarded st.clock

(* --- entry points ---------------------------------------------------------- *)

let run_reference ?(config = default_config) (prog : Er_ir.Prog.t)
    ~(trace : Er_trace.Decoder.split) ~(failure : Failure_.t)
    ~(failure_clock : int) : result =
  let st = new_state ~config prog ~trace ~failure ~failure_clock in
  start_at_zero st (Reference.make_frame (Er_ir.Prog.main prog) [] ~dst:None);
  shepherd Reference.engine st

let run ?(config = default_config) (prog : Er_ir.Prog.t)
    ~(trace : Er_trace.Decoder.split) ~(failure : Failure_.t)
    ~(failure_clock : int) : result =
  let low = Er_ir.Prog.lowered prog in
  let st = new_state ~config prog ~trace ~failure ~failure_clock in
  (match
     if may_fast_forward low ~trace ~failure_clock then
       replay_prefix prog ~trace ~failure_clock
     else None
   with
   | Some (vm, branch_i, data_i) -> seed_from_vm st vm ~branch_i ~data_i
   | None ->
       start_at_zero st
         (Lowered.make_frame low.L.l_funcs.(low.L.l_main) [] ~dst:None));
  shepherd Lowered.engine st
