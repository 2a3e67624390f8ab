(* The production runtime: a concrete EIR interpreter with failure
   detection, a coarse-chunk thread scheduler, and tracing hooks.

   All register values are int64, normalized to their type width;
   pointers are packed per {!Memory}.  Arithmetic reuses the evaluation
   functions of the SMT expression language so that the concrete runtime,
   the model evaluator and the bit-blaster provably share one semantics
   (a qcheck property pins this down).

   The scheduler runs one thread for a quantum of instructions, then
   rotates; quantum lengths are jittered from a seed so that different
   failure occurrences exhibit different interleavings, the way distinct
   production runs would.  Chunk boundaries invoke the [on_switch] hook,
   which the PT-like encoder turns into TIP+MTC packets — the coarse
   timestamps of section 3.4.

   Two engines implement this semantics.  The production one lives in
   {!Vm_state}: it dispatches over the pre-lowered code cache, keeps all
   run state behind a resumable value with checkpoint/revert, and is
   what [run] delegates to.  This module keeps the tree-walking
   *reference* engine ([run_reference]) — string-keyed register tables,
   name-resolved jumps — whose bit-for-bit agreement with the lowered
   engine the differential suite in test/test_lower.ml enforces.  The
   shared pieces (hooks, config, metrics, evaluation helpers) are
   defined once in {!Vm_state}; the interface re-exports only the hook,
   config and result types. *)

open Er_ir.Types
module Sem = Er_smt.Expr     (* shared concrete semantics *)
module M = Er_metrics

(* --- shared with the production engine ------------------------------------ *)

let m_switches = Vm_state.m_switches
let count_instr = Vm_state.count_instr
let count_term = Vm_state.count_term

type hooks = Vm_state.hooks = {
  on_branch : (bool -> unit) option;
  on_switch : (tid:int -> clock:int -> unit) option;
  on_ptwrite : (int64 -> unit) option;
  on_input : (stream:string -> value:int64 -> unit) option;
  on_store :
    (obj:int -> index:int -> old_value:int64 -> new_value:int64 -> unit) option;
  on_alloc : (int64 -> unit) option;
  on_def : (Er_ir.Types.point -> reg:string -> value:int64 -> unit) option;
  on_enter : (func:string -> args:int64 list -> unit) option;
  on_ret : (func:string -> value:int64 option -> unit) option;
}

let no_hooks = Vm_state.no_hooks
let compose_hooks = Vm_state.compose_hooks

type config = Vm_state.config = {
  max_instrs : int;
  max_call_depth : int;
  quantum : int;
  quantum_jitter : int;
  sched_seed : int;
  hooks : hooks;
}

let default_config = Vm_state.default_config

type outcome = Vm_state.outcome =
  | Finished of int64 option
  | Failed of Failure.t

type run_result = Vm_state.run_result = {
  outcome : outcome;
  instr_count : int;
  branch_count : int;
  outputs : int64 list;
  peak_mem_cells : int;
  final_mem : Memory.t;    (* the core dump available post-mortem *)
}

type tstatus = Vm_state.tstatus =
  | Runnable
  | Blocked_lock of int64
  | Waiting_join
  | Done_t

(* Outcome of stepping one thread by one instruction.  [Stepped_free]
   executes without advancing the clock: ptwrite is hardware tracing work,
   not program work, so instrumentation must not perturb the schedule. *)
type step = Vm_state.step =
  | Stepped
  | Stepped_free
  | Blocked
  | Thread_done
  | Program_done of int64 option

exception Crash = Vm_state.Crash

let norm = Vm_state.norm
let smt_binop = Vm_state.smt_binop
let eval_cmp = Vm_state.eval_cmp
let chunk_quantum = Vm_state.chunk_quantum
let alloc_global_mem = Vm_state.alloc_global_mem

(* The production entry point: lowered dispatch, resumable state. *)
let run ?config prog inputs = Vm_state.run_program ?config prog inputs

(* ======================================================================== *)
(* Reference engine                                                         *)
(* ======================================================================== *)

(* --- execution state ---------------------------------------------------- *)

type frame = {
  fr_func : func;
  mutable fr_block : block;
  mutable fr_ip : int;
  fr_regs : (string, int64) Hashtbl.t;
  fr_dst : reg option;              (* caller register for the return value *)
  mutable fr_stack_objs : int list; (* alloca'd objects, released on return *)
}

type thread = {
  tid : int;
  mutable stack : frame list;       (* innermost first *)
  mutable depth : int;              (* cached [List.length stack] *)
  mutable status : tstatus;
}

type st = {
  prog : Er_ir.Prog.t;
  mem : Memory.t;
  inputs : Inputs.t;
  cfg : config;
  globals : (string, int64) Hashtbl.t;   (* name -> base pointer *)
  mutexes : (int64, int) Hashtbl.t;      (* lock address -> owner tid *)
  mutable threads : thread list;
  mutable next_tid : int;
  mutable clock : int;
  mutable branches : int;
  mutable outputs : int64 list;
}

let point_of st (fr : frame) =
  ignore st;
  { p_func = fr.fr_func.fname; p_block = fr.fr_block.label; p_index = fr.fr_ip }

let stack_of (th : thread) =
  List.map
    (fun fr ->
       { p_func = fr.fr_func.fname; p_block = fr.fr_block.label;
         p_index = fr.fr_ip })
    th.stack

(* --- value evaluation ---------------------------------------------------- *)

let eval_value st (fr : frame) = function
  | Imm (v, _) -> v
  | Null -> Memory.null
  | Global g -> (
      match Hashtbl.find_opt st.globals g with
      | Some p -> p
      | None -> invalid_arg ("Interp: unknown global " ^ g))
  | Reg r -> (
      match Hashtbl.find_opt fr.fr_regs r with
      | Some v -> v
      | None -> invalid_arg
                  (Printf.sprintf "Interp: read of undefined register %s in %s"
                     r fr.fr_func.fname))

let set_reg (fr : frame) r v = Hashtbl.replace fr.fr_regs r v

(* --- setup ---------------------------------------------------------------- *)

let alloc_global st (g : global) =
  Hashtbl.replace st.globals g.gname (alloc_global_mem st.mem g)

let make_frame (f : func) (args : int64 list) ~dst =
  let regs = Hashtbl.create 16 in
  (try List.iter2 (fun (r, ty) v -> Hashtbl.replace regs r (norm ty v)) f.params args
   with Invalid_argument _ ->
     invalid_arg (Printf.sprintf "Interp: arity mismatch calling %s" f.fname));
  match f.blocks with
  | [] -> assert false    (* validated *)
  | entry :: _ ->
      { fr_func = f; fr_block = entry; fr_ip = 0; fr_regs = regs; fr_dst = dst;
        fr_stack_objs = [] }

(* --- single-step execution ----------------------------------------------- *)

let jump st (fr : frame) label =
  fr.fr_block <- Er_ir.Prog.block st.prog ~func:fr.fr_func.fname ~label;
  fr.fr_ip <- 0

let do_return st (th : thread) v : step =
  match th.stack with
  | [] -> assert false
  | fr :: rest ->
      (match st.cfg.hooks.on_ret with
       | Some h -> h ~func:fr.fr_func.fname ~value:v
       | None -> ());
      List.iter (Memory.release_stack st.mem) fr.fr_stack_objs;
      th.stack <- rest;
      th.depth <- th.depth - 1;
      (match rest with
       | [] ->
           th.status <- Done_t;
           if th.tid = 0 then Program_done v else Thread_done
       | caller :: _ ->
           (match fr.fr_dst, v with
            | Some dst, Some value ->
                let ty =
                  match fr.fr_func.ret_ty with Some t -> t | None -> I64
                in
                set_reg caller dst (norm ty value)
            | Some dst, None -> set_reg caller dst 0L
            | None, _ -> ());
           Stepped)

let step_instr st (th : thread) (fr : frame) (i : instr) : step =
  let ev v = eval_value st fr v in
  let set_reg fr r v =
    (match st.cfg.hooks.on_def with
     | Some h -> h (point_of st fr) ~reg:r ~value:v
     | None -> ());
    set_reg fr r v
  in
  ignore set_reg;
  match i with
  | Bin { dst; op; ty; a; b } ->
      let va = ev a and vb = ev b in
      (match op with
       | Udiv | Urem when Int64.equal (norm ty vb) 0L ->
           raise (Crash Failure.Div_by_zero)
       | _ -> ());
      set_reg fr dst
        (Sem.eval_binop (smt_binop op) (width_of_ty ty) (norm ty va) (norm ty vb));
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Cmp { dst; op; ty; a; b } ->
      let r = eval_cmp op (width_of_ty ty) (norm ty (ev a)) (norm ty (ev b)) in
      set_reg fr dst (if r then 1L else 0L);
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Select { dst; ty; cond; if_true; if_false } ->
      let c = ev cond in
      set_reg fr dst (norm ty (if Int64.equal (norm I1 c) 1L then ev if_true else ev if_false));
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Cast { dst; kind; to_ty; v; from_ty } ->
      let value = norm from_ty (ev v) in
      let out =
        match kind with
        | Zext | Ptrtoint | Inttoptr -> norm to_ty value
        | Trunc -> norm to_ty value
        | Sext -> norm to_ty (Er_smt.Ty.sign_extend (width_of_ty from_ty) value)
      in
      set_reg fr dst out;
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Load { dst; ty; addr } ->
      (match Memory.load st.mem (ev addr) ~ty with
       | Error k -> raise (Crash k)
       | Ok v ->
           set_reg fr dst v;
           fr.fr_ip <- fr.fr_ip + 1;
           Stepped)
  | Store { ty; v; addr } ->
      let value = norm ty (ev v) in
      (match Memory.store st.mem (ev addr) ~ty value with
       | Error k -> raise (Crash k)
       | Ok (obj, index, old_value) ->
           (match st.cfg.hooks.on_store with
            | Some f -> f ~obj ~index ~old_value ~new_value:value
            | None -> ());
           fr.fr_ip <- fr.fr_ip + 1;
           Stepped)
  | Alloc { dst; elt_ty; count; heap } ->
      let n = Int64.to_int (ev count) in
      (match st.cfg.hooks.on_alloc with
       | Some f -> f (Int64.of_int n)
       | None -> ());
      (match Memory.alloc st.mem ~elt_ty ~size:n ~heap with
       | None -> raise (Crash (Failure.Access_type_error "allocation too large"))
       | Some p ->
           if not heap then
             fr.fr_stack_objs <- Memory.ptr_obj p :: fr.fr_stack_objs;
           set_reg fr dst p;
           fr.fr_ip <- fr.fr_ip + 1;
           Stepped)
  | Free { addr } ->
      (match Memory.free st.mem (ev addr) with
       | Error k -> raise (Crash k)
       | Ok () ->
           fr.fr_ip <- fr.fr_ip + 1;
           Stepped)
  | Gep { dst; base; idx } ->
      let p = ev base in
      let i = Int64.to_int (Er_smt.Ty.sign_extend 64 (ev idx)) in
      set_reg fr dst
        (Memory.ptr ~obj:(Memory.ptr_obj p) ~index:(Memory.ptr_index p + i));
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Call { dst; func; args } ->
      if th.depth >= st.cfg.max_call_depth then
        raise (Crash Failure.Stack_overflow);
      let f = Er_ir.Prog.func st.prog func in
      let vargs = List.map ev args in
      (match st.cfg.hooks.on_enter with
       | Some h -> h ~func ~args:vargs
       | None -> ());
      fr.fr_ip <- fr.fr_ip + 1;    (* return to the next instruction *)
      th.stack <- make_frame f vargs ~dst :: th.stack;
      th.depth <- th.depth + 1;
      Stepped
  | Input { dst; ty; stream } ->
      (match Inputs.read st.inputs stream with
       | None -> raise (Crash (Failure.Input_exhausted stream))
       | Some v ->
           let v = norm ty v in
           (match st.cfg.hooks.on_input with
            | Some f -> f ~stream ~value:v
            | None -> ());
           set_reg fr dst v;
           fr.fr_ip <- fr.fr_ip + 1;
           Stepped)
  | Output { v } ->
      st.outputs <- ev v :: st.outputs;
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Ptwrite { v } ->
      (match st.cfg.hooks.on_ptwrite with
       | Some f -> f (ev v)
       | None -> ());
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped_free
  | Assert { cond; msg } ->
      if Int64.equal (norm I1 (ev cond)) 0L then
        raise (Crash (Failure.Assert_failed msg));
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Spawn { func; args } ->
      let f = Er_ir.Prog.func st.prog func in
      let vargs = List.map ev args in
      let t =
        { tid = st.next_tid; stack = [ make_frame f vargs ~dst:None ];
          depth = 1; status = Runnable }
      in
      st.next_tid <- st.next_tid + 1;
      st.threads <- st.threads @ [ t ];
      fr.fr_ip <- fr.fr_ip + 1;
      Stepped
  | Join ->
      let others_done =
        List.for_all
          (fun t -> t.tid = th.tid || t.status = Done_t)
          st.threads
      in
      if others_done then begin
        fr.fr_ip <- fr.fr_ip + 1;
        Stepped
      end
      else begin
        th.status <- Waiting_join;
        Blocked
      end
  | Lock { addr } ->
      let a = ev addr in
      (match Hashtbl.find_opt st.mutexes a with
       | Some owner when owner = th.tid ->
           raise (Crash (Failure.Lock_error "recursive lock"))
       | Some _ ->
           th.status <- Blocked_lock a;
           Blocked
       | None ->
           Hashtbl.replace st.mutexes a th.tid;
           fr.fr_ip <- fr.fr_ip + 1;
           Stepped)
  | Unlock { addr } ->
      let a = ev addr in
      (match Hashtbl.find_opt st.mutexes a with
       | Some owner when owner = th.tid ->
           Hashtbl.remove st.mutexes a;
           (* wake threads blocked on this mutex *)
           List.iter
             (fun t ->
                match t.status with
                | Blocked_lock a' when Int64.equal a a' -> t.status <- Runnable
                | Blocked_lock _ | Runnable | Waiting_join | Done_t -> ())
             st.threads;
           fr.fr_ip <- fr.fr_ip + 1;
           Stepped
       | Some _ | None ->
           raise (Crash (Failure.Lock_error "unlock of mutex not held")))

let step_term st (th : thread) (fr : frame) (t : terminator) : step =
  match t with
  | Br l ->
      jump st fr l;
      Stepped
  | Cond_br { cond; if_true; if_false } ->
      let c = Int64.equal (norm I1 (eval_value st fr cond)) 1L in
      st.branches <- st.branches + 1;
      (match st.cfg.hooks.on_branch with Some f -> f c | None -> ());
      jump st fr (if c then if_true else if_false);
      Stepped
  | Ret v -> do_return st th (Option.map (eval_value st fr) v)
  | Abort msg -> raise (Crash (Failure.Abort_called msg))
  | Unreachable -> raise (Crash Failure.Unreachable_reached)

let step_thread st (th : thread) : step =
  match th.stack with
  | [] ->
      th.status <- Done_t;
      Thread_done
  | fr :: _ ->
      if fr.fr_ip < Array.length fr.fr_block.instrs then begin
        let i = fr.fr_block.instrs.(fr.fr_ip) in
        if M.enabled M.default then count_instr i;
        step_instr st th fr i
      end
      else begin
        if M.enabled M.default then count_term fr.fr_block.term;
        step_term st th fr fr.fr_block.term
      end

(* --- scheduler ------------------------------------------------------------ *)

let run_reference ?(config = default_config) (prog : Er_ir.Prog.t)
    (inputs : Inputs.t) : run_result =
  Inputs.reset inputs;
  let st =
    {
      prog;
      mem = Memory.create ();
      inputs;
      cfg = config;
      globals = Hashtbl.create 16;
      mutexes = Hashtbl.create 8;
      threads = [];
      next_tid = 1;
      clock = 0;
      branches = 0;
      outputs = [];
    }
  in
  List.iter (alloc_global st) prog.program.globals;
  let main_func = Er_ir.Prog.main prog in
  let main_thread =
    { tid = 0; stack = [ make_frame main_func [] ~dst:None ]; depth = 1;
      status = Runnable }
  in
  st.threads <- [ main_thread ];
  let finish outcome =
    {
      outcome;
      instr_count = st.clock;
      branch_count = st.branches;
      outputs = List.rev st.outputs;
      peak_mem_cells = Memory.peak_cells st.mem;
      final_mem = st.mem;
    }
  in
  let result = ref None in
  let turn = ref 0 in
  let cur = ref main_thread in
  let emit_switch th =
    M.inc m_switches;
    match config.hooks.on_switch with
    | Some f -> f ~tid:th.tid ~clock:st.clock
    | None -> ()
  in
  (* pick the next runnable thread after [after] in tid order, if any *)
  let pick_next after =
    (* a joining thread becomes runnable once every other thread is done *)
    List.iter
      (fun t ->
         if
           t.status = Waiting_join
           && List.for_all
                (fun u -> u.tid = t.tid || u.status = Done_t)
                st.threads
         then t.status <- Runnable)
      st.threads;
    let runnable = List.filter (fun t -> t.status = Runnable) st.threads in
    match runnable with
    | [] -> None
    | _ ->
        let later = List.filter (fun t -> t.tid > after) runnable in
        Some (match later with t :: _ -> t | [] -> List.hd runnable)
  in
  while !result = None do
    let th = !cur in
    let quantum = chunk_quantum config !turn in
    incr turn;
    let steps = ref 0 in
    let stop = ref false in
    while (not !stop) && !steps < quantum && !result = None do
      if st.clock >= config.max_instrs then begin
        let fr = List.hd th.stack in
        result :=
          Some
            (finish
               (Failed
                  { Failure.kind = Failure.Hang; point = point_of st fr;
                    stack = stack_of th; thread = th.tid }))
      end
      else begin
        match step_thread st th with
        | exception Crash kind ->
            let fr = List.hd th.stack in
            result :=
              Some
                (finish
                   (Failed
                      { Failure.kind; point = point_of st fr;
                        stack = stack_of th; thread = th.tid }))
        | Stepped ->
            st.clock <- st.clock + 1;
            incr steps
        | Stepped_free -> ()
        | Blocked -> stop := true
        | Thread_done -> stop := true
        | Program_done v ->
            st.clock <- st.clock + 1;
            result := Some (finish (Finished v))
      end
    done;
    (match !result with
     | Some _ -> ()
     | None -> (
         match pick_next th.tid with
         | Some next ->
             if next.tid <> th.tid || th.status <> Runnable then begin
               cur := next;
               if next.tid <> th.tid then emit_switch next
             end
             else cur := next
         | None ->
             (* no runnable threads: every thread done, or deadlock *)
             if List.for_all (fun t -> t.status = Done_t) st.threads then
               (* main returning sets Program_done, so reaching here with
                  all threads done means main never ran; treat as finish *)
               result := Some (finish (Finished None))
             else begin
               let victim =
                 match
                   List.find_opt (fun t -> t.status <> Done_t) st.threads
                 with
                 | Some t -> t
                 | None -> assert false
               in
               let point, stack =
                 match victim.stack with
                 | fr :: _ -> point_of st fr, stack_of victim
                 | [] ->
                     ( { p_func = prog.program.main; p_block = "entry";
                         p_index = 0 }, [] )
               in
               result :=
                 Some
                   (finish
                      (Failed
                         { Failure.kind = Failure.Deadlock; point;
                           stack; thread = victim.tid }))
             end))
  done;
  match !result with Some r -> r | None -> assert false
