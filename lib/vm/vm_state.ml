(* The resumable production engine: all mutable run state of the lowered
   interpreter behind one value, with copy-on-write snapshots.

   This module owns everything [Interp.run] used to keep in closure-local
   refs — threads, frames, the scheduler cursor, the store, input
   cursors — as a first-class [t].  A run can [pause] at quantum
   boundaries, be [snapshot]ted in O(live pages), [revert]ed, and resumed
   under a *different* recording plan and different (prefix-compatible)
   inputs.  That is what makes ER iterations incremental: iteration N+1
   replays only the suffix past the deepest checkpoint that is still
   valid for the new recording-point set.

   Recording points are applied as a *plan* over the base program rather
   than by rewriting it with ptwrite instructions.  The plan is an input
   of the compiled code: each marked instruction's unit is followed by a
   virtual ptwrite (a clock-free step, exactly like an instrumented
   [Ptwrite]) that fires inline while the thread's budget lasts, inside
   fused units and whole-block chains alike.  Only a mark that ends a
   budget, or sits on a call, waits on its frame and fires before the
   frame's next step.  Because the executed program is constant across
   iterations, checkpoints never need frame remapping when the point set
   changes.

   Every run — plain, recorded, plan-marked — dispatches through one
   engine: per-block closure units compiled once per program and set of
   installed hooks (and, for a plan's marked blocks, once per plan),
   which call those hooks themselves.  Hook invocations
   and their order, failure reports, outputs and metric totals match
   [Interp.run_reference] bit for bit on instrumented programs (the
   differential suite in test/test_lower.ml pins this down), and
   plan-driven runs match instrumented runs packet for packet
   (test/test_vm_state.ml, test/test_lower.ml). *)

open Er_ir.Types
module Sem = Er_smt.Expr     (* shared concrete semantics *)
module Ty = Er_smt.Ty
module M = Er_metrics
module L = Er_ir.Lower
module Fuse = Er_ir.Fuse

(* --- retirement metrics --------------------------------------------------- *)

(* Counters on the process registry; the step loop checks [M.enabled]
   once per step, so a metrics-off run pays one branch. *)
let instr_counter cls =
  M.counter
    ~labels:[ ("class", cls) ]
    ~help:"Instructions retired, by opcode class." "er_vm_instructions_total"

let m_i_alu = instr_counter "alu"
and m_i_load = instr_counter "load"
and m_i_store = instr_counter "store"
and m_i_mem = instr_counter "mem"
and m_i_call = instr_counter "call"
and m_i_io = instr_counter "io"
and m_i_sync = instr_counter "sync"
and m_i_branch = instr_counter "branch"
and m_i_other = instr_counter "other"

let m_loads = M.counter ~help:"Memory loads executed." "er_vm_loads_total"
let m_stores = M.counter ~help:"Memory stores executed." "er_vm_stores_total"

let m_branches =
  M.counter ~help:"Conditional branches executed." "er_vm_branches_total"

let m_switches =
  M.counter ~help:"Chunk-scheduler thread switches." "er_vm_switches_total"

(* Hot-spot attribution: the blocks retired most often, keyed by
   "func/label".  Per-run counts accumulate in the state (bumped at the
   block-retirement site under the same [M.enabled] branch as the class
   deltas) and are published into the bounded table at run end. *)
let m_top_blocks =
  M.top ~k:8
    ~help:"Hottest lowered blocks by retirement count (func/label)."
    "er_vm_top_block_retired"

(* Adjacent opcode pairs weighted by the retirement count of the block
   they appear in: the mining input for the committed superinstruction
   set (Er_ir.Fuse.default_pairs).  `bench vm --opcode-mix` reports the
   same counts per corpus program. *)
let m_top_pairs =
  M.top ~k:12
    ~help:"Hottest adjacent opcode pairs, weighted by block retirements."
    "er_vm_top_opcode_pair"

let vm_counters =
  [ m_i_alu; m_i_load; m_i_store; m_i_mem; m_i_call; m_i_io; m_i_sync;
    m_i_branch; m_i_other; m_loads; m_stores; m_branches; m_switches ]

let count_instr (i : instr) =
  match i with
  | Bin _ | Cmp _ | Select _ | Cast _ | Gep _ -> M.inc m_i_alu
  | Load _ ->
      M.inc m_i_load;
      M.inc m_loads
  | Store _ ->
      M.inc m_i_store;
      M.inc m_stores
  | Alloc _ | Free _ -> M.inc m_i_mem
  | Call _ -> M.inc m_i_call
  | Input _ | Output _ | Ptwrite _ -> M.inc m_i_io
  | Spawn _ | Join | Lock _ | Unlock _ -> M.inc m_i_sync
  | Assert _ -> M.inc m_i_other

let count_term (t : terminator) =
  match t with
  | Br _ -> M.inc m_i_branch
  | Cond_br _ ->
      M.inc m_i_branch;
      M.inc m_branches
  | Ret _ -> M.inc m_i_call
  | Abort _ | Unreachable -> M.inc m_i_other

(* --- hooks and configuration ---------------------------------------------- *)

type hooks = {
  on_branch : (bool -> unit) option;
  on_switch : (tid:int -> clock:int -> unit) option;
  on_ptwrite : (int64 -> unit) option;
  on_input : (stream:string -> value:int64 -> unit) option;
  on_store :
    (obj:int -> index:int -> old_value:int64 -> new_value:int64 -> unit) option;
  (* allocation sizes are always traced: the analysis engine needs the
     concrete heap layout to replay memory accesses *)
  on_alloc : (int64 -> unit) option;
  (* every register definition with its concrete value: ground truth for
     the REPT accuracy experiment *)
  on_def : (Er_ir.Types.point -> reg:string -> value:int64 -> unit) option;
  (* function boundaries: used by the invariant-inference case study *)
  on_enter : (func:string -> args:int64 list -> unit) option;
  on_ret : (func:string -> value:int64 option -> unit) option;
}

let no_hooks =
  { on_branch = None; on_switch = None; on_ptwrite = None; on_input = None;
    on_store = None; on_alloc = None; on_def = None; on_enter = None;
    on_ret = None }

(* ER's production recording: branch outcomes as TNT bits, chunk
   boundaries as TIP+MTC, traced data values and allocation sizes as
   ptwrite packets — everything a capture decodes. *)
let recording_hooks (enc : Er_trace.Encoder.t) =
  { no_hooks with
    on_branch = Some (fun b -> Er_trace.Encoder.branch enc b);
    on_switch =
      Some (fun ~tid ~clock -> Er_trace.Encoder.thread_switch enc ~tid ~clock);
    on_ptwrite = Some (fun v -> Er_trace.Encoder.ptwrite enc v);
    on_alloc = Some (fun v -> Er_trace.Encoder.ptwrite enc v) }

(* Run two hook sets side by side ([a] first).  Lets the pipeline attach
   event-accounting observers next to the trace encoder hooks without
   either knowing about the other. *)
let compose_hooks (a : hooks) (b : hooks) : hooks =
  let fuse f g wrap =
    match f, g with
    | None, h | h, None -> h
    | Some f, Some g -> Some (wrap f g)
  in
  {
    on_branch = fuse a.on_branch b.on_branch (fun f g x -> f x; g x);
    on_switch =
      fuse a.on_switch b.on_switch (fun f g ~tid ~clock ->
          f ~tid ~clock;
          g ~tid ~clock);
    on_ptwrite = fuse a.on_ptwrite b.on_ptwrite (fun f g x -> f x; g x);
    on_input =
      fuse a.on_input b.on_input (fun f g ~stream ~value ->
          f ~stream ~value;
          g ~stream ~value);
    on_store =
      fuse a.on_store b.on_store (fun f g ~obj ~index ~old_value ~new_value ->
          f ~obj ~index ~old_value ~new_value;
          g ~obj ~index ~old_value ~new_value);
    on_alloc = fuse a.on_alloc b.on_alloc (fun f g x -> f x; g x);
    on_def =
      fuse a.on_def b.on_def (fun f g p ~reg ~value ->
          f p ~reg ~value;
          g p ~reg ~value);
    on_enter =
      fuse a.on_enter b.on_enter (fun f g ~func ~args ->
          f ~func ~args;
          g ~func ~args);
    on_ret =
      fuse a.on_ret b.on_ret (fun f g ~func ~value ->
          f ~func ~value;
          g ~func ~value);
  }

(* Which hooks a compilation calls: with the program, the key under
   which the code cache keeps compilations.  Presence alone is the key
   — the closures are read from the running state's config — so every
   run under the same kinds of hooks (each ER recording with its own
   encoder, say) shares one compilation.  [on_switch] fires in the
   scheduler, outside compiled code. *)
type hook_set = {
  hs_branch : bool;
  hs_ptwrite : bool;
  hs_alloc : bool;
  hs_input : bool;
  hs_store : bool;
  hs_def : bool;
  hs_enter : bool;
  hs_ret : bool;
}

let hook_set_of (h : hooks) =
  { hs_branch = Option.is_some h.on_branch;
    hs_ptwrite = Option.is_some h.on_ptwrite;
    hs_alloc = Option.is_some h.on_alloc;
    hs_input = Option.is_some h.on_input;
    hs_store = Option.is_some h.on_store;
    hs_def = Option.is_some h.on_def;
    hs_enter = Option.is_some h.on_enter;
    hs_ret = Option.is_some h.on_ret }

type config = {
  max_instrs : int;
  max_call_depth : int;
  quantum : int;
  quantum_jitter : int;
  sched_seed : int;
  hooks : hooks;
}

let default_config =
  {
    max_instrs = 50_000_000;
    max_call_depth = 512;
    quantum = 60;
    quantum_jitter = 24;
    sched_seed = 0;
    hooks = no_hooks;
  }

type outcome = Finished of int64 option | Failed of Failure.t

type run_result = {
  outcome : outcome;
  instr_count : int;
  branch_count : int;
  outputs : int64 list;
  peak_mem_cells : int;
  final_mem : Memory.t;    (* the core dump available post-mortem *)
}

type tstatus = Runnable | Blocked_lock of int64 | Waiting_join | Done_t

(* Outcome of stepping one thread by one instruction.  [Stepped_free]
   executes without advancing the clock: ptwrite is hardware tracing work,
   not program work, so instrumentation must not perturb the schedule. *)
type step = Stepped | Stepped_free | Blocked | Thread_done | Program_done of int64 option

exception Crash of Failure.kind

(* --- shared evaluation helpers -------------------------------------------- *)

let norm ty v = Er_smt.Ty.truncate (width_of_ty ty) v

let smt_binop : binop -> Sem.binop = function
  | Add -> Sem.Add | Sub -> Sem.Sub | Mul -> Sem.Mul | Udiv -> Sem.Udiv
  | Urem -> Sem.Urem | And -> Sem.And | Or -> Sem.Or | Xor -> Sem.Xor
  | Shl -> Sem.Shl | Lshr -> Sem.Lshr | Ashr -> Sem.Ashr

let eval_cmp op w a b =
  let base o = Sem.eval_cmp o w a b in
  match op with
  | Eq -> base Sem.Eq
  | Ne -> not (base Sem.Eq)
  | Ult -> base Sem.Ult
  | Ule -> base Sem.Ule
  | Ugt -> not (base Sem.Ule)
  | Uge -> not (base Sem.Ult)
  | Slt -> base Sem.Slt
  | Sle -> base Sem.Sle
  | Sgt -> not (base Sem.Sle)
  | Sge -> not (base Sem.Slt)

(* Deterministic per-(seed, chunk#) quantum jitter. *)
let chunk_quantum cfg turn =
  let h = Hashtbl.hash (cfg.sched_seed, turn) in
  let j = if cfg.quantum_jitter = 0 then 0 else (h mod (2 * cfg.quantum_jitter)) - cfg.quantum_jitter in
  max 8 (cfg.quantum + j)

(* Shared by both engines so global allocation order — hence object ids
   and packed pointers — is identical. *)
let alloc_global_mem mem (g : global) : int64 =
  match Memory.alloc mem ~elt_ty:g.g_elt_ty ~size:g.g_size ~heap:true with
  | None -> invalid_arg ("Interp: global too large: " ^ g.gname)
  | Some p ->
      (match g.g_init with
       | None -> ()
       | Some init ->
           Array.iteri
             (fun i v ->
                match
                  Memory.store mem
                    (Memory.ptr ~obj:(Memory.ptr_obj p) ~index:i)
                    ~ty:g.g_elt_ty (norm g.g_elt_ty v)
                with
                | Ok _ -> ()
                | Error _ -> assert false)
             init);
      p

(* --- recording plans ------------------------------------------------------- *)

(* The defined slot of a lowered instruction — mirrors
   [Er_ir.Types.def_of_instr] on the source instruction, so a plan marks
   exactly the points [Instrument.apply] would instrument. *)
let ldef_slot (i : L.linstr) : int option =
  match i with
  | L.LBin { dst; _ } | L.LCmp { dst; _ } | L.LSelect { dst; _ }
  | L.LCast { dst; _ } | L.LLoad { dst; _ } | L.LAlloc { dst; _ }
  | L.LGep { dst; _ } | L.LInput { dst; _ } -> Some dst
  | L.LCall { dst; _ } -> dst
  | L.LStore _ | L.LFree _ | L.LOutput _ | L.LPtwrite _ | L.LAssert _
  | L.LSpawn _ | L.LJoin | L.LLock _ | L.LUnlock _ -> None

(* Whether the program can ever create a second thread.  A statically
   spawn-free program is scheduler-seed-independent: quantum boundaries
   are unobservable without thread switches, so a checkpoint taken under
   one seed is valid for a resume under any other. *)
let has_spawn (low : L.t) : bool =
  Array.exists
    (fun (lf : L.lfunc) ->
       Array.exists
         (fun (b : L.lblock) ->
            Array.exists
              (function L.LSpawn _ -> true | _ -> false)
              b.L.lb_instrs)
         lf.L.lf_blocks)
    low.L.l_funcs

(* --- execution state ------------------------------------------------------- *)

type lframe = {
  lfr_func : L.lfunc;
  mutable lfr_block : L.lblock;
  mutable lfr_ip : int;
  (* the int64 register file as raw bytes, slot [s] at byte offset
     [8*s]: the [%caml_bytes_get64u]/[set64u] primitives compile to
     single unboxed moves, so a register access is one load/store with
     no box allocation, no caml_modify barrier and no C call — where an
     [int64 array] pays a box per write and [Int64.bits_of_float] on a
     float array pays a C call per access.  Access only through
     [rget]/[rset]. *)
  lfr_regs : Bytes.t;
  lfr_defined : Bytes.t;   (* per-slot definedness; length 0 when untracked *)
  lfr_dst : int option;    (* caller slot for the return value *)
  mutable lfr_stack_objs : int list;
  (* slot whose value a deferred virtual ptwrite must trace before this
     frame's next step: set when a plan-marked instruction retires at
     the end of a budget, or when a plan-marked call pushes its callee *)
  mutable lfr_pending : int option;
}

and lthread = {
  ltid : int;
  mutable lstack : lframe list;    (* innermost first *)
  mutable ldepth : int;            (* cached [List.length lstack] *)
  mutable lstatus : tstatus;
}

(* The threaded code of one basic block: pre-compiled execution units
   the dispatcher runs one closure call at a time, indexed by
   instruction ip with index [n] (the instruction count) standing for
   the terminator.  [xb_one] holds singleton units; [xb_big] the fused
   unit starting at each ip where Fuse committed a pair, and the
   singleton elsewhere (pair tails keep their singleton entry so a
   resume can land on any instruction boundary).  Units call the hooks
   of the hook set they were compiled for, and no others.  Every unit
   updates [lfr_ip] and [lclock] itself, per retired sub-instruction,
   so a crash mid-unit reports the exact instruction and the exact
   clock. *)
and xunit = t -> lthread -> lframe -> step

and xblock = {
  xb_cost : int array;        (* clock ticks of xb_big.(ip): 0..3 *)
  xb_one : xunit array;
  xb_big : xunit array;
  (* true where the unit may change the current frame or block
     (terminator, call, or a fused unit ending in the terminator):
     straight-line units skip the post-step transfer checks *)
  xb_ctl : bool array;
  (* whole-block chain: every fused/singleton unit of the block composed
     into one closure, terminator included — the dispatcher runs it
     when the block starts at ip 0 and its full cost fits the
     remaining quantum ([xb_wcost] <= budget left), so a hot self-loop
     costs one indirect call per iteration.  [xb_wcost] is [max_int]
     when the block is ineligible (any non-fusable instruction), which
     makes eligibility and budget one integer compare. *)
  xb_whole : xunit;
  xb_wcost : int;
  xb_pairs : string list;     (* adjacent pair keys, for the profiler *)
}

and t = {
  llow : L.t;
  lmem : Memory.t;
  linputs : Inputs.t;
  lcfg : config;
  lglobal_ptrs : int64 array;      (* indexed like [llow.l_globals] *)
  lmutexes : (int64, int) Hashtbl.t;
  mutable lthreads : lthread list;
  mutable lnext_tid : int;
  mutable lclock : int;
  mutable lbranches : int;
  mutable loutputs : int64 list;
  (* clock at which the current [exec_threaded] budget ends: a
     plan-marked unit fires its virtual ptwrite inline while the clock
     is below it *)
  mutable ldeadline : int;
  (* program-wide block uid = lblock_base.(lf_idx) + lb_index *)
  lblock_base : int array;
  (* retirements per block uid (metrics-gated; monotone across reverts
     like the process counters) *)
  lblk_counts : int array;
  (* clock at which each block first became the current block, -1 if
     never; length 0 when not tracked (no plan).  Bounds the checkpoints
     that stay valid when a *new* point lands in that block. *)
  mutable lfexec : int array;
  (* re-enterable scheduler state *)
  mutable lresult : run_result option;
  mutable lturn : int;
  mutable lcur : lthread;
  (* pre-compiled threaded code for this state's hook set and recording
     plan, indexed [lf_idx].(lb_index); physically shared between states
     of the same lowered program and hook set via a bounded compile
     cache, and — for plan-marked blocks — via the plan's own memo.
     [set_plan] swaps it. *)
  mutable lxcode : xblock array array;
}

(* A plan marks instructions of the *base* program for virtual ptwrite
   recording, the plan-mode equivalent of [Instrument.apply] inserting a
   [Ptwrite (Reg dst)] right after each recording point that defines a
   register.  [pl_marks.(fidx).(bidx)] is either [||] (block unmarked) or
   a per-instruction-index array of the destination slot to trace, -1 for
   unmarked indices.  The marks are an input of the threaded code: a
   plan memoizes its compilation per hook set in [pl_code] (see
   [plan_code]), where only its marked blocks are compiled afresh and
   every unmarked block shares the program's plain [xblock]. *)
type plan = {
  pl_low : L.t;
  pl_marks : int array array array;
  mutable pl_code : (hook_set * xblock array array) list;
}

let empty_plan (low : L.t) : plan =
  { pl_low = low;
    pl_marks =
      Array.map
        (fun lf -> Array.make (Array.length lf.L.lf_blocks) [||])
        low.L.l_funcs;
    pl_code = [] }

let plan_of_points (low : L.t) (points : point list) : plan =
  let plan = empty_plan low in
  List.iter
    (fun (p : point) ->
       match Hashtbl.find_opt low.L.l_func_index p.p_func with
       | None -> ()
       | Some fidx ->
           let lf = low.L.l_funcs.(fidx) in
           Array.iter
             (fun (b : L.lblock) ->
                if String.equal b.L.lb_label p.p_block then begin
                  let n = Array.length b.L.lb_instrs in
                  if p.p_index >= 0 && p.p_index < n then
                    match ldef_slot b.L.lb_instrs.(p.p_index) with
                    | None -> ()    (* point defines nothing: not recordable *)
                    | Some slot ->
                        let row =
                          match plan.pl_marks.(fidx).(b.L.lb_index) with
                          | [||] ->
                              let r = Array.make n (-1) in
                              plan.pl_marks.(fidx).(b.L.lb_index) <- r;
                              r
                          | r -> r
                        in
                        row.(p.p_index) <- slot
                end)
             lf.L.lf_blocks)
    points;
  plan

(* Slot indices come from the lowering's own numbering, always in
   bounds, so the reads and writes are unchecked. *)
(* Unchecked native-endian 64-bit bytes access: compiler primitives (the
   same ones behind [Bytes.get_int64_ne]), compiled to a single unboxed
   move.  Slot indices are always in bounds by lowering invariant
   ([lf_nslots] sizes the file). *)
external b64_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rget (fr : lframe) s = b64_get fr.lfr_regs (s lsl 3)
let[@inline] rset (fr : lframe) s v = b64_set fr.lfr_regs (s lsl 3) v

let lpoint_of (fr : lframe) =
  { p_func = fr.lfr_func.L.lf_name; p_block = fr.lfr_block.L.lb_label;
    p_index = fr.lfr_ip }

let lstack_of (th : lthread) = List.map lpoint_of th.lstack

(* Slot write without the on_def hook: return values and parameter
   binding, mirroring the plain [set_reg] of the reference engine. *)
let lset_slot (fr : lframe) slot v =
  rset fr slot v;
  if Bytes.length fr.lfr_defined <> 0 then Bytes.set fr.lfr_defined slot '\001'

let empty_defined = Bytes.create 0

let make_lframe (lf : L.lfunc) (args : int64 list) ~dst =
  let regs = Bytes.make (lf.L.lf_nslots lsl 3) '\000' in
  let defined =
    if lf.L.lf_tracked then Bytes.make lf.L.lf_nslots '\000' else empty_defined
  in
  let fr =
    { lfr_func = lf; lfr_block = lf.L.lf_blocks.(0); lfr_ip = 0;
      lfr_regs = regs; lfr_defined = defined; lfr_dst = dst;
      lfr_stack_objs = []; lfr_pending = None }
  in
  if List.length args <> Array.length lf.L.lf_params then
    invalid_arg (Printf.sprintf "Interp: arity mismatch calling %s" lf.L.lf_name);
  List.iteri
    (fun i v ->
       let slot, ty = lf.L.lf_params.(i) in
       lset_slot fr slot (norm ty v))
    args;
  fr

(* Record that [bidx] of [lf] becomes the current block at the *next*
   clock tick (the jump/call/spawn that installs it is about to retire). *)
let[@inline] record_entry st (lf : L.lfunc) bidx =
  if Array.length st.lfexec <> 0 then begin
    let uid = Array.unsafe_get st.lblock_base lf.L.lf_idx + bidx in
    if Array.unsafe_get st.lfexec uid < 0 then
      Array.unsafe_set st.lfexec uid (st.lclock + 1)
  end

(* One batched add per counter class for a fully retired block
   (instructions + terminator). *)
let flush_delta (d : L.delta) =
  if d.L.d_alu > 0 then M.add m_i_alu d.L.d_alu;
  if d.L.d_load > 0 then begin
    M.add m_i_load d.L.d_load;
    M.add m_loads d.L.d_load
  end;
  if d.L.d_store > 0 then begin
    M.add m_i_store d.L.d_store;
    M.add m_stores d.L.d_store
  end;
  if d.L.d_mem > 0 then M.add m_i_mem d.L.d_mem;
  if d.L.d_call > 0 then M.add m_i_call d.L.d_call;
  if d.L.d_io > 0 then M.add m_i_io d.L.d_io;
  if d.L.d_sync > 0 then M.add m_i_sync d.L.d_sync;
  if d.L.d_branch > 0 then M.add m_i_branch d.L.d_branch;
  if d.L.d_other > 0 then M.add m_i_other d.L.d_other;
  if d.L.d_cond > 0 then M.add m_branches d.L.d_cond

(* At run end, account the partially retired block of every live frame
   so totals equal the reference engine's per-instruction counts.  For
   the frame that raised [Crash] at an instruction, the crashing
   instruction itself was "counted before execution" by the reference
   engine, so include it; a crash at a terminator was already covered by
   the pre-terminator [flush_delta].  A pending-but-never-attempted
   instruction (hang check, blocked sync op) is excluded, again like the
   reference, whose per-attempt counts for blocked ops are instead added
   at each [Blocked] step. *)
let flush_partial st ~(crashed : lthread option) =
  if M.enabled M.default then
    List.iter
      (fun th ->
         List.iteri
           (fun fi fr ->
              let src = fr.lfr_block.L.lb_src in
              let len = Array.length src.instrs in
              let crashed_top =
                (match crashed with Some t -> t == th | None -> false)
                && fi = 0
              in
              let stop =
                if crashed_top then
                  if fr.lfr_ip < len then fr.lfr_ip + 1 else 0
                else min fr.lfr_ip len
              in
              for k = 0 to stop - 1 do
                count_instr src.instrs.(k)
              done)
           th.lstack)
      st.lthreads

(* The virtual ptwrite of slot [slot] of frame [fr]: exactly what an
   instrumented [Ptwrite (Reg dst)] placed after the marked instruction
   does, as a clock-free step. *)
let fire_ptwrite st (fr : lframe) slot =
  (match st.lcfg.hooks.on_ptwrite with
   | Some f -> f (rget fr slot)
   | None -> ());
  if M.enabled M.default then M.inc m_i_io

(* Fire the deferred virtual ptwrite of top frame [fr] before the
   frame's next real step: across a call it fires after the return value
   binds, and across quantum expiry after the thread is rescheduled —
   the positions the inserted instruction would occupy. *)
let fire_pending st (fr : lframe) slot =
  fr.lfr_pending <- None;
  fire_ptwrite st fr slot

(* --- threaded code: the block-fused closure compiler ----------------------- *)

(* Each basic block compiles once per lowered program and hook set (not
   per state) into arrays of execution units — closures of type [xunit]
   — indexed by ip, with index [n] standing for the terminator.  A unit
   performs exactly the state transition of the reference engine's
   [step_instr]/[step_term] plus its run loop, *including* the ip and
   clock updates and the hook calls: operand getters, width masks,
   immediate truncations, block targets, error strings and the hooks to
   call are all resolved at compile time, so a unit executes no
   per-step decode, no width branches and no test for a hook outside
   its set.  Fused units (committed opcode pairs from [Fuse.analyze])
   retire two sub-instructions per dispatch; every sub-instruction still
   updates ip and the clock itself, so a crash, a blocked sync op, a
   hook call or a metric flush in the tail observes exactly the state a
   singleton schedule would have produced.

   The symex engine deliberately keeps dispatching the unfused lowered
   form: its per-instruction cost is dominated by term construction and
   path bookkeeping, fusion would buy nothing, and single-stepping is
   load-bearing for path splitting.  Only this concrete engine threads. *)

(* Hook calls of the compiled units.  A unit calls one only when its
   hook set holds that hook, so the [None] arms never run; hot units
   test a captured [hs_*] immediate rather than the config. *)
let[@inline] call_branch st c =
  match st.lcfg.hooks.on_branch with Some f -> f c | None -> ()

let[@inline] call_ret st (lf : L.lfunc) value =
  match st.lcfg.hooks.on_ret with
  | Some f -> f ~func:lf.L.lf_name ~value
  | None -> ()

(* Compile-time operand getter.  [Oglobal] stays an [st] access because
   compiled code is shared across states; everything else resolves to a
   constant or a slot read.  Slot indices come from the lowering's own
   numbering, always in bounds, so the reads are unchecked. *)
let xget (lf : L.lfunc) (o : L.operand) : t -> lframe -> int64 =
  match o with
  | L.Oslot s -> fun _ fr -> rget fr s
  | L.Oimm { v; _ } -> fun _ _ -> v
  | L.Onull -> fun _ _ -> Memory.null
  | L.Oglobal i -> fun st _ -> Array.unsafe_get st.lglobal_ptrs i
  | L.Ocheck { slot; reg } ->
      let msg =
        Printf.sprintf "Interp: read of undefined register %s in %s" reg
          lf.L.lf_name
      in
      fun _ fr ->
        if Bytes.unsafe_get fr.lfr_defined slot = '\001' then rget fr slot
        else invalid_arg msg

(* Slot write specialised on whether the function tracks definedness,
   so untracked (fully-defined) functions skip the byte-set and both
   skip the per-write length test of [lset_slot]. *)
let xsetter (lf : L.lfunc) : lframe -> int -> int64 -> unit =
  if lf.L.lf_tracked then fun fr dst v ->
    rset fr dst v;
    Bytes.unsafe_set fr.lfr_defined dst '\001'
  else fun fr dst v -> rset fr dst v

(* Definedness mark of the specialised arms: [tracked] is a captured
   immediate, so untracked functions pay one predicted branch. *)
let[@inline] xmark tracked (fr : lframe) dst =
  if tracked then Bytes.unsafe_set fr.lfr_defined dst '\001'

(* Definedness pre-guards.  An [Ocheck] operand compiled through a
   getter closure boxes its int64 return on every read — the dominant
   allocation of tracked functions on the fast path.  Instead, the
   checks of one instruction run up front as a unit-returning guard
   (nothing boxes), and the specialised arms below then treat the
   operands as plain slot reads.  Guards run in the reference's operand
   evaluation order for that opcode, so a multi-undefined instruction
   reports the same register. *)
let xcheck1 (lf : L.lfunc) (o : L.operand) : (lframe -> unit) option =
  match o with
  | L.Ocheck { slot; reg } ->
      let msg =
        Printf.sprintf "Interp: read of undefined register %s in %s" reg
          lf.L.lf_name
      in
      Some
        (fun fr ->
          if Bytes.unsafe_get fr.lfr_defined slot <> '\001' then
            invalid_arg msg)
  | _ -> None

let xguard (lf : L.lfunc) (os : L.operand list) : (lframe -> unit) option =
  match List.filter_map (xcheck1 lf) os with
  | [] -> None
  | [ g ] -> Some g
  | [ g1; g2 ] ->
      Some
        (fun fr ->
          g1 fr;
          g2 fr)
  | gs -> Some (fun fr -> List.iter (fun g -> g fr) gs)

let strip_check : L.operand -> L.operand = function
  | L.Ocheck { slot; _ } -> L.Oslot slot
  | o -> o

let xguarded (g : (lframe -> unit) option) (core : xunit) : xunit =
  match g with
  | None -> core
  | Some g ->
      fun st th fr ->
        g fr;
        core st th fr

(* Getter followed by truncation to [w], with the mask precomputed (and
   immediates truncated outright at compile time). *)
let xget_w (lf : L.lfunc) w (o : L.operand) : t -> lframe -> int64 =
  match o with
  | L.Oimm { v; _ } ->
      let tv = Ty.truncate w v in
      fun _ _ -> tv
  | _ ->
      let g = xget lf o in
      let m = Ty.mask w in
      fun st fr -> Int64.logand (g st fr) m

(* Binop on pre-truncated inputs, specialised per (op, w).  Division by
   zero is the caller's crash check, so Udiv/Urem here assume b <> 0.
   The shifts keep their subtle width semantics in one place by
   delegating to [Sem.eval_binop]. *)
let xbinop (op : binop) w : int64 -> int64 -> int64 =
  let m = Ty.mask w in
  match op with
  | Add -> fun a b -> Int64.logand (Int64.add a b) m
  | Sub -> fun a b -> Int64.logand (Int64.sub a b) m
  | Mul -> fun a b -> Int64.logand (Int64.mul a b) m
  | And -> Int64.logand
  | Or -> Int64.logor
  | Xor -> Int64.logxor
  | Udiv -> fun a b -> Int64.logand (Int64.unsigned_div a b) m
  | Urem -> fun a b -> Int64.logand (Int64.unsigned_rem a b) m
  | Shl | Lshr | Ashr ->
      let sop = smt_binop op in
      fun a b -> Sem.eval_binop sop w a b

let xsext w = if w = 64 then fun v -> v else fun v -> Ty.sign_extend w v

(* Comparison on pre-truncated inputs: [eval_cmp] with the negations
   folded and the sign extension hoisted. *)
let xcmpop (op : cmpop) w : int64 -> int64 -> bool =
  let sx = xsext w in
  match op with
  | Eq -> Int64.equal
  | Ne -> fun a b -> not (Int64.equal a b)
  | Ult -> fun a b -> Int64.unsigned_compare a b < 0
  | Ule -> fun a b -> Int64.unsigned_compare a b <= 0
  | Ugt -> fun a b -> Int64.unsigned_compare a b > 0
  | Uge -> fun a b -> Int64.unsigned_compare a b >= 0
  | Slt -> fun a b -> Int64.compare (sx a) (sx b) < 0
  | Sle -> fun a b -> Int64.compare (sx a) (sx b) <= 0
  | Sgt -> fun a b -> Int64.compare (sx a) (sx b) > 0
  | Sge -> fun a b -> Int64.compare (sx a) (sx b) >= 0

(* Compare condition with the operand reads inlined, one closure body
   per (operand shape, op): without flambda a getter closure boxes its
   int64 return, so the getter chain costs two allocations per compare.
   Here slot reads, masks, sign extensions and the comparison live in a
   single body, where ocamlopt keeps every intermediate unboxed.  The
   comparisons compile to unboxed [Pbintcomp]; unsigned order uses the
   [sub min_int] bias (the definition of [Int64.unsigned_compare]) and
   signed order sign-extends by shift pairs, both on raw reads — the
   input masks fold into the shifts/bias algebraically.  Operand shapes
   outside slot/imm (global, null, undefined-checked) fall back to the
   getter chain. *)
let xcond (lf : L.lfunc) ~(op : cmpop) ~w (a : L.operand) (b : L.operand) :
    t -> lframe -> bool =
  let m = Ty.mask w in
  let sh = 64 - w in
  let mn = Int64.min_int in
  match (a, b) with
  | L.Oslot sa, L.Oslot sb -> (
      match op with
      | Eq -> fun _ fr -> Int64.logand (rget fr sa) m = Int64.logand (rget fr sb) m
      | Ne -> fun _ fr -> Int64.logand (rget fr sa) m <> Int64.logand (rget fr sb) m
      | Ult ->
          fun _ fr ->
            Int64.sub (Int64.logand (rget fr sa) m) mn
            < Int64.sub (Int64.logand (rget fr sb) m) mn
      | Ule ->
          fun _ fr ->
            Int64.sub (Int64.logand (rget fr sa) m) mn
            <= Int64.sub (Int64.logand (rget fr sb) m) mn
      | Ugt ->
          fun _ fr ->
            Int64.sub (Int64.logand (rget fr sa) m) mn
            > Int64.sub (Int64.logand (rget fr sb) m) mn
      | Uge ->
          fun _ fr ->
            Int64.sub (Int64.logand (rget fr sa) m) mn
            >= Int64.sub (Int64.logand (rget fr sb) m) mn
      | Slt ->
          fun _ fr ->
            Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh
            < Int64.shift_right (Int64.shift_left (rget fr sb) sh) sh
      | Sle ->
          fun _ fr ->
            Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh
            <= Int64.shift_right (Int64.shift_left (rget fr sb) sh) sh
      | Sgt ->
          fun _ fr ->
            Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh
            > Int64.shift_right (Int64.shift_left (rget fr sb) sh) sh
      | Sge ->
          fun _ fr ->
            Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh
            >= Int64.shift_right (Int64.shift_left (rget fr sb) sh) sh)
  | L.Oslot sa, L.Oimm { v; _ } -> (
      let k = Ty.truncate w v in
      let uk = Int64.sub k mn in
      let sk = Int64.shift_right (Int64.shift_left k sh) sh in
      match op with
      | Eq -> fun _ fr -> Int64.logand (rget fr sa) m = k
      | Ne -> fun _ fr -> Int64.logand (rget fr sa) m <> k
      | Ult -> fun _ fr -> Int64.sub (Int64.logand (rget fr sa) m) mn < uk
      | Ule -> fun _ fr -> Int64.sub (Int64.logand (rget fr sa) m) mn <= uk
      | Ugt -> fun _ fr -> Int64.sub (Int64.logand (rget fr sa) m) mn > uk
      | Uge -> fun _ fr -> Int64.sub (Int64.logand (rget fr sa) m) mn >= uk
      | Slt ->
          fun _ fr -> Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh < sk
      | Sle ->
          fun _ fr ->
            Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh <= sk
      | Sgt ->
          fun _ fr -> Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh > sk
      | Sge ->
          fun _ fr ->
            Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh >= sk)
  | L.Oimm { v; _ }, L.Oslot sb -> (
      let k = Ty.truncate w v in
      let uk = Int64.sub k mn in
      let sk = Int64.shift_right (Int64.shift_left k sh) sh in
      match op with
      | Eq -> fun _ fr -> k = Int64.logand (rget fr sb) m
      | Ne -> fun _ fr -> k <> Int64.logand (rget fr sb) m
      | Ult -> fun _ fr -> uk < Int64.sub (Int64.logand (rget fr sb) m) mn
      | Ule -> fun _ fr -> uk <= Int64.sub (Int64.logand (rget fr sb) m) mn
      | Ugt -> fun _ fr -> uk > Int64.sub (Int64.logand (rget fr sb) m) mn
      | Uge -> fun _ fr -> uk >= Int64.sub (Int64.logand (rget fr sb) m) mn
      | Slt ->
          fun _ fr -> sk < Int64.shift_right (Int64.shift_left (rget fr sb) sh) sh
      | Sle ->
          fun _ fr ->
            sk <= Int64.shift_right (Int64.shift_left (rget fr sb) sh) sh
      | Sgt ->
          fun _ fr -> sk > Int64.shift_right (Int64.shift_left (rget fr sb) sh) sh
      | Sge ->
          fun _ fr ->
            sk >= Int64.shift_right (Int64.shift_left (rget fr sb) sh) sh)
  | _ ->
      let ga = xget_w lf w a and gb = xget_w lf w b in
      let ev = xcmpop op w in
      fun st fr -> ev (ga st fr) (gb st fr)

(* Hand-specialised LBin unit for slot/imm operand shapes, the same
   unboxing argument as [xcond].  For add/sub/mul and the bitwise ops
   the input masks are algebraically redundant —
   [(a land m) op (b land m) land m = (a op b) land m] for any low-bit
   mask — so raw reads feed the op and only the result is masked,
   exactly the reference's value.  Udiv/Urem keep the input masks (high
   bits change quotients) and the masked-divisor zero check; the shifts
   keep their width subtleties in [Sem.eval_binop], now a direct call. *)
let xbin_unit (lf : L.lfunc) ~ip1 ~dst ~(op : binop) ~w (a : L.operand)
    (b : L.operand) : xunit =
  let tracked = lf.L.lf_tracked in
  let m = Ty.mask w in
  let generic () =
    let xset = xsetter lf in
    let ga = xget_w lf w a and gb = xget_w lf w b in
    match op with
    | Udiv | Urem ->
        let ev = xbinop op w in
        fun st _ fr ->
          let va = ga st fr and vb = gb st fr in
          if Int64.equal vb 0L then raise (Crash Failure.Div_by_zero);
          xset fr dst (ev va vb);
          fr.lfr_ip <- ip1;
          st.lclock <- st.lclock + 1;
          Stepped
    | _ ->
        let ev = xbinop op w in
        fun st _ fr ->
          let va = ga st fr and vb = gb st fr in
          xset fr dst (ev va vb);
          fr.lfr_ip <- ip1;
          st.lclock <- st.lclock + 1;
          Stepped
  in
  match (a, b) with
  | L.Oslot sa, L.Oslot sb -> (
      match op with
      | Add ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.add (rget fr sa) (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Sub ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.sub (rget fr sa) (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Mul ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.mul (rget fr sa) (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | And ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logand (rget fr sa) (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Or ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logor (rget fr sa) (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Xor ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logxor (rget fr sa) (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Udiv ->
          fun st _ fr ->
            let vb = Int64.logand (rget fr sb) m in
            if vb = 0L then raise (Crash Failure.Div_by_zero);
            rset fr dst
              (Int64.logand
                 (Int64.unsigned_div (Int64.logand (rget fr sa) m) vb)
                 m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Urem ->
          fun st _ fr ->
            let vb = Int64.logand (rget fr sb) m in
            if vb = 0L then raise (Crash Failure.Div_by_zero);
            rset fr dst
              (Int64.logand
                 (Int64.unsigned_rem (Int64.logand (rget fr sa) m) vb)
                 m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      (* [Sem.eval_binop]'s shift semantics inlined: amount = the masked
         b as an int; overshifts yield 0 (Shl/Lshr) or the sign fill
         (Ashr, clamped at 63).  Shl's input mask folds into the result
         mask; Lshr/Ashr read masked/sign-extended values since high
         bits would shift into range. *)
      | Shl ->
          fun st _ fr ->
            let s = Int64.to_int (Int64.logand (rget fr sb) m) in
            rset fr dst
              (if s >= w then 0L
               else Int64.logand (Int64.shift_left (rget fr sa) s) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Lshr ->
          fun st _ fr ->
            let s = Int64.to_int (Int64.logand (rget fr sb) m) in
            rset fr dst
              (if s >= w then 0L
               else
                 Int64.shift_right_logical (Int64.logand (rget fr sa) m) s);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Ashr ->
          let sh = 64 - w in
          fun st _ fr ->
            let s = Int64.to_int (Int64.logand (rget fr sb) m) in
            let sa_ =
              Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh
            in
            rset fr dst
              (Int64.logand
                 (Int64.shift_right sa_ (if s >= 63 then 63 else s))
                 m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.Oslot sa, L.Oimm { v; _ } -> (
      let k = Ty.truncate w v in
      match op with
      | Add ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.add (rget fr sa) k) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Sub ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.sub (rget fr sa) k) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Mul ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.mul (rget fr sa) k) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | And ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logand (rget fr sa) k) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Or ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logor (rget fr sa) k) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Xor ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logxor (rget fr sa) k) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Udiv ->
          if k = 0L then fun _ _ _ -> raise (Crash Failure.Div_by_zero)
          else
            fun st _ fr ->
              rset fr dst
                (Int64.logand
                   (Int64.unsigned_div (Int64.logand (rget fr sa) m) k)
                   m);
              xmark tracked fr dst;
              fr.lfr_ip <- ip1;
              st.lclock <- st.lclock + 1;
              Stepped
      | Urem ->
          if k = 0L then fun _ _ _ -> raise (Crash Failure.Div_by_zero)
          else
            fun st _ fr ->
              rset fr dst
                (Int64.logand
                   (Int64.unsigned_rem (Int64.logand (rget fr sa) m) k)
                   m);
              xmark tracked fr dst;
              fr.lfr_ip <- ip1;
              st.lclock <- st.lclock + 1;
              Stepped
      (* constant shift amount: the overshift test resolves at compile
         time *)
      | Shl ->
          let s = Int64.to_int k in
          if s >= w then fun st _ fr ->
            rset fr dst 0L;
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
          else
            fun st _ fr ->
              rset fr dst (Int64.logand (Int64.shift_left (rget fr sa) s) m);
              xmark tracked fr dst;
              fr.lfr_ip <- ip1;
              st.lclock <- st.lclock + 1;
              Stepped
      | Lshr ->
          let s = Int64.to_int k in
          if s >= w then fun st _ fr ->
            rset fr dst 0L;
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
          else
            fun st _ fr ->
              rset fr dst
                (Int64.shift_right_logical (Int64.logand (rget fr sa) m) s);
              xmark tracked fr dst;
              fr.lfr_ip <- ip1;
              st.lclock <- st.lclock + 1;
              Stepped
      | Ashr ->
          let s = Int64.to_int k in
          let s = if s >= 63 then 63 else s in
          let sh = 64 - w in
          fun st _ fr ->
            rset fr dst
              (Int64.logand
                 (Int64.shift_right
                    (Int64.shift_right (Int64.shift_left (rget fr sa) sh) sh)
                    s)
                 m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.Oimm { v; _ }, L.Oslot sb -> (
      let k = Ty.truncate w v in
      match op with
      | Add ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.add k (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Sub ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.sub k (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Mul ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.mul k (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | And ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logand k (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Or ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logor k (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Xor ->
          fun st _ fr ->
            rset fr dst (Int64.logand (Int64.logxor k (rget fr sb)) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Udiv ->
          fun st _ fr ->
            let vb = Int64.logand (rget fr sb) m in
            if vb = 0L then raise (Crash Failure.Div_by_zero);
            rset fr dst (Int64.logand (Int64.unsigned_div k vb) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Urem ->
          fun st _ fr ->
            let vb = Int64.logand (rget fr sb) m in
            if vb = 0L then raise (Crash Failure.Div_by_zero);
            rset fr dst (Int64.logand (Int64.unsigned_rem k vb) m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Shl | Lshr | Ashr ->
          let sop = smt_binop op in
          fun st _ fr ->
            rset fr dst
              (Sem.eval_binop sop w k (Int64.logand (rget fr sb) m));
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | _ -> generic ()

(* Pop the returning frame and bind the value in the caller, ticking
   the clock unless the thread itself finished (the reference retires a
   [Thread_done] step without a tick).  The value is a raw slot read
   ([some] false for a void return): the option box moves to the
   Program_done edge (once per run), so ordinary returns allocate
   nothing beyond what the frame pop itself frees. *)
let xreturn st (th : lthread) ~some (value : int64) : step =
  match th.lstack with
  | [] -> assert false
  | fr :: rest -> (
      List.iter (Memory.release_stack st.lmem) fr.lfr_stack_objs;
      th.lstack <- rest;
      th.ldepth <- th.ldepth - 1;
      match rest with
      | [] ->
          th.lstatus <- Done_t;
          if th.ltid = 0 then begin
            st.lclock <- st.lclock + 1;
            Program_done (if some then Some value else None)
          end
          else Thread_done
      | caller :: _ ->
          (match fr.lfr_dst with
           | Some dst ->
               lset_slot caller dst
                 (if some then Ty.truncate fr.lfr_func.L.lf_ret_w value
                  else 0L)
           | None -> ());
          st.lclock <- st.lclock + 1;
          Stepped)

(* Hand-specialised call: one writer closure per argument copies
   caller-frame slots into the callee frame as raw 64-bit moves — no
   boxed getter returns, no argument list, no List.iteri binding.
   Writers run last-argument-first, the reference's fold_right
   evaluation order (observable only through Ocheck raises).  The
   callee frame is allocated before the arguments evaluate; that
   reordering is unobservable (a frame allocation journals nothing).
   Arity mismatches fall back to the generic path so the invalid_arg
   fires after operand evaluation, exactly like [make_lframe]. *)
let xcall_unit (low : L.t) (lf : L.lfunc) ~ip1 ~dst ~fidx
    (args : L.operand array) : xunit option =
  let callee = low.L.l_funcs.(fidx) in
  let params = callee.L.lf_params in
  if Array.length args <> Array.length params then None
  else begin
    let tracked = callee.L.lf_tracked in
    let writer i : t -> lframe -> lframe -> unit =
      let slot, ty = params.(i) in
      let m = Ty.mask (width_of_ty ty) in
      let[@inline] put (nfr : lframe) v =
        rset nfr slot v;
        if tracked then Bytes.unsafe_set nfr.lfr_defined slot '\001'
      in
      match args.(i) with
      | L.Oslot s -> fun _ fr nfr -> put nfr (Int64.logand (rget fr s) m)
      | L.Oimm { v; _ } ->
          let k = Int64.logand v m in
          fun _ _ nfr -> put nfr k
      | L.Onull -> fun _ _ nfr -> put nfr 0L
      | L.Oglobal gi ->
          fun st _ nfr ->
            put nfr (Int64.logand (Array.unsafe_get st.lglobal_ptrs gi) m)
      | L.Ocheck { slot = s; reg } ->
          let msg =
            Printf.sprintf "Interp: read of undefined register %s in %s" reg
              lf.L.lf_name
          in
          fun _ fr nfr ->
            if Bytes.unsafe_get fr.lfr_defined s <> '\001' then
              invalid_arg msg;
            put nfr (Int64.logand (rget fr s) m)
    in
    let writers = Array.init (Array.length params) writer in
    let nparams = Array.length params in
    let nbytes = callee.L.lf_nslots lsl 3 in
    let ndef = callee.L.lf_nslots in
    let entry = callee.L.lf_blocks.(0) in
    Some
      (fun st th fr ->
        if th.ldepth >= st.lcfg.max_call_depth then
          raise (Crash Failure.Stack_overflow);
        let nfr =
          { lfr_func = callee; lfr_block = entry; lfr_ip = 0;
            lfr_regs = Bytes.make nbytes '\000';
            lfr_defined =
              (if tracked then Bytes.make ndef '\000' else empty_defined);
            lfr_dst = dst; lfr_stack_objs = []; lfr_pending = None }
        in
        for i = nparams - 1 downto 0 do
          (Array.unsafe_get writers i) st fr nfr
        done;
        fr.lfr_ip <- ip1;
        record_entry st callee 0;
        th.lstack <- nfr :: th.lstack;
        th.ldepth <- th.ldepth + 1;
        st.lclock <- st.lclock + 1;
        Stepped)
  end

(* The block's retirement accounting, run by its terminator unit: one
   batched add per counter class plus the per-block retirement count,
   before the terminator executes (also before abort/unreachable raise),
   like the reference's count-then-step. *)
let[@inline] xflush st uid (b : L.lblock) =
  if M.enabled M.default then begin
    flush_delta b.L.lb_delta;
    (* uid < length by construction: it's the block's own table slot *)
    Array.unsafe_set st.lblk_counts uid
      (Array.unsafe_get st.lblk_counts uid + 1)
  end

(* on_def around the singleton [u] of the instruction at [ip].  The
   reference fires it from [set_reg], the instruction's last effect, so
   firing it as soon as the unit retires is the same point in the hook
   sequence; the point is a compile-time constant.  A call's result
   binds at the return, without on_def, as in the reference. *)
let xdef (lf : L.lfunc) (b : L.lblock) ip (u : xunit) : xunit =
  match b.L.lb_instrs.(ip) with
  | L.LCall _ -> u
  | i -> (
      match ldef_slot i with
      | None -> u
      | Some dst ->
          let p =
            { p_func = lf.L.lf_name; p_block = b.L.lb_label; p_index = ip }
          in
          let reg = lf.L.lf_reg_of_slot.(dst) in
          fun st th fr ->
            match u st th fr with
            | Stepped ->
                (match st.lcfg.hooks.on_def with
                 | Some h -> h p ~reg ~value:(rget fr dst)
                 | None -> ());
                Stepped
            | s -> s)

(* Hand-specialised singleton for the instruction at [ip] under hook
   set [hs] (on_def aside: see [xdef]).  Mirrors the reference's
   [step_instr] case by case — same evaluation order, same crash
   points, same writes, same hook calls — plus the ip/clock update of
   its run loop. *)
let xinstr (low : L.t) (lf : L.lfunc) (b : L.lblock) ip ~(hs : hook_set) :
    xunit =
  let ip1 = ip + 1 in
  let xset = xsetter lf in
  let tracked = lf.L.lf_tracked in
  match b.L.lb_instrs.(ip) with
  | L.LBin { dst; op; w; a; b; _ } ->
      (* reference order: a then b (let-and binds left to right) *)
      xguarded
        (xguard lf [ a; b ])
        (xbin_unit lf ~ip1 ~dst ~op ~w (strip_check a) (strip_check b))
  | L.LCmp { dst; op; w; a; b; _ } ->
      (* reference order: b then a (application arguments evaluate
         right to left) *)
      let g = xguard lf [ b; a ] in
      let cond = xcond lf ~op ~w (strip_check a) (strip_check b) in
      xguarded g (fun st _ fr ->
          rset fr dst (if cond st fr then 1L else 0L);
          xmark tracked fr dst;
          fr.lfr_ip <- ip1;
          st.lclock <- st.lclock + 1;
          Stepped)
  | L.LSelect { dst; w; cond; if_true; if_false; _ } ->
      let gc = xget lf cond
      and gt = xget lf if_true
      and gf = xget lf if_false in
      let m = Ty.mask w in
      fun st _ fr ->
        let c = gc st fr in
        let v =
          if Int64.equal (Int64.logand c 1L) 1L then gt st fr else gf st fr
        in
        xset fr dst (Int64.logand v m);
        fr.lfr_ip <- ip1;
        st.lclock <- st.lclock + 1;
        Stepped
  | L.LCast { dst; kind; to_w; from_w; v = v0; _ } -> (
      let gv = xguard lf [ v0 ] in
      let v = strip_check v0 in
      xguarded gv
      @@
      match (kind, v) with
      (* single mask: (x & m_from) & m_to, folded at compile time *)
      | (Zext | Ptrtoint | Inttoptr | Trunc), L.Oslot s ->
          let mm = Int64.logand (Ty.mask from_w) (Ty.mask to_w) in
          fun st _ fr ->
            rset fr dst (Int64.logand (rget fr s) mm);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      (* the from-mask folds into the shift pair, as in [xcond] *)
      | Sext, L.Oslot s ->
          let sh = 64 - from_w and m = Ty.mask to_w in
          fun st _ fr ->
            rset fr dst
              (Int64.logand
                 (Int64.shift_right (Int64.shift_left (rget fr s) sh) sh)
                 m);
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | (Zext | Ptrtoint | Inttoptr | Trunc), _ ->
          let g = xget_w lf from_w v in
          let m = Ty.mask to_w in
          fun st _ fr ->
            xset fr dst (Int64.logand (g st fr) m);
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | Sext, _ ->
          let g = xget_w lf from_w v in
          let sx = xsext from_w and m = Ty.mask to_w in
          fun st _ fr ->
            xset fr dst (Int64.logand (sx (g st fr)) m);
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LLoad { dst; ty; addr = addr0 } -> (
      let ga = xguard lf [ addr0 ] in
      let addr = strip_check addr0 in
      xguarded ga
      @@
      match addr with
      | L.Oslot sa ->
          fun st _ fr ->
            let v =
              match Memory.load_exn st.lmem (rget fr sa) ~ty with
              | v -> v
              | exception Memory.Fault k -> raise (Crash k)
            in
            rset fr dst v;
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | L.Oglobal gi ->
          fun st _ fr ->
            let v =
              match
                Memory.load_exn st.lmem
                  (Array.unsafe_get st.lglobal_ptrs gi)
                  ~ty
              with
              | v -> v
              | exception Memory.Fault k -> raise (Crash k)
            in
            rset fr dst v;
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | _ ->
          let ga = xget lf addr in
          fun st _ fr ->
            let v =
              match Memory.load_exn st.lmem (ga st fr) ~ty with
              | v -> v
              | exception Memory.Fault k -> raise (Crash k)
            in
            xset fr dst v;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LStore { ty; w; v = v0; addr = addr0 } -> (
      (* reference order: value then address *)
      let gs = xguard lf [ v0; addr0 ] in
      let v = strip_check v0 and addr = strip_check addr0 in
      let m = Ty.mask w in
      xguarded gs
      @@
      match (v, addr) with
      | _ when hs.hs_store -> (
          (* on_store wants the cell and its old value: the result API *)
          let gv = xget_w lf w v and ga = xget lf addr in
          fun st _ fr ->
            let value = gv st fr in
            match Memory.store st.lmem (ga st fr) ~ty value with
            | Error k -> raise (Crash k)
            | Ok (obj, index, old_value) ->
                (match st.lcfg.hooks.on_store with
                 | Some f -> f ~obj ~index ~old_value ~new_value:value
                 | None -> ());
                fr.lfr_ip <- ip1;
                st.lclock <- st.lclock + 1;
                Stepped)
      | L.Oslot sv, L.Oslot sa ->
          fun st _ fr ->
            let value = Int64.logand (rget fr sv) m in
            (match Memory.store_exn st.lmem (rget fr sa) ~ty value with
             | () -> ()
             | exception Memory.Fault k -> raise (Crash k));
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | L.Oslot sv, L.Oglobal gi ->
          fun st _ fr ->
            let value = Int64.logand (rget fr sv) m in
            (match
               Memory.store_exn st.lmem
                 (Array.unsafe_get st.lglobal_ptrs gi)
                 ~ty value
             with
             | () -> ()
             | exception Memory.Fault k -> raise (Crash k));
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | L.Oimm { v = iv; _ }, L.Oslot sa ->
          let k = Ty.truncate w iv in
          fun st _ fr ->
            (match Memory.store_exn st.lmem (rget fr sa) ~ty k with
             | () -> ()
             | exception Memory.Fault k -> raise (Crash k));
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | L.Oimm { v = iv; _ }, L.Oglobal gi ->
          let k = Ty.truncate w iv in
          fun st _ fr ->
            (match
               Memory.store_exn st.lmem
                 (Array.unsafe_get st.lglobal_ptrs gi)
                 ~ty k
             with
             | () -> ()
             | exception Memory.Fault k -> raise (Crash k));
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | _ ->
          let gv = xget_w lf w v and ga = xget lf addr in
          fun st _ fr ->
            let value = gv st fr in
            (match Memory.store_exn st.lmem (ga st fr) ~ty value with
             | () -> ()
             | exception Memory.Fault k -> raise (Crash k));
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LAlloc { dst; elt_ty; count; heap } -> (
      let gc = xget lf count in
      let ha = hs.hs_alloc in
      fun st _ fr ->
        let n = Int64.to_int (gc st fr) in
        if ha then
          (match st.lcfg.hooks.on_alloc with
           | Some f -> f (Int64.of_int n)
           | None -> ());
        match Memory.alloc st.lmem ~elt_ty ~size:n ~heap with
        | None ->
            raise (Crash (Failure.Access_type_error "allocation too large"))
        | Some p ->
            if not heap then
              fr.lfr_stack_objs <- Memory.ptr_obj p :: fr.lfr_stack_objs;
            xset fr dst p;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LFree { addr } -> (
      let ga = xget lf addr in
      fun st _ fr ->
        match Memory.free st.lmem (ga st fr) with
        | Error k -> raise (Crash k)
        | Ok () ->
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LGep { dst; base = base0; idx = idx0 } -> (
      (* reference order: base then index *)
      let gg = xguard lf [ base0; idx0 ] in
      let base = strip_check base0 and idx = strip_check idx0 in
      (* sign_extend 64 is the identity, so the index read is plain *)
      xguarded gg
      @@
      match (base, idx) with
      | L.Oslot sb_, L.Oslot si ->
          fun st _ fr ->
            let p = rget fr sb_ in
            let i = Int64.to_int (rget fr si) in
            rset fr dst
              (Memory.ptr ~obj:(Memory.ptr_obj p)
                 ~index:(Memory.ptr_index p + i));
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | L.Oslot sb_, L.Oimm { v; _ } ->
          let ki = Int64.to_int v in
          fun st _ fr ->
            let p = rget fr sb_ in
            rset fr dst
              (Memory.ptr ~obj:(Memory.ptr_obj p)
                 ~index:(Memory.ptr_index p + ki));
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | L.Oglobal gi_, L.Oslot si ->
          fun st _ fr ->
            let p = Array.unsafe_get st.lglobal_ptrs gi_ in
            let i = Int64.to_int (rget fr si) in
            rset fr dst
              (Memory.ptr ~obj:(Memory.ptr_obj p)
                 ~index:(Memory.ptr_index p + i));
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | L.Oglobal gi_, L.Oimm { v; _ } ->
          let ki = Int64.to_int v in
          fun st _ fr ->
            let p = Array.unsafe_get st.lglobal_ptrs gi_ in
            rset fr dst
              (Memory.ptr ~obj:(Memory.ptr_obj p)
                 ~index:(Memory.ptr_index p + ki));
            xmark tracked fr dst;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | _ ->
          let gb = xget lf base and gi = xget lf idx in
          fun st _ fr ->
            let p = gb st fr in
            let i = Int64.to_int (gi st fr) in
            xset fr dst
              (Memory.ptr ~obj:(Memory.ptr_obj p)
                 ~index:(Memory.ptr_index p + i));
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LCall { dst; fidx; args } -> (
      match
        if hs.hs_enter then None else xcall_unit low lf ~ip1 ~dst ~fidx args
      with
      | Some x -> x
      | None ->
          (* on_enter wants the argument list, and an arity mismatch
             must raise its invalid_arg after operand evaluation, like
             the reference: both take the generic path *)
          let gargs = Array.map (xget lf) args in
          fun st th fr ->
            if th.ldepth >= st.lcfg.max_call_depth then
              raise (Crash Failure.Stack_overflow);
            let callee = st.llow.L.l_funcs.(fidx) in
            let vargs =
              Array.fold_right (fun g acc -> g st fr :: acc) gargs []
            in
            (match st.lcfg.hooks.on_enter with
             | Some h -> h ~func:callee.L.lf_name ~args:vargs
             | None -> ());
            fr.lfr_ip <- ip1;
            record_entry st callee 0;
            th.lstack <- make_lframe callee vargs ~dst :: th.lstack;
            th.ldepth <- th.ldepth + 1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LInput { dst; ty; stream } -> (
      let m = Ty.mask (width_of_ty ty) in
      let hi = hs.hs_input in
      fun st _ fr ->
        match Inputs.read st.linputs stream with
        | None -> raise (Crash (Failure.Input_exhausted stream))
        | Some v ->
            let v = Int64.logand v m in
            if hi then
              (match st.lcfg.hooks.on_input with
               | Some f -> f ~stream ~value:v
               | None -> ());
            xset fr dst v;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LOutput { v = v0 } -> (
      let gv = xguard lf [ v0 ] in
      let v = strip_check v0 in
      xguarded gv
      @@
      match v with
      | L.Oslot s ->
          fun st _ fr ->
            st.loutputs <- rget fr s :: st.loutputs;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | _ ->
          let gv = xget lf v in
          fun st _ fr ->
            st.loutputs <- gv st fr :: st.loutputs;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LPtwrite { v } ->
      (* clock-free; with no hook the traced operand is not even
         evaluated, exactly like the [None] arm of the reference *)
      if hs.hs_ptwrite then
        let gv = xget lf v in
        fun st _ fr ->
          (match st.lcfg.hooks.on_ptwrite with
           | Some f -> f (gv st fr)
           | None -> ());
          fr.lfr_ip <- ip1;
          Stepped_free
      else fun _ _ fr ->
        fr.lfr_ip <- ip1;
        Stepped_free
  | L.LAssert { cond = cond0; msg } -> (
      let gc = xguard lf [ cond0 ] in
      let cond = strip_check cond0 in
      xguarded gc
      @@
      match cond with
      | L.Oslot s ->
          fun st _ fr ->
            if Int64.logand (rget fr s) 1L = 0L then
              raise (Crash (Failure.Assert_failed msg));
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
      | _ ->
          let gc = xget lf cond in
          fun st _ fr ->
            if Int64.equal (Int64.logand (gc st fr) 1L) 0L then
              raise (Crash (Failure.Assert_failed msg));
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LSpawn { fidx; args } ->
      let gargs = Array.map (xget lf) args in
      fun st _ fr ->
        let callee = st.llow.L.l_funcs.(fidx) in
        let vargs = Array.fold_right (fun g acc -> g st fr :: acc) gargs [] in
        record_entry st callee 0;
        let nt =
          { ltid = st.lnext_tid; lstack = [ make_lframe callee vargs ~dst:None ];
            ldepth = 1; lstatus = Runnable }
        in
        st.lnext_tid <- st.lnext_tid + 1;
        st.lthreads <- st.lthreads @ [ nt ];
        fr.lfr_ip <- ip1;
        st.lclock <- st.lclock + 1;
        Stepped
  | L.LJoin ->
      let src_i = b.L.lb_src.instrs.(ip) in
      fun st th fr ->
        let others_done =
          List.for_all
            (fun t -> t.ltid = th.ltid || t.lstatus = Done_t)
            st.lthreads
        in
        if others_done then begin
          fr.lfr_ip <- ip1;
          st.lclock <- st.lclock + 1;
          Stepped
        end
        else begin
          th.lstatus <- Waiting_join;
          (* blocked ops count once per attempt, like the reference *)
          if M.enabled M.default then count_instr src_i;
          Blocked
        end
  | L.LLock { addr } -> (
      let ga = xget lf addr and src_i = b.L.lb_src.instrs.(ip) in
      fun st th fr ->
        let a = ga st fr in
        match Hashtbl.find_opt st.lmutexes a with
        | Some owner when owner = th.ltid ->
            raise (Crash (Failure.Lock_error "recursive lock"))
        | Some _ ->
            th.lstatus <- Blocked_lock a;
            if M.enabled M.default then count_instr src_i;
            Blocked
        | None ->
            Hashtbl.replace st.lmutexes a th.ltid;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LUnlock { addr } -> (
      let ga = xget lf addr in
      fun st th fr ->
        let a = ga st fr in
        match Hashtbl.find_opt st.lmutexes a with
        | Some owner when owner = th.ltid ->
            Hashtbl.remove st.lmutexes a;
            List.iter
              (fun t ->
                 match t.lstatus with
                 | Blocked_lock a' when Int64.equal a a' ->
                     t.lstatus <- Runnable
                 | Blocked_lock _ | Runnable | Waiting_join | Done_t -> ())
              st.lthreads;
            fr.lfr_ip <- ip1;
            st.lclock <- st.lclock + 1;
            Stepped
        | Some _ | None ->
            raise (Crash (Failure.Lock_error "unlock of mutex not held")))

(* Terminator singleton: metric flush, then the jump/return with its
   hook, then the clock tick — the order of the reference's count, step
   and run loop. *)
let xterm (lf : L.lfunc) (b : L.lblock) ~uid ~(hs : hook_set) : xunit =
  let hb = hs.hs_branch and hr = hs.hs_ret in
  match b.L.lb_term with
  | L.LBr i ->
      let target = lf.L.lf_blocks.(i) in
      fun st _ fr ->
        xflush st uid b;
        record_entry st lf i;
        fr.lfr_block <- target;
        fr.lfr_ip <- 0;
        st.lclock <- st.lclock + 1;
        Stepped
  | L.LCond_br { cond; if_true; if_false } -> (
      let bt = lf.L.lf_blocks.(if_true) and bf = lf.L.lf_blocks.(if_false) in
      match cond with
      | L.Oslot s ->
          fun st _ fr ->
            xflush st uid b;
            let c = Int64.logand (rget fr s) 1L = 1L in
            st.lbranches <- st.lbranches + 1;
            if hb then call_branch st c;
            record_entry st lf (if c then if_true else if_false);
            fr.lfr_block <- (if c then bt else bf);
            fr.lfr_ip <- 0;
            st.lclock <- st.lclock + 1;
            Stepped
      | L.Ocheck { slot = s; reg } ->
          (* inline definedness check after the flush, exactly where the
             generic getter would run — no boxed getter return *)
          let msg =
            Printf.sprintf "Interp: read of undefined register %s in %s" reg
              lf.L.lf_name
          in
          fun st _ fr ->
            xflush st uid b;
            if Bytes.unsafe_get fr.lfr_defined s <> '\001' then
              invalid_arg msg;
            let c = Int64.logand (rget fr s) 1L = 1L in
            st.lbranches <- st.lbranches + 1;
            if hb then call_branch st c;
            record_entry st lf (if c then if_true else if_false);
            fr.lfr_block <- (if c then bt else bf);
            fr.lfr_ip <- 0;
            st.lclock <- st.lclock + 1;
            Stepped
      | _ ->
          let gc = xget lf cond in
          fun st _ fr ->
            xflush st uid b;
            let c = Int64.equal (Int64.logand (gc st fr) 1L) 1L in
            st.lbranches <- st.lbranches + 1;
            if hb then call_branch st c;
            record_entry st lf (if c then if_true else if_false);
            fr.lfr_block <- (if c then bt else bf);
            fr.lfr_ip <- 0;
            st.lclock <- st.lclock + 1;
            Stepped)
  | L.LRet None ->
      fun st th _ ->
        xflush st uid b;
        if hr then call_ret st lf None;
        xreturn st th ~some:false 0L
  | L.LRet (Some (L.Oslot s)) ->
      fun st th fr ->
        xflush st uid b;
        let v = rget fr s in
        if hr then call_ret st lf (Some v);
        xreturn st th ~some:true v
  | L.LRet (Some (L.Ocheck { slot = s; reg })) ->
      (* check after the metric flush, matching the generic arm's
         operand-evaluation point *)
      let msg =
        Printf.sprintf "Interp: read of undefined register %s in %s" reg
          lf.L.lf_name
      in
      fun st th fr ->
        xflush st uid b;
        if Bytes.unsafe_get fr.lfr_defined s <> '\001' then invalid_arg msg;
        let v = rget fr s in
        if hr then call_ret st lf (Some v);
        xreturn st th ~some:true v
  | L.LRet (Some o) ->
      let g = xget lf o in
      fun st th fr ->
        xflush st uid b;
        let v = g st fr in
        if hr then call_ret st lf (Some v);
        xreturn st th ~some:true v
  | L.LAbort msg ->
      fun st _ _ ->
        xflush st uid b;
        raise (Crash (Failure.Abort_called msg))
  | L.LUnreachable ->
      fun st _ _ ->
        xflush st uid b;
        raise (Crash Failure.Unreachable_reached)

(* Superinstruction composition: the tail runs iff the head retired.
   Each side updates ip and clock itself, so the pair is observationally
   the two singleton dispatches back to back. *)
let xpair (head : xunit) (tail : xunit) : xunit =
 fun st th fr -> match head st th fr with Stepped -> tail st th fr | s -> s

(* The hottest committed pair gets a hand-fused unit: cmp feeding the
   block's own cond_br on the compared flag, sparing the flag re-read
   and re-test.  The flag register is still written (it stays
   observable), and both sub-steps keep their own clock tick.  Under
   on_def the pair composes its singletons instead, which fire on_def
   between the two. *)
let xcmp_br_fused (lf : L.lfunc) (b : L.lblock) ~uid ~ip ~(hs : hook_set) :
    xunit option =
  match b.L.lb_instrs.(ip), b.L.lb_term with
  | ( L.LCmp { dst; op; w; a; b = ob; _ },
      L.LCond_br { cond = L.Oslot cs | L.Ocheck { slot = cs; _ }; if_true; if_false } )
    when cs = dst && not hs.hs_def ->
      let g = xguard lf [ ob; a ] in
      let cond = xcond lf ~op ~w (strip_check a) (strip_check ob) in
      let tracked = lf.L.lf_tracked and hb = hs.hs_branch in
      let n = Array.length b.L.lb_instrs in
      let bt = lf.L.lf_blocks.(if_true) and bf = lf.L.lf_blocks.(if_false) in
      Some
        (xguarded g (fun st _ fr ->
          let c = cond st fr in
          rset fr dst (if c then 1L else 0L);
          xmark tracked fr dst;
          fr.lfr_ip <- n;
          st.lclock <- st.lclock + 1;
          xflush st uid b;
          st.lbranches <- st.lbranches + 1;
          if hb then call_branch st c;
          record_entry st lf (if c then if_true else if_false);
          fr.lfr_block <- (if c then bt else bf);
          fr.lfr_ip <- 0;
          st.lclock <- st.lclock + 1;
          Stepped))
  | _ -> None

(* A plan-marked singleton: the unit [u] of the instruction at [ip]
   followed by its virtual ptwrite of [slot].  The ptwrite fires inline
   when the clock after the instruction is still below the budget's
   deadline, which is exactly when a pending mark would fire on the
   dispatcher's next pass: nothing observable happens between the two
   points, so the hook sequence is unchanged.  At the budget's end the
   thread yields first, so the mark defers through [lfr_pending] and
   fires when the thread is rescheduled.  A marked call always defers:
   its ptwrite traces the return value, which binds only when the callee
   returns.  Wrapping [xdef]'s unit keeps on_def before the ptwrite, as
   in the reference. *)
let xplanned (b : L.lblock) ip slot (u : xunit) : xunit =
  let pending = Some slot in
  match b.L.lb_instrs.(ip) with
  | L.LCall _ -> (
      fun st th fr ->
        match u st th fr with
        | Stepped ->
            fr.lfr_pending <- pending;
            Stepped
        | s -> s)
  | _ -> (
      fun st th fr ->
        match u st th fr with
        | Stepped ->
            if st.lclock < st.ldeadline then fire_ptwrite st fr slot
            else fr.lfr_pending <- pending;
            Stepped
        | s -> s)

(* One block's threaded code under hook set [hs] and plan row [marks]
   ([||] when the block is unmarked): singletons, fused units, the
   control-transfer map and the whole-block chain.  Marked singletons
   compose into the fused units and the chain like any other; only the
   hand-fused cmp+cond_br needs an unmarked cmp, since it has no point
   between its two steps to fire at. *)
let xcompile_block (low : L.t) (lf : L.lfunc) (b : L.lblock) ~uid
    ~(hs : hook_set) ~(marks : int array) (fp : Fuse.block_plan) : xblock =
  let n = Array.length b.L.lb_instrs in
  let marked ip = Array.length marks <> 0 && marks.(ip) >= 0 in
  let one =
    Array.init (n + 1) (fun ip ->
        if ip = n then xterm lf b ~uid ~hs
        else
          let u = xinstr low lf b ip ~hs in
          let u = if hs.hs_def then xdef lf b ip u else u in
          if marked ip then xplanned b ip marks.(ip) u else u)
  in
  (* tail of a fused unit whose last position is [ip + 1] ([= n] is the
     terminator, where the hand-fused cmp+cond_br is tried first) *)
  let pair_at ip =
    if ip + 1 < n then xpair one.(ip) one.(ip + 1)
    else
      match
        if marked ip then None else xcmp_br_fused lf b ~uid ~ip ~hs
      with
      | Some u -> u
      | None -> xpair one.(ip) one.(n)
  in
  let big =
    Array.init (n + 1) (fun ip ->
        match fp.Fuse.fp_len.(ip) with
        | 3 -> xpair one.(ip) (pair_at (ip + 1))
        | 2 -> pair_at ip
        | _ -> one.(ip))
  in
  (* a unit may transfer control iff it is the terminator, a call (frame
     push; spawn only adds a thread, the current frame continues), or a
     fused unit ending in the terminator *)
  let ctl =
    Array.init (n + 1) (fun ip ->
        ip = n
        || (match b.L.lb_instrs.(ip) with L.LCall _ -> true | _ -> false)
        || (fp.Fuse.fp_len.(ip) > 1 && ip + fp.Fuse.fp_len.(ip) - 1 = n))
  in
  (* Whole-block chain over the fused units.  Only blocks whose every
     instruction is fusable qualify: calls push frames, inputs touch the
     stream cursor, ptwrite retires clock-free ([Stepped_free] would cut
     the chain), the sync ops may block — all of those keep per-unit
     dispatch.  Each sub-unit still updates ip and the clock itself, so
     crashes, failure reports, hook calls and Ocheck traps inside the
     chain keep exact instruction granularity; the budget gate in the
     dispatcher guarantees the chain never starts unless the whole block
     fits the remaining quantum, so every plan mark inside it fires
     inline.  Cost is [n + 1]: one tick per instruction plus the
     terminator (no ptwrite instruction here by construction; virtual
     ones are clock-free). *)
  let wcost, whole =
    if Array.for_all Fuse.fusable_head b.L.lb_instrs then begin
      let rec chain ip =
        let l = fp.Fuse.fp_len.(ip) in
        if ip + l > n then big.(ip)
        else xpair big.(ip) (chain (ip + l))
      in
      (n + 1, chain 0)
    end
    else (max_int, big.(n))
  in
  {
    xb_cost = fp.Fuse.fp_cost;
    xb_one = one;
    xb_big = big;
    xb_ctl = ctl;
    xb_whole = whole;
    xb_wcost = wcost;
    xb_pairs = Fuse.block_pair_keys b;
  }

(* Program-wide block uids: [base.(fidx) + bidx]. *)
let block_base (low : L.t) : int array =
  let nfuncs = Array.length low.L.l_funcs in
  let base = Array.make (nfuncs + 1) 0 in
  for i = 0 to nfuncs - 1 do
    base.(i + 1) <- base.(i) + Array.length low.L.l_funcs.(i).L.lf_blocks
  done;
  base

let xcompile (low : L.t) (fuse : Fuse.t) (hs : hook_set) : xblock array array =
  let base = block_base low in
  Array.mapi
    (fun fi (lf : L.lfunc) ->
       Array.mapi
         (fun bi b ->
            xcompile_block low lf b ~uid:(base.(fi) + bi) ~hs ~marks:[||]
              fuse.Fuse.f_blocks.(fi).(bi))
         lf.L.lf_blocks)
    low.L.l_funcs

(* Bounded compile cache keyed by the *physical* identity of the lowered
   program ([Prog.lowered] memoizes, so every state of one program sees
   the same [L.t]).  Each entry holds the program's fusion analysis and
   one compilation per hook set the program has run under — a handful
   at most (plain, ER recording, Verify, rr), so a program's entry stops
   growing once each kind of run has happened.  Compiled code is
   immutable, so sharing it across states — and across fleet domains —
   is safe; the mutex guards the cache lists and the plans' memos. *)
type prog_code = {
  pc_fuse : Fuse.t;
  mutable pc_codes : (hook_set * xblock array array) list;
}

let xcache : (L.t * prog_code) list ref = ref []
let xcache_mutex = Mutex.create ()
let xcache_cap = 32

let with_xcache f =
  Mutex.lock xcache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock xcache_mutex) f

(* The cache entry of [low], most recently used first; call under the
   mutex. *)
let prog_code (low : L.t) : prog_code =
  match List.find_opt (fun (k, _) -> k == low) !xcache with
  | Some ((_, pc) as entry) ->
      if not (match !xcache with (k, _) :: _ -> k == low | [] -> false) then
        xcache := entry :: List.filter (fun (k, _) -> not (k == low)) !xcache;
      pc
  | None ->
      let pc = { pc_fuse = Fuse.analyze low; pc_codes = [] } in
      let kept =
        if List.length !xcache >= xcache_cap then
          List.filteri (fun i _ -> i < xcache_cap - 1) !xcache
        else !xcache
      in
      xcache := (low, pc) :: kept;
      pc

let code_in (low : L.t) (pc : prog_code) (hs : hook_set) =
  match List.assoc_opt hs pc.pc_codes with
  | Some code -> code
  | None ->
      let code = xcompile low pc.pc_fuse hs in
      pc.pc_codes <- (hs, code) :: pc.pc_codes;
      code

let xcode_of (low : L.t) (hs : hook_set) : xblock array array =
  with_xcache (fun () -> code_in low (prog_code low) hs)

(* The threaded code of a run under plan [p] and hook set [hs], memoized
   in the plan.  Marked blocks compile with their marks against the
   program's fusion analysis; unmarked blocks are the plain code's own
   [xblock]s. *)
let plan_code (p : plan) (hs : hook_set) : xblock array array =
  with_xcache (fun () ->
      match List.assoc_opt hs p.pl_code with
      | Some code -> code
      | None ->
          let low = p.pl_low in
          let pc = prog_code low in
          let plain = code_in low pc hs in
          let base = block_base low in
          let code =
            Array.mapi
              (fun fi row ->
                 let lf = low.L.l_funcs.(fi) in
                 Array.mapi
                   (fun bi xb ->
                      match p.pl_marks.(fi).(bi) with
                      | [||] -> xb
                      | marks ->
                          xcompile_block low lf lf.L.lf_blocks.(bi)
                            ~uid:(base.(fi) + bi) ~hs ~marks
                            pc.pc_fuse.Fuse.f_blocks.(fi).(bi))
                   row)
              plain
          in
          p.pl_code <- (hs, code) :: p.pl_code;
          code)

(* --- the threaded dispatcher ----------------------------------------------- *)

(* Run [th] by threaded dispatch for at most [budget] clock ticks
   (callers guarantee [budget >= 1] and measure consumed ticks as the
   clock delta).  Returns on budget exhaustion ([Stepped] with the
   thread still runnable) or on a scheduling event (Blocked /
   Thread_done / Program_done).  Plan marks are compiled into the units
   (see [xplanned]), which fire their virtual ptwrites inline below
   [ldeadline]; the only marks left for the dispatcher are the deferred
   ones, which fire from [lfr_pending] before the frame's next step.
   Fused units never start unless their full cost fits the remaining
   budget, so quantum boundaries and the hang check land on exactly the
   instruction they would in singleton dispatch. *)
let exec_threaded (st : t) (th : lthread) ~budget : step =
  let deadline = st.lclock + budget in
  st.ldeadline <- deadline;
  let result = ref Stepped in
  let running = ref true in
  while !running do
    match th.lstack with
    | [] ->
        th.lstatus <- Done_t;
        result := Thread_done;
        running := false
    | _ :: _ when st.lclock >= deadline -> running := false
    | ({ lfr_pending = Some slot; _ } as fr) :: _ -> fire_pending st fr slot
    | fr :: _ ->
        (* [lf_idx]/[lb_index] index the per-program tables by
           construction, so the block-transfer re-resolution — run once
           per block, the second-hottest path after dispatch itself —
           can skip the bounds checks *)
        let b0 = fr.lfr_block in
        let fidx = fr.lfr_func.L.lf_idx in
        let xb =
          Array.unsafe_get (Array.unsafe_get st.lxcode fidx) b0.L.lb_index
        in
        let one = xb.xb_one and big = xb.xb_big in
        let cost = xb.xb_cost and ctl = xb.xb_ctl in
        let wcost = xb.xb_wcost and whole = xb.xb_whole in
        (* tight loop: stay while this frame keeps running this block
           (self-loops included); any frame or block change falls out
           to re-resolve the closure arrays and the deferred mark *)
        let inblock = ref true in
        while !inblock do
          if st.lclock >= deadline then begin
            inblock := false;
            running := false
          end
          else begin
            let ip = fr.lfr_ip in
            if ip = 0 && wcost <= deadline - st.lclock then
              (* whole-block chain: ends in the terminator, so only a
                 self-loop back to this block stays in the tight loop *)
              match whole st th fr with
              | Stepped ->
                  if
                    not
                      (fr.lfr_block == b0
                      && (match th.lstack with
                         | top :: _ -> top == fr
                         | [] -> false))
                  then inblock := false
              | Stepped_free -> ()
              | (Blocked | Thread_done | Program_done _) as s ->
                  result := s;
                  inblock := false;
                  running := false
            else
              let f =
                if Array.unsafe_get cost ip <= deadline - st.lclock then
                  Array.unsafe_get big ip
                else Array.unsafe_get one ip
              in
              match f st th fr with
              | Stepped ->
                  if
                    Array.unsafe_get ctl ip
                    && not
                         (fr.lfr_block == b0
                         && (match th.lstack with
                            | top :: _ -> top == fr
                            | [] -> false))
                  then inblock := false
              | Stepped_free -> ()
              | (Blocked | Thread_done | Program_done _) as s ->
                  result := s;
                  inblock := false;
                  running := false
          end
        done
  done;
  !result

(* --- construction and the scheduler loop ----------------------------------- *)

let create ?(config = default_config) ?plan (prog : Er_ir.Prog.t)
    (inputs : Inputs.t) : t =
  Inputs.reset inputs;
  let low = Er_ir.Prog.lowered prog in
  let hs = hook_set_of config.hooks in
  let code =
    match plan with
    | None -> xcode_of low hs
    | Some p ->
        if p.pl_low != low then
          invalid_arg "Vm_state.create: plan built for another program";
        plan_code p hs
  in
  let mem = Memory.create () in
  let nfuncs = Array.length low.L.l_funcs in
  let block_base = block_base low in
  let main_thread =
    { ltid = 0;
      lstack = [ make_lframe low.L.l_funcs.(low.L.l_main) [] ~dst:None ];
      ldepth = 1; lstatus = Runnable }
  in
  let t =
    {
      llow = low;
      lmem = mem;
      linputs = inputs;
      lcfg = config;
      lglobal_ptrs = Array.map (alloc_global_mem mem) low.L.l_globals;
      lmutexes = Hashtbl.create 8;
      lthreads = [ main_thread ];
      lnext_tid = 1;
      lclock = 0;
      lbranches = 0;
      loutputs = [];
      ldeadline = 0;
      lblock_base = block_base;
      lblk_counts = Array.make block_base.(nfuncs) 0;
      lfexec =
        (match plan with
         | Some _ -> Array.make block_base.(nfuncs) (-1)
         | None -> [||]);
      lresult = None;
      lturn = 0;
      lcur = main_thread;
      lxcode = code;
    }
  in
  (* main's entry block is current from clock 0 *)
  if Array.length t.lfexec <> 0 then begin
    let lf = low.L.l_funcs.(low.L.l_main) in
    t.lfexec.(block_base.(lf.L.lf_idx)) <- 0
  end;
  t

(* Swap in [p]'s threaded code.  A state created without a plan tracks
   no first executions, so checkpoint validity could not be judged for
   the new points: refused. *)
let set_plan (t : t) (p : plan) =
  if Array.length t.lfexec = 0 then
    invalid_arg "Vm_state.set_plan: state was created without a plan";
  if p.pl_low != t.llow then
    invalid_arg "Vm_state.set_plan: plan built for another program";
  t.lxcode <- plan_code p (hook_set_of t.lcfg.hooks)

(* This state's adjacent-pair retirement counts: every pair of a block
   (terminator included) weighted by the block's retirement count.  The
   mining input for the committed superinstruction set; only as fresh as
   [lblk_counts], which is metrics-gated. *)
let pair_counts t : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (lf : L.lfunc) ->
       let base = t.lblock_base.(lf.L.lf_idx) in
       Array.iteri
         (fun bidx _ ->
            let n = t.lblk_counts.(base + bidx) in
            if n > 0 then
              List.iter
                (fun key ->
                   Hashtbl.replace tbl key
                     ((match Hashtbl.find_opt tbl key with
                       | Some c -> c
                       | None -> 0)
                     + n))
                t.lxcode.(lf.L.lf_idx).(bidx).xb_pairs)
         lf.L.lf_blocks)
    t.llow.L.l_funcs;
  tbl

(* Pair counts sorted hottest first (count desc, then key asc for
   deterministic output); what `bench vm --opcode-mix` prints. *)
let opcode_pair_profile t : (string * int) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (pair_counts t) []
  |> List.sort (fun (ka, ca) (kb, cb) ->
         if ca <> cb then compare cb ca else String.compare ka kb)

(* Publish this state's per-block retirement counts into the bounded
   hottest-blocks table, and the derived pair counts into the pair
   table (max per key, so repeated runs of one state just refresh their
   rows). *)
let publish_block_profile t =
  if M.enabled M.default then begin
    Array.iter
      (fun (lf : L.lfunc) ->
         let base = t.lblock_base.(lf.L.lf_idx) in
         Array.iteri
           (fun bidx (blk : L.lblock) ->
              let n = t.lblk_counts.(base + bidx) in
              if n > 0 then
                M.top_observe m_top_blocks
                  ~key:(lf.L.lf_name ^ "/" ^ blk.L.lb_label)
                  n)
           lf.L.lf_blocks)
      t.llow.L.l_funcs;
    Hashtbl.iter
      (fun key n -> M.top_observe m_top_pairs ~key n)
      (pair_counts t)
  end

let finish t ?crashed outcome =
  flush_partial t ~crashed;
  publish_block_profile t;
  t.lresult <-
    Some
      {
        outcome;
        instr_count = t.lclock;
        branch_count = t.lbranches;
        outputs = List.rev t.loutputs;
        peak_mem_cells = Memory.peak_cells t.lmem;
        final_mem = t.lmem;
      }

let emit_switch t th =
  M.inc m_switches;
  match t.lcfg.hooks.on_switch with
  | Some f -> f ~tid:th.ltid ~clock:t.lclock
  | None -> ()

(* pick the next runnable thread after [after] in tid order, if any *)
let pick_next t after =
  (* a joining thread becomes runnable once every other thread is done *)
  List.iter
    (fun th ->
       if
         th.lstatus = Waiting_join
         && List.for_all
              (fun u -> u.ltid = th.ltid || u.lstatus = Done_t)
              t.lthreads
       then th.lstatus <- Runnable)
    t.lthreads;
  let runnable = List.filter (fun th -> th.lstatus = Runnable) t.lthreads in
  match runnable with
  | [] -> None
  | _ ->
      let later = List.filter (fun th -> th.ltid > after) runnable in
      Some (match later with th :: _ -> th | [] -> List.hd runnable)

(* Run until the program finishes or, with [~pause_at:c], until the
   first quantum boundary at clock >= [c] ([None] = paused).  The pause
   point commutes with execution: an uninterrupted run and a run paused
   and resumed any number of times perform the identical step sequence. *)
let run ?pause_at (t : t) : run_result option =
  let config = t.lcfg in
  let pause = match pause_at with None -> max_int | Some c -> c in
  let paused = ref false in
  while Option.is_none t.lresult && not !paused do
    let th = t.lcur in
    let quantum = chunk_quantum config t.lturn in
    t.lturn <- t.lturn + 1;
    let steps = ref 0 in
    let stop = ref false in
    while (not !stop) && !steps < quantum && Option.is_none t.lresult do
      if t.lclock >= config.max_instrs then begin
        let fr = List.hd th.lstack in
        finish t
          (Failed
             { Failure.kind = Failure.Hang; point = lpoint_of fr;
               stack = lstack_of th; thread = th.ltid })
      end
      else begin
        (* threaded dispatch for as much of the quantum as remains;
           the hang bound caps the budget so the check above fires at
           exactly the reference instruction *)
        let budget = min (quantum - !steps) (config.max_instrs - t.lclock) in
        let c0 = t.lclock in
        match exec_threaded t th ~budget with
        | exception Crash kind ->
            let fr = List.hd th.lstack in
            finish t ~crashed:th
              (Failed
                 { Failure.kind; point = lpoint_of fr;
                   stack = lstack_of th; thread = th.ltid })
        | Stepped | Stepped_free -> steps := !steps + (t.lclock - c0)
        | Blocked | Thread_done ->
            steps := !steps + (t.lclock - c0);
            stop := true
        | Program_done v ->
            steps := !steps + (t.lclock - c0);
            finish t (Finished v)
      end
    done;
    (match t.lresult with
     | Some _ -> ()
     | None -> (
         match pick_next t th.ltid with
         | Some next ->
             if next.ltid <> th.ltid || th.lstatus <> Runnable then begin
               t.lcur <- next;
               if next.ltid <> th.ltid then emit_switch t next
             end
             else t.lcur <- next
         | None ->
             if List.for_all (fun th -> th.lstatus = Done_t) t.lthreads then
               (* main returning sets Program_done, so reaching here with
                  all threads done means main never ran; treat as finish *)
               finish t (Finished None)
             else begin
               let victim =
                 match
                   List.find_opt (fun th -> th.lstatus <> Done_t) t.lthreads
                 with
                 | Some th -> th
                 | None -> assert false
               in
               let point, stack =
                 match victim.lstack with
                 | fr :: _ -> lpoint_of fr, lstack_of victim
                 | [] ->
                     ( { p_func = t.llow.L.l_src.main; p_block = "entry";
                         p_index = 0 }, [] )
               in
               finish t
                 (Failed
                    { Failure.kind = Failure.Deadlock; point;
                      stack; thread = victim.ltid })
             end));
    if Option.is_none t.lresult && t.lclock >= pause then paused := true
  done;
  t.lresult

let run_to_end (t : t) : run_result =
  match run t with Some r -> r | None -> assert false

(* The old [Interp.run]: fresh state, straight to the end. *)
let run_program ?config (prog : Er_ir.Prog.t) (inputs : Inputs.t) : run_result =
  run_to_end (create ?config prog inputs)

(* --- snapshot / revert ----------------------------------------------------- *)

type saved_frame = {
  sf_func : L.lfunc;
  sf_block : L.lblock;
  sf_ip : int;
  sf_regs : Bytes.t;               (* raw 64-bit cells like [lfr_regs] *)
  sf_defined : Bytes.t;
  sf_dst : int option;
  sf_stack_objs : int list;
  sf_pending : int option;
}

type saved_thread = {
  sth_tid : int;
  sth_frames : saved_frame list;
  sth_depth : int;
  sth_status : tstatus;
}

type checkpoint = {
  vck_clock : int;
  vck_branches : int;
  vck_outputs : int64 list;       (* immutable: shared, not copied *)
  vck_turn : int;
  vck_cur : int;                  (* tid of the scheduled thread *)
  vck_next_tid : int;
  vck_threads : saved_thread list;
  vck_mutexes : (int64 * int) list;
  vck_mem : Memory.checkpoint;
  vck_inputs : Inputs.checkpoint;
  vck_fexec : int array;
  (* process-registry VM counter values, for the opt-in metric restore *)
  vck_counters : (M.counter * int) list;
}

let clock_of_checkpoint ck = ck.vck_clock

let save_frame (fr : lframe) : saved_frame =
  {
    sf_func = fr.lfr_func;
    sf_block = fr.lfr_block;
    sf_ip = fr.lfr_ip;
    sf_regs = Bytes.copy fr.lfr_regs;
    sf_defined =
      (if Bytes.length fr.lfr_defined = 0 then empty_defined
       else Bytes.copy fr.lfr_defined);
    sf_dst = fr.lfr_dst;
    sf_stack_objs = fr.lfr_stack_objs;
    sf_pending = fr.lfr_pending;
  }

let restore_frame (sf : saved_frame) : lframe =
  {
    lfr_func = sf.sf_func;
    lfr_block = sf.sf_block;
    lfr_ip = sf.sf_ip;
    lfr_regs = Bytes.copy sf.sf_regs;
    lfr_defined =
      (if Bytes.length sf.sf_defined = 0 then empty_defined
       else Bytes.copy sf.sf_defined);
    lfr_dst = sf.sf_dst;
    lfr_stack_objs = sf.sf_stack_objs;
    lfr_pending = sf.sf_pending;
  }

(* Valid between quanta: before the first [run], or after a paused or
   finished one.  Frames and the store are deep-captured (registers by
   copy, memory by CoW page-table snapshot); any number of checkpoints
   can be live at once and each survives repeated reverts. *)
let snapshot (t : t) : checkpoint =
  {
    vck_clock = t.lclock;
    vck_branches = t.lbranches;
    vck_outputs = t.loutputs;
    vck_turn = t.lturn;
    vck_cur = t.lcur.ltid;
    vck_next_tid = t.lnext_tid;
    vck_threads =
      List.map
        (fun th ->
           { sth_tid = th.ltid;
             sth_frames = List.map save_frame th.lstack;
             sth_depth = th.ldepth;
             sth_status = th.lstatus })
        t.lthreads;
    vck_mutexes = Hashtbl.fold (fun a o acc -> (a, o) :: acc) t.lmutexes [];
    vck_mem = Memory.snapshot t.lmem;
    vck_inputs = Inputs.checkpoint t.linputs;
    vck_fexec = Array.copy t.lfexec;
    vck_counters = List.map (fun c -> (c, M.counter_value c)) vm_counters;
  }

(* Restore the full run state.  Metrics are process-global and shared
   with whatever else ran since the snapshot, so winding the counters
   back is opt-in ([~restore_metrics:true] — used by the bit-identity
   property test); the ER pipeline leaves them monotone. *)
let revert ?(restore_metrics = false) (t : t) (ck : checkpoint) : unit =
  Memory.revert t.lmem ck.vck_mem;
  Inputs.restore t.linputs ck.vck_inputs;
  t.lclock <- ck.vck_clock;
  t.lbranches <- ck.vck_branches;
  t.loutputs <- ck.vck_outputs;
  t.lturn <- ck.vck_turn;
  t.lnext_tid <- ck.vck_next_tid;
  Hashtbl.reset t.lmutexes;
  List.iter (fun (a, o) -> Hashtbl.replace t.lmutexes a o) ck.vck_mutexes;
  t.lthreads <-
    List.map
      (fun sth ->
         { ltid = sth.sth_tid;
           lstack = List.map restore_frame sth.sth_frames;
           ldepth = sth.sth_depth;
           lstatus = sth.sth_status })
      ck.vck_threads;
  t.lcur <- List.find (fun th -> th.ltid = ck.vck_cur) t.lthreads;
  t.lfexec <- Array.copy ck.vck_fexec;
  t.lresult <- None;
  if restore_metrics then
    List.iter
      (fun (c, v) -> M.add c (v - M.counter_value c))
      ck.vck_counters

(* Swap in the next occurrence's stream contents while keeping the
   restored cursors: how a resumed prefix continues under new inputs.
   Only sound when [Inputs.prefix_ok] held for the checkpoint. *)
let swap_inputs (t : t) (fresh : Inputs.t) = Inputs.replace_streams t.linputs fresh

(* --- checkpoint-validity queries ------------------------------------------- *)

(* Clock at which [point]'s block first became current in the state's
   history, [None] if it never did (or the point is unknown).  A
   checkpoint at clock [c] stays valid when a new recording point lands
   in that block iff [c <= first-exec clock]: every retirement of the
   marked instruction then happens after the resume, under the new
   plan. *)
let first_exec_clock (t : t) (p : point) : int option =
  if Array.length t.lfexec = 0 then None
  else
    match Hashtbl.find_opt t.llow.L.l_func_index p.p_func with
    | None -> None
    | Some fidx ->
        let lf = t.llow.L.l_funcs.(fidx) in
        let found = ref None in
        Array.iter
          (fun (b : L.lblock) ->
             if String.equal b.L.lb_label p.p_block then
               found := Some b.L.lb_index)
          lf.L.lf_blocks;
        (match !found with
         | None -> None
         | Some bidx ->
             let c = t.lfexec.(t.lblock_base.(lf.L.lf_idx) + bidx) in
             if c < 0 then None else Some c)

let seed_independent (t : t) = not (has_spawn t.llow)

(* Would the run up to [ck] have consumed the same values under [fresh]'s
   stream contents?  The state's current streams are the old side: they
   are the streams of the run the checkpoint was taken from (kept up to
   date by [swap_inputs] on every resume). *)
let inputs_prefix_ok (t : t) (ck : checkpoint) ~(fresh : Inputs.t) : bool =
  Inputs.prefix_ok ~old:t.linputs ~fresh ck.vck_inputs

(* --- inspection ------------------------------------------------------------ *)

let clock (t : t) = t.lclock
let branches (t : t) = t.lbranches
let result (t : t) = t.lresult
let memory (t : t) = t.lmem
let inputs (t : t) = t.linputs
let outputs_so_far (t : t) = List.rev t.loutputs
let lowered (t : t) = t.llow

type frame_view = {
  fv_func : string;
  fv_block : string;
  fv_ip : int;
  fv_regs : (string * int64) list;   (* defined registers, slot order *)
  fv_pending : string option;        (* register with a pending ptwrite *)
}

type thread_view = {
  tv_tid : int;
  tv_status : tstatus;
  tv_frames : frame_view list;       (* innermost first *)
}

let view_frame (fr : lframe) : frame_view =
  let names = fr.lfr_func.L.lf_reg_of_slot in
  let tracked = Bytes.length fr.lfr_defined <> 0 in
  let regs = ref [] in
  for s = (Bytes.length fr.lfr_regs lsr 3) - 1 downto 0 do
    let defined = (not tracked) || Bytes.get fr.lfr_defined s = '\001' in
    if defined then regs := (names.(s), rget fr s) :: !regs
  done;
  {
    fv_func = fr.lfr_func.L.lf_name;
    fv_block = fr.lfr_block.L.lb_label;
    fv_ip = fr.lfr_ip;
    fv_regs = !regs;
    fv_pending = Option.map (fun s -> names.(s)) fr.lfr_pending;
  }

let threads (t : t) : thread_view list =
  List.map
    (fun th ->
       { tv_tid = th.ltid;
         tv_status = th.lstatus;
         tv_frames = List.map view_frame th.lstack })
    t.lthreads
