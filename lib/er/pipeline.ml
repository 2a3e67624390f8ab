(* The staged ER pipeline (paper Fig. 2, section 3.3.4).

   The iterative algorithm is a pipeline of four stages per failure
   occurrence:

     TRACER    — instrumented production run under PT-like tracing,
                 snapshot shipped when the tracked failure reoccurs;
     SHEPHERD  — symbolic execution shepherded along the decoded trace;
     SELECTOR  — key data value selection over the constraint graph at a
                 stall, extending the recording set;
     VERIFIER  — concrete re-execution of the generated test case.

   Each stage is a first-class module (so alternative tracers/solvers/
   selection policies can be swapped in), the loop is a fold of an
   immutable {!state} over occurrences, and every stage reports through
   the {!Events} bus.  Per-iteration accounting records are *derived from
   the event stream* rather than hand-assembled, so whatever a sink sees
   is, by construction, the same data the result reports. *)

open Er_ir.Types
module Interp = Er_vm.Interp
module Exec = Er_symex.Exec
module M = Er_metrics

(* The paper's key recording budget: ptwrite bytes (PTW packets are 9
   bytes on the wire) per million instructions of the traced run. *)
let m_bandwidth =
  M.gauge
    ~help:"Recording bandwidth of the last capture, in ptwrite bytes per            million instructions."
    "er_select_recording_bytes_per_minstr"

(* Hot-spot attribution: instructions the tracer did not re-execute
   because the production run resumed from a checkpoint, keyed per
   occurrence (cost = resume clock = prefix instructions saved). *)
let m_top_ckpt_savings =
  M.top ~k:8
    ~help:"Largest per-occurrence checkpoint savings (instructions not \
           re-executed on resume)."
    "er_tracer_top_checkpoint_saved_instrs"

type config = {
  max_occurrences : int;           (* bound on production runs consumed *)
  exec_config : Exec.config;
  ring_bytes : int;                (* trace ring buffer size *)
  incremental : bool;              (* resume runs from CoW checkpoints *)
}

let default_config =
  {
    max_occurrences = 24;
    exec_config = Exec.default_config;
    ring_bytes = 1 lsl 22;
    incremental = true;
  }

(* A workload produces the inputs (and scheduler seed) of the k-th
   occurrence of the failure in production. *)
type workload = occurrence:int -> Er_vm.Inputs.t * int

(* The forward direction: the plan-driven tracer reports failures in
   base-program coordinates; the analysis stages think in instrumented
   ones. *)
let forward_failure (fwd : point -> point) (f : Er_vm.Failure.t) :
  Er_vm.Failure.t =
  { f with
    Er_vm.Failure.point = fwd f.Er_vm.Failure.point;
    stack = List.map fwd f.Er_vm.Failure.stack }

(* ---------------------------------------------------------------- *)
(* Stage interfaces                                                  *)
(* ---------------------------------------------------------------- *)

(* What the tracer ships to the analysis engine: the decoded trace
   snapshot plus the failure context of the run that produced it. *)
type capture = {
  cap_bytes : int;                       (* raw snapshot size *)
  cap_packets : int;
  cap_ptwrites : int;
  cap_switches : int;
  cap_vm_instrs : int;
  cap_overwritten : int;                 (* ring bytes lost to wrap-around *)
  cap_split : Er_trace.Decoder.split;
  cap_failure : Er_vm.Failure.t;         (* instrumented coordinates *)
  cap_base_failure : Er_vm.Failure.t;    (* base-program coordinates *)
  cap_failure_clock : int;
  cap_sched_seed : int;
}

type trace_outcome =
  | Captured of capture
  | No_failure                 (* the run finished without the failure *)
  | Different_failure          (* an unrelated bug fired; keep waiting *)
  | Decode_failed of string    (* snapshot shipped but unusable *)

(* Checkpoint accounting of a whole reconstruction. *)
type ckpt_stats = {
  ck_taken : int;              (* checkpoints captured *)
  ck_resumes : int;            (* production runs resumed from one *)
  ck_saved_instrs : int;       (* shared-prefix instructions not re-executed *)
  ck_executed_instrs : int;    (* instructions the tracer actually executed *)
}

module type TRACER = sig
  (* A tracer session persists across the occurrences of one
     reconstruction, so consecutive production runs can share state —
     the default tracer keeps one resumable VM plus the encoder and
     resumes each run from the deepest checkpoint still valid for the
     next occurrence's recording set, inputs and scheduler seed. *)
  type session

  val start : config:config -> base_prog:Er_ir.Prog.t -> session

  (* One production run of the base program under tracing, recording
     [points] (base coordinates; must extend the previous run's set).
     [forward] maps base to instrumented coordinates — the shipped
     failure context is what an instrumented binary would have reported.
     [tracked] is the failure identity ER is keyed on (base coordinates);
     [None] until the first occurrence pins it down.  The second
     component is the resume clock when the run continued from a
     checkpoint instead of starting over. *)
  val capture :
    session:session ->
    config:config ->
    points:point list ->
    forward:(point -> point) ->
    tracked:Er_vm.Failure.t option ->
    inputs:Er_vm.Inputs.t ->
    sched_seed:int ->
    trace_outcome * int option

  val stats : session -> ckpt_stats
end

module type SHEPHERD = sig
  val analyze :
    config:Exec.config -> prog:Er_ir.Prog.t -> capture:capture -> Exec.result
end

(* The selector's answer: which base-program points to instrument next,
   plus the bottleneck statistics that justified the choice. *)
type selection = {
  sel_points : point list;       (* new points only — deduped vs existing *)
  sel_longest_chain : int;
  sel_largest_object_bytes : int;
}

module type SELECTOR = sig
  val select :
    stall:Exec.stall_info ->
    mapper:Er_select.Instrument.mapper ->
    existing:point list ->
    selection
end

module type VERIFIER = sig
  val verify :
    solution:Exec.solution option ->
    base_prog:Er_ir.Prog.t ->
    testcase:Testcase.t ->
    expected_failure:Er_vm.Failure.t ->
    expected_branches:bool array ->
    sched_seed:int ->
    Verify.verdict
end

(* ---------------------------------------------------------------- *)
(* Default stage implementations                                     *)
(* ---------------------------------------------------------------- *)

(* The default tracer runs the *base* program with a recording plan
   (virtual ptwrites fired by the VM at plan-marked definitions) instead
   of an instrumented copy.  The executed program is therefore constant
   across iterations, which is what makes checkpoints reusable when the
   recording set grows: a checkpoint taken under iteration N's plan can
   seed iteration N+1 whenever

     - the new recording set extends the old one (always true: the
       selector appends),
     - the scheduler seed matches, or the program is spawn-free and
       cannot observe the seed,
     - the input values consumed up to the checkpoint are unchanged
       ([Vm_state.inputs_prefix_ok]), and
     - every *new* point lands in a block first executed at or after the
       checkpoint ([Vm_state.first_exec_clock]) — so no virtual ptwrite
       of the new plan falls inside the shared prefix, and the resumed
       packet stream stays bit-identical to a from-scratch run's.

   The encoder is checkpointed in lockstep with the VM (ring position,
   mid-TNT pending bits, cumulative stats), so a resumed capture
   continues the packet stream exactly where the checkpoint left it. *)
module Default_tracer : TRACER = struct
  module Vs = Er_vm.Vm_state
  module Enc = Er_trace.Encoder

  type session = {
    s_prog : Er_ir.Prog.t;               (* the base program; never rewritten *)
    s_enc : Enc.t;
    s_hooks : Interp.hooks;
    mutable s_vm : Vs.t option;          (* state of the last production run *)
    mutable s_seed : int;                (* scheduler seed that run used *)
    mutable s_points : point list;       (* recording set it ran under *)
    (* checkpoints of the last run, deepest (highest clock) first *)
    mutable s_cks : (Vs.checkpoint * Enc.checkpoint) list;
    mutable s_taken : int;
    mutable s_resumes : int;
    mutable s_saved : int;
    mutable s_executed : int;
  }

  let start ~config ~base_prog =
    let enc = Enc.create ~ring_bytes:config.ring_bytes () in
    { s_prog = base_prog; s_enc = enc; s_hooks = Vs.recording_hooks enc;
      s_vm = None;
      s_seed = 0; s_points = []; s_cks = []; s_taken = 0; s_resumes = 0;
      s_saved = 0; s_executed = 0 }

  (* Instructions between checkpoints of a production run. *)
  let checkpoint_interval = 1000

  (* Deepest checkpoint of the previous run still valid for a run with
     [points]/[inputs]/[sched_seed], per the conditions above. *)
  let resume_candidate s ~points ~inputs ~sched_seed =
    match s.s_vm with
    | None -> None
    | Some vm ->
        if not (Er_select.Recording.is_prefix s.s_points points) then None
        else if sched_seed <> s.s_seed && not (Vs.seed_independent vm) then None
        else begin
          let rec added = function
            | _ :: ps, _ :: qs -> added (ps, qs)
            | [], rest -> rest
            | _, [] -> []
          in
          let fresh_points = added (s.s_points, points) in
          let valid (vck, eck) =
            let c = Vs.clock_of_checkpoint vck in
            Vs.inputs_prefix_ok vm vck ~fresh:inputs
            && Enc.can_revert s.s_enc eck
            && List.for_all
                 (fun pt ->
                    match Vs.first_exec_clock vm pt with
                    | None -> true        (* block never ran: not in the prefix *)
                    | Some fc -> c <= fc)
                 fresh_points
          in
          Option.map (fun ck -> (vm, ck)) (List.find_opt valid s.s_cks)
        end

  (* Ready the VM for one production run: resume the persistent state
     from the deepest valid checkpoint, or rebuild from scratch. *)
  let arm s ~config ~points ~inputs ~sched_seed =
    let plan () = Vs.plan_of_points (Er_ir.Prog.lowered s.s_prog) points in
    let resume =
      if config.incremental then resume_candidate s ~points ~inputs ~sched_seed
      else None
    in
    match resume with
    | Some (vm, (vck, eck)) ->
        let at = Vs.clock_of_checkpoint vck in
        Vs.revert vm vck;
        if not (Enc.revert s.s_enc eck) then
          failwith "Pipeline: encoder refused a validated checkpoint";
        Vs.swap_inputs vm inputs;
        Vs.set_plan vm (plan ());
        (* checkpoints beyond the resume point describe the abandoned
           suffix of the previous run *)
        s.s_cks <-
          List.filter (fun (v, _) -> Vs.clock_of_checkpoint v <= at) s.s_cks;
        s.s_points <- points;
        s.s_resumes <- s.s_resumes + 1;
        s.s_saved <- s.s_saved + at;
        (vm, Some at)
    | None ->
        Enc.reset s.s_enc;
        Enc.start s.s_enc;
        (* the VM configuration [Verify] replays the test case under *)
        let vm_config =
          { Interp.default_config with sched_seed; hooks = s.s_hooks }
        in
        let vm = Vs.create ~config:vm_config ~plan:(plan ()) s.s_prog inputs in
        s.s_vm <- Some vm;
        s.s_seed <- sched_seed;
        s.s_points <- points;
        s.s_cks <- [];
        (vm, None)

  (* Run to the end, pausing at quantum boundaries every
     [checkpoint_interval] instructions to snapshot VM and encoder
     together.  Pausing commutes with execution, so the checkpointed run
     is step-identical to an uninterrupted one. *)
  let run_traced s ~config vm =
    if not config.incremental then Vs.run_to_end vm
    else begin
      let rec drive target =
        match Vs.run ~pause_at:target vm with
        | Some r -> r
        | None ->
            s.s_cks <- (Vs.snapshot vm, Enc.checkpoint s.s_enc) :: s.s_cks;
            s.s_taken <- s.s_taken + 1;
            drive (Vs.clock vm + checkpoint_interval)
      in
      drive (Vs.clock vm + checkpoint_interval)
    end

  let capture ~session:s ~config ~points ~forward ~tracked ~inputs ~sched_seed =
    let vm, resumed = arm s ~config ~points ~inputs ~sched_seed in
    let c0 = Vs.clock vm in
    let r = run_traced s ~config vm in
    s.s_executed <- s.s_executed + (r.Interp.instr_count - c0);
    let outcome =
      match r.Interp.outcome with
      | Interp.Finished _ -> No_failure
      | Interp.Failed base_failure -> (
          match tracked with
          | Some f0 when not (Er_vm.Failure.same_failure f0 base_failure) ->
              (* ER keys on the failing program counter and call stack and
                 waits for the tracked failure to reoccur *)
              Different_failure
          | _ -> (
              let raw = Enc.finish s.s_enc in
              let stats = Enc.stats s.s_enc in
              match Er_trace.Decoder.decode raw with
              | Error e -> Decode_failed (Er_trace.Decoder.error_to_string e)
              | Ok events ->
                  Captured
                    {
                      cap_bytes = Bytes.length raw;
                      cap_packets = stats.Er_trace.Encoder.packets;
                      cap_ptwrites = stats.Er_trace.Encoder.ptwrites;
                      cap_switches = stats.Er_trace.Encoder.switches;
                      cap_vm_instrs = r.Interp.instr_count;
                      cap_overwritten = Enc.overwritten s.s_enc;
                      cap_split = Er_trace.Decoder.split events;
                      cap_failure = forward_failure forward base_failure;
                      cap_base_failure = base_failure;
                      cap_failure_clock = r.Interp.instr_count;
                      cap_sched_seed = sched_seed;
                    }))
    in
    (outcome, resumed)

  let stats s =
    { ck_taken = s.s_taken; ck_resumes = s.s_resumes;
      ck_saved_instrs = s.s_saved; ck_executed_instrs = s.s_executed }
end

module Default_shepherd : SHEPHERD = struct
  let analyze ~config ~prog ~capture =
    Exec.run ~config prog ~trace:capture.cap_split ~failure:capture.cap_failure
      ~failure_clock:capture.cap_failure_clock
end

module Default_selector : SELECTOR = struct
  let select ~stall ~mapper ~existing =
    let bset =
      Er_select.Bottleneck.compute stall.Exec.graph stall.Exec.memory
    in
    let plan =
      Er_select.Recording.reduce stall.Exec.graph
        bset.Er_select.Bottleneck.elements
    in
    let mapped = List.filter_map mapper (Er_select.Recording.points plan) in
    {
      sel_points = Er_select.Recording.fresh ~existing mapped;
      sel_longest_chain = bset.Er_select.Bottleneck.longest_chain;
      sel_largest_object_bytes = bset.Er_select.Bottleneck.largest_object_bytes;
    }
end

module Default_verifier : VERIFIER = struct
  let verify ~solution ~base_prog ~testcase ~expected_failure
      ~expected_branches ~sched_seed =
    Verify.check ~solution ~base_prog ~testcase ~expected_failure
      ~expected_branches ~sched_seed
end

(* ---------------------------------------------------------------- *)
(* Results                                                           *)
(* ---------------------------------------------------------------- *)

type iteration = {
  occurrence : int;
  trace_bytes : int;
  trace_packets : int;
  ptwrites_recorded : int;
  vm_instrs : int;
  ring_overwritten : int;      (* trace bytes lost to ring wrap-around *)
  trace_time : float;          (* tracer stage wall clock *)
  symex_steps : int;
  symex_time : float;          (* shepherd stage wall clock *)
  solver_calls : int;
  solver_cost : int;
  cache_hits : int;            (* solver result-cache hits of this run *)
  cache_misses : int;
  outcome : Outcome.step;
  recording_set_size : int;    (* accumulated points after this iteration *)
  graph_nodes : int;           (* constraint graph size at stall/finish *)
  selection_time : float;      (* selector stage wall clock *)
  verify_time : float;         (* verifier stage wall clock *)
}

type status =
  | Reproduced of {
      testcase : Testcase.t;
      verified : Verify.verdict option;
      solution : Exec.solution;
    }
  | Gave_up of Outcome.give_up

type result = {
  status : status;
  iterations : iteration list;
  occurrences : int;           (* failure occurrences ER analyzed *)
  runs : int;                  (* production runs consumed, incl. skipped *)
  total_symex_time : float;
  recording_points : point list;  (* base-program coordinates *)
  failure : Er_vm.Failure.t option;
  ckpt : ckpt_stats;           (* tracer checkpoint/resume accounting *)
  events : Events.event list;  (* the full buffered event stream *)
}

(* ---------------------------------------------------------------- *)
(* Accounting: iterations are a pure function of the event stream    *)
(* ---------------------------------------------------------------- *)

let iterations_of_events (evs : Events.event list) : iteration list =
  let blank occurrence total_points =
    {
      occurrence;
      trace_bytes = 0;
      trace_packets = 0;
      ptwrites_recorded = 0;
      vm_instrs = 0;
      ring_overwritten = 0;
      trace_time = 0.0;
      symex_steps = 0;
      symex_time = 0.0;
      solver_calls = 0;
      solver_cost = 0;
      cache_hits = 0;
      cache_misses = 0;
      outcome = Outcome.Completed;
      recording_set_size = total_points;
      graph_nodes = 0;
      selection_time = 0.0;
      verify_time = 0.0;
    }
  in
  (* [cur] is the iteration being assembled for the occurrence whose trace
     was captured; it is flushed when the next occurrence starts or the
     stream ends.  [total] tracks the running recording-set size. *)
  let flush acc = function None -> acc | Some it -> it :: acc in
  let acc, cur, _total =
    List.fold_left
      (fun (acc, cur, total) (ev : Events.event) ->
         match ev with
         | Events.Occurrence_started _ -> (flush acc cur, None, total)
         | Events.Trace_captured
             { occurrence; bytes; packets; ptwrites; vm_instrs; overwritten;
               elapsed; _ } ->
             ( acc,
               Some
                 { (blank occurrence total) with
                   trace_bytes = bytes;
                   trace_packets = packets;
                   ptwrites_recorded = ptwrites;
                   vm_instrs;
                   ring_overwritten = overwritten;
                   trace_time = elapsed },
               total )
         | Events.Symex_finished
             { steps; solver_calls; solver_cost; cache_hits; cache_misses;
               graph_nodes; outcome; elapsed; _ } ->
             let upd it =
               { it with
                 symex_steps = steps;
                 symex_time = elapsed;
                 solver_calls;
                 solver_cost;
                 cache_hits;
                 cache_misses;
                 graph_nodes;
                 outcome =
                   (match outcome with
                    | `Complete -> Outcome.Completed
                    | `Stalled ->
                        (* details arrive with the Stall / Points_added
                           events of the selector *)
                        Outcome.Stalled
                          { Outcome.reason = ""; longest_chain = 0;
                            largest_object_bytes = 0; points_added = 0 }
                    | `Diverged -> Outcome.Diverged "") }
             in
             (acc, Option.map upd cur, total)
         | Events.Diverged { reason; _ } ->
             let upd it = { it with outcome = Outcome.Diverged reason } in
             (acc, Option.map upd cur, total)
         | Events.Stall { reason; chain; object_bytes; _ } ->
             let upd it =
               match it.outcome with
               | Outcome.Stalled s ->
                   { it with
                     outcome =
                       Outcome.Stalled
                         { s with Outcome.reason; longest_chain = chain;
                           largest_object_bytes = object_bytes } }
               | _ -> it
             in
             (acc, Option.map upd cur, total)
         | Events.Points_added { added; total = new_total; elapsed; _ } ->
             let upd it =
               let outcome =
                 match it.outcome with
                 | Outcome.Stalled s ->
                     Outcome.Stalled { s with Outcome.points_added = added }
                 | o -> o
               in
               { it with
                 outcome;
                 selection_time = elapsed;
                 recording_set_size = new_total }
             in
             (flush acc (Option.map upd cur), None, new_total)
         | Events.Verified { elapsed; _ } ->
             let upd it = { it with verify_time = elapsed } in
             (acc, Option.map upd cur, total)
         (* [Checkpoint_resumed] is deliberately ignored: incremental and
            from-scratch reconstructions must derive identical iteration
            trajectories. *)
         | Events.Run_skipped _ | Events.Checkpoint_resumed _
         | Events.Decode_failed _ | Events.Budget_escalated _
         | Events.Reproduced _ | Events.Gave_up _ | Events.Metrics_snapshot _
         | Events.Cache_status _ | Events.Pipeline_finished _ ->
             (acc, cur, total))
      ([], None, 0) evs
  in
  List.rev (flush acc cur)

(* ---------------------------------------------------------------- *)
(* The fold over occurrences                                         *)
(* ---------------------------------------------------------------- *)

(* Immutable pipeline state threaded through the fold — replaces the
   seven mutable refs of the original driver loop. *)
type state = {
  st_run : int;                          (* production runs consumed *)
  st_points : point list;                (* recording set, base coords *)
  st_exec_config : Exec.config;          (* escalates at fixpoints *)
  st_tracked : Er_vm.Failure.t option;   (* failure identity, base coords *)
  st_final : status option;
}

module Make (T : TRACER) (Sh : SHEPHERD) (Sel : SELECTOR) (V : VERIFIER) =
struct
  let run ?(config = default_config) ?(events = Events.null)
      ?(should_stop = fun () -> false) ~(base_prog : program)
      ~(workload : workload) () : result =
    let base_indexed = Er_ir.Prog.of_program base_prog in
    let session = T.start ~config ~base_prog:base_indexed in
    let buffer, buffered = Events.buffer () in
    let emit = Events.tee buffer events in
    let occurrence_body (st : state) : state =
      M.with_span "occurrence" @@ fun () ->
      let occ = st.st_run + 1 in
      emit (Events.Occurrence_started { occurrence = occ });
      let inputs, sched_seed = workload ~occurrence:occ in
      (* --- stage 1: production run under tracing --- *)
      (* Stage times are wall clock: process CPU time would also count
         what other domains ran meanwhile. *)
      let t0 = Unix.gettimeofday () in
      let outcome, resumed =
        M.with_span "trace" (fun () ->
            T.capture ~session ~config ~points:st.st_points
              ~forward:(Er_select.Instrument.forward base_prog st.st_points)
              ~tracked:st.st_tracked ~inputs ~sched_seed)
      in
      (match resumed with
       | Some at_clock ->
           M.top_observe m_top_ckpt_savings
             ~key:(Printf.sprintf "occurrence-%d" occ)
             at_clock;
           emit (Events.Checkpoint_resumed { occurrence = occ; at_clock })
       | None -> ());
      match outcome with
      | No_failure ->
          emit
            (Events.Run_skipped
               { occurrence = occ; reason = Events.No_failure });
          { st with st_run = occ }
      | Different_failure ->
          emit
            (Events.Run_skipped
               { occurrence = occ; reason = Events.Different_failure });
          { st with st_run = occ }
      | Decode_failed e ->
          emit (Events.Decode_failed { occurrence = occ; error = e });
          { st with st_run = occ;
            st_final = Some (Gave_up (Outcome.Decode_error e)) }
      | Captured cap -> (
          (* The analysis stages think in instrumented coordinates, so the
             instrumented program is still materialized — but only for
             captures, never for the production run itself. *)
          let inst_prog, mapper =
            Er_select.Instrument.apply base_prog st.st_points
          in
          let inst_indexed = Er_ir.Prog.of_program inst_prog in
          emit
            (Events.Trace_captured
               { occurrence = occ; bytes = cap.cap_bytes;
                 packets = cap.cap_packets; ptwrites = cap.cap_ptwrites;
                 switches = cap.cap_switches; vm_instrs = cap.cap_vm_instrs;
                 overwritten = cap.cap_overwritten;
                 elapsed = Unix.gettimeofday () -. t0 });
          if cap.cap_vm_instrs > 0 then
            M.set m_bandwidth
              (float_of_int (cap.cap_ptwrites * 9)
               *. 1e6
               /. float_of_int cap.cap_vm_instrs);
          let tracked =
            match st.st_tracked with
            | Some _ as t -> t
            | None -> Some cap.cap_base_failure
          in
          (* --- stage 2: shepherded symbolic execution --- *)
          let t1 = Unix.gettimeofday () in
          let sx =
            M.with_span "symex" (fun () ->
                Sh.analyze ~config:st.st_exec_config ~prog:inst_indexed
                  ~capture:cap)
          in
          let symex_time = Unix.gettimeofday () -. t1 in
          let finished outcome ~graph_nodes =
            emit
              (Events.Symex_finished
                 { occurrence = occ; steps = sx.Exec.steps;
                   solver_calls = sx.Exec.solver_calls;
                   solver_cost = sx.Exec.solver_cost;
                   cache_hits = sx.Exec.cache_hits;
                   cache_misses = sx.Exec.cache_misses; graph_nodes; outcome;
                   elapsed = symex_time })
          in
          match sx.Exec.outcome with
          | Exec.Complete solution ->
              (* graph size at completion = the distinct nodes of the final
                 path condition (what Cgraph.node_count folds over) *)
              let graph_nodes =
                Er_smt.Expr.fold_subterms
                  (fun n _ -> n + 1)
                  0 solution.Exec.path_constraints
              in
              finished `Complete ~graph_nodes;
              let testcase = Testcase.of_solution solution in
              (* --- stage 4: verification by concrete re-execution --- *)
              let t2 = Unix.gettimeofday () in
              let v =
                M.with_span "verify" (fun () ->
                    V.verify ~solution:(Some solution) ~base_prog:base_indexed
                      ~testcase ~expected_failure:cap.cap_base_failure
                      ~expected_branches:cap.cap_split.Er_trace.Decoder.branches
                      ~sched_seed)
              in
              emit
                (Events.Verified
                   { occurrence = occ; ok = v.Verify.ok;
                     same_failure = v.Verify.same_failure;
                     same_control_flow = v.Verify.same_control_flow;
                     elapsed = Unix.gettimeofday () -. t2 });
              emit
                (Events.Reproduced
                   { occurrence = occ;
                     testcase_values = Testcase.total_values testcase });
              { st with st_run = occ; st_tracked = tracked;
                st_final =
                  Some (Reproduced { testcase; verified = Some v; solution }) }
          | Exec.Stalled stall ->
              finished `Stalled
                ~graph_nodes:(Er_symex.Cgraph.node_count stall.Exec.graph);
              (* --- stage 3: key data value selection --- *)
              let t2 = Unix.gettimeofday () in
              let sel =
                M.with_span "select" (fun () ->
                    Sel.select ~stall ~mapper ~existing:st.st_points)
              in
              let selection_time = Unix.gettimeofday () -. t2 in
              emit
                (Events.Stall
                   { occurrence = occ; reason = stall.Exec.stall_reason;
                     chain = sel.sel_longest_chain;
                     object_bytes = sel.sel_largest_object_bytes });
              let points = st.st_points @ sel.sel_points in
              emit
                (Events.Points_added
                   { occurrence = occ; added = List.length sel.sel_points;
                     total = List.length points; elapsed = selection_time });
              let exec_config =
                if sel.sel_points = [] then begin
                  (* selection fixpoint while symex still stalls: give the
                     solver a longer deterministic timeout, as ER does for
                     infrequent failures *)
                  let ec =
                    { Exec.solver_budget =
                        4 * st.st_exec_config.Exec.solver_budget;
                      gate_budget = 4 * st.st_exec_config.Exec.gate_budget }
                  in
                  emit
                    (Events.Budget_escalated
                       { occurrence = occ;
                         solver_budget = ec.Exec.solver_budget;
                         gate_budget = ec.Exec.gate_budget });
                  ec
                end
                else st.st_exec_config
              in
              { st_run = occ; st_points = points; st_exec_config = exec_config;
                st_tracked = tracked; st_final = None }
          | Exec.Diverged msg ->
              finished `Diverged ~graph_nodes:0;
              emit (Events.Diverged { occurrence = occ; reason = msg });
              { st with st_run = occ; st_tracked = tracked })
    in
    let occurrence_step (st : state) : state =
      let st' = occurrence_body st in
      (* one registry snapshot per iteration, on the bus like any other
         stage report — only when somebody turned metrics on, so JSONL
         streams stay lean by default *)
      if M.enabled M.default then
        emit
          (Events.Metrics_snapshot
             { occurrence = st'.st_run; snapshot = M.snapshot () });
      st'
    in
    let rec fold st =
      match st.st_final with
      | Some _ -> st
      | None when st.st_run >= config.max_occurrences -> st
      (* cooperative cancellation: a cancelled job finishes at the next
         occurrence boundary with whatever it has — the partial state is
         still a well-formed result (status [Gave_up Cancelled]) *)
      | None when should_stop () ->
          { st with st_final = Some (Gave_up Outcome.Cancelled) }
      | None -> fold (occurrence_step st)
    in
    let st =
      fold
        { st_run = 0; st_points = []; st_exec_config = config.exec_config;
          st_tracked = None; st_final = None }
    in
    let status =
      match st.st_final with
      | Some s -> s
      | None -> Gave_up (Outcome.Max_occurrences config.max_occurrences)
    in
    (match status with
     | Gave_up g ->
         emit
           (Events.Gave_up
              { occurrence = st.st_run;
                reason = Outcome.give_up_to_string g })
     | Reproduced _ -> ());
    let iterations = iterations_of_events (buffered ()) in
    let reproduced =
      match status with Reproduced _ -> true | Gave_up _ -> false
    in
    emit
      (Events.Pipeline_finished
         { runs = st.st_run; occurrences = List.length iterations; reproduced });
    {
      status;
      iterations;
      occurrences = List.length iterations;
      runs = st.st_run;
      total_symex_time =
        List.fold_left (fun a it -> a +. it.symex_time) 0.0 iterations;
      recording_points = st.st_points;
      failure = st.st_tracked;
      ckpt = T.stats session;
      events = buffered ();
    }
end

module Default = Make (Default_tracer) (Default_shepherd) (Default_selector)
    (Default_verifier)

(* The staged pipeline with the paper's stage implementations. *)
let run = Default.run

(* ---------------------------------------------------------------- *)
(* Machine-readable rendering of a result                            *)
(* ---------------------------------------------------------------- *)

let point_to_json (p : point) : Json.t =
  Json.Obj
    [ ("func", Json.Str p.p_func);
      ("block", Json.Str p.p_block);
      ("index", Json.Int p.p_index) ]

let iteration_to_json (it : iteration) : Json.t =
  let open Json in
  Obj
    [ ("occurrence", Int it.occurrence);
      ("trace_bytes", Int it.trace_bytes);
      ("trace_packets", Int it.trace_packets);
      ("ptwrites_recorded", Int it.ptwrites_recorded);
      ("vm_instrs", Int it.vm_instrs);
      ("ring_overwritten", Int it.ring_overwritten);
      ("trace_time", Float it.trace_time);
      ("symex_steps", Int it.symex_steps);
      ("symex_time", Float it.symex_time);
      ("solver_calls", Int it.solver_calls);
      ("solver_cost", Int it.solver_cost);
      ("cache_hits", Int it.cache_hits);
      ("cache_misses", Int it.cache_misses);
      ( "outcome",
        match it.outcome with
        | Outcome.Completed -> Obj [ ("kind", Str "complete") ]
        | Outcome.Stalled s ->
            Obj
              [ ("kind", Str "stalled");
                ("reason", Str s.Outcome.reason);
                ("chain", Int s.Outcome.longest_chain);
                ("object_bytes", Int s.Outcome.largest_object_bytes);
                ("points_added", Int s.Outcome.points_added) ]
        | Outcome.Diverged m ->
            Obj [ ("kind", Str "diverged"); ("reason", Str m) ] );
      ("recording_set_size", Int it.recording_set_size);
      ("graph_nodes", Int it.graph_nodes);
      ("selection_time", Float it.selection_time);
      ("verify_time", Float it.verify_time) ]

let result_to_json_value (r : result) : Json.t =
  let open Json in
  let status =
    match r.status with
    | Reproduced { testcase; verified; _ } ->
        Obj
          ([ ("kind", Str "reproduced");
             ( "testcase",
               Obj
                 (List.map
                    (fun (stream, vals) ->
                       (stream, List (List.map (fun v -> Str (Int64.to_string v)) vals)))
                    testcase.Testcase.streams) ) ]
           @
           match verified with
           | Some v ->
               [ ( "verified",
                   Obj
                     [ ("ok", Bool v.Verify.ok);
                       ("same_failure", Bool v.Verify.same_failure);
                       ("same_control_flow", Bool v.Verify.same_control_flow) ] ) ]
           | None -> [])
    | Gave_up g ->
        Obj
          [ ("kind", Str "gave_up");
            ("reason", Str (Outcome.give_up_to_string g)) ]
  in
  Obj
    [ ("status", status);
      ("occurrences", Int r.occurrences);
      ("runs", Int r.runs);
      ("total_symex_time", Float r.total_symex_time);
      ("recording_points", List (List.map point_to_json r.recording_points));
      ( "checkpoints",
        Obj
          [ ("taken", Int r.ckpt.ck_taken);
            ("resumes", Int r.ckpt.ck_resumes);
            ("saved_instrs", Int r.ckpt.ck_saved_instrs);
            ("executed_instrs", Int r.ckpt.ck_executed_instrs) ] );
      ("iterations", List (List.map iteration_to_json r.iterations)) ]

let result_to_json (r : result) : string = Json.to_string (result_to_json_value r)
