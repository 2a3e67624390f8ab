(* record: production traffic under always-on recording (paper Fig. 6).

   Every round runs each program's performance input (the 13 Table 1
   programs plus the long-trace family's 400k-instruction run) and, for
   each Table 1 bug, one failing production run drawn by the seed from
   a pool of that bug's failure occurrences (kept at their own
   occurrence numbers).  Each input runs three ways back to back, in an
   order that rotates every round: untraced ([Interp.run]), ER-traced
   (encoder hooks plus the recording plan the tracer installs for the
   points a reconstruction of that bug selected) and rr-recorded
   ([Rr.record]).  Overheads are ratios of these paired samples, never
   of separately taken means.  A failing ER-traced run ships its
   snapshot ([Encoder.finish]); the snapshot is decoded and checked
   outside the timed samples.  Only er_vm and er_trace run here. *)

open Er_corpus
module Vs = Er_vm.Vm_state
module Interp = Er_vm.Interp
module Enc = Er_trace.Encoder
module Dec = Er_trace.Decoder
module P = Er_core.Pipeline
open Common

(* failure occurrences per bug the seed draws into the failing pool *)
let pool_per_bug = 4

type input = {
  label : string;
  inputs : Er_vm.Inputs.t;
  sched_seed : int;
  failing : bool;  (** drawn from the failing workload *)
}

type program = {
  name : string;
  prog : Er_ir.Prog.t;
  plan : Vs.plan;
  enc : Enc.t;  (** the ring, shared by all programs, reset before every run *)
  perf : input;
  pool : input array;  (** failing runs; empty for long-trace *)
}

let programs () = Registry.table1 @ [ Registry.long_trace ]

(* One set-up: lower every program, reconstruct each bug once to learn
   its recording points, build the inputs.  Returns the programs and
   the seconds spent lowering. *)
let setup ~seed =
  let st = rng seed 1 in
  let lower_s = ref 0. in
  (* every corpus bug runs with the default ring size *)
  let enc = Enc.create ~ring_bytes:P.default_config.P.ring_bytes () in
  let progs =
    List.map
      (fun (s : Bug.spec) ->
         let t0 = Stats.now () in
         let prog = Er_ir.Prog.of_program s.Bug.program in
         let lowered = Er_ir.Prog.lowered prog in
         lower_s := !lower_s +. (Stats.now () -. t0);
         let r =
           Er_smt.Expr.in_fresh_space (fun () ->
               Er_core.Pipeline.run ~config:s.Bug.config ~base_prog:s.Bug.program
                 ~workload:s.Bug.failing_workload ())
         in
         let pool =
           if s.Bug.name = Registry.long_trace.Bug.name then [||]
           else
             Array.init pool_per_bug (fun _ ->
                 let k =
                   1 + Random.State.int st s.Bug.config.Er_core.Driver.max_occurrences
                 in
                 let inputs, sched_seed = s.Bug.failing_workload ~occurrence:k in
                 { label = Printf.sprintf "%s#%d" s.Bug.name k; inputs; sched_seed;
                   failing = true })
         in
         { name = s.Bug.name; prog;
           plan = Vs.plan_of_points lowered r.Er_core.Pipeline.recording_points;
           enc;
           perf = { label = s.Bug.name; inputs = s.Bug.perf_inputs ();
                    sched_seed = 0; failing = false };
           pool })
      (programs ())
  in
  (progs, !lower_s)

(* -- one paired sample ------------------------------------------- *)

(* ER's recording hooks; with [calls], each hook call is counted. *)
let er_hooks ?calls enc =
  let bump = match calls with None -> ignore | Some c -> fun () -> incr c in
  {
    Interp.no_hooks with
    Interp.on_branch = Some (fun b -> bump (); Enc.branch enc b);
    on_switch = Some (fun ~tid ~clock -> bump (); Enc.thread_switch enc ~tid ~clock);
    on_ptwrite = Some (fun v -> bump (); Enc.ptwrite enc v);
    on_alloc = Some (fun v -> bump (); Enc.ptwrite enc v);
  }

type sample = {
  prog_name : string;
  instrs : int;
  t_untraced : float;
  t_traced : float;
  t_rr : float;
  cpu_traced : float;
  trace_bytes : int;
  packets : int;
  overwritten : int;
  rr_bytes : int;
  snapshot_bytes : int;  (** 0 unless a failing run shipped one *)
  t_decode : float;
  t_reference : float;   (** traced runs only; 0 otherwise *)
}

let same_run (a : Interp.run_result) (b : Interp.run_result) =
  a.Interp.instr_count = b.Interp.instr_count
  && a.Interp.outcome = b.Interp.outcome
  && a.Interp.outputs = b.Interp.outputs

let run_input ~traced ~rotation ~calls (p : program) (i : input) : sample =
  let config = { Interp.default_config with sched_seed = i.sched_seed } in
  let enc = p.enc in
  let hooks = if traced then er_hooks ~calls enc else er_hooks enc in
  let untraced = ref None and er = ref None and rr = ref None in
  let t_u = ref 0. and t_t = ref 0. and t_r = ref 0. and cpu_t = ref 0. in
  let snapshot = ref None in
  let way = function
    | 0 ->
        Spans.with_span ~job:i.label "vm.untraced" (fun () ->
            let t0 = Stats.now () in
            let r = Interp.run ~config p.prog i.inputs in
            t_u := Stats.now () -. t0;
            untraced := Some r)
    | 1 ->
        Spans.with_span ~job:i.label "trace.recorded" (fun () ->
            let c0 = Stats.cpu_now () and t0 = Stats.now () in
            Enc.reset enc;
            Enc.start enc;
            let vm =
              Vs.create ~config:{ config with Interp.hooks } ~plan:p.plan p.prog
                i.inputs
            in
            let r = Vs.run_to_end vm in
            (match r.Interp.outcome with
             | Interp.Failed _ -> snapshot := Some (Enc.finish enc)
             | Interp.Finished _ -> ());
            t_t := Stats.now () -. t0;
            cpu_t := Stats.cpu_now () -. c0;
            er := Some r)
    | _ ->
        Spans.with_span ~job:i.label "rr.record" (fun () ->
            let t0 = Stats.now () in
            let r = Er_baselines.Rr.record ~sched_seed:i.sched_seed p.prog i.inputs in
            t_r := Stats.now () -. t0;
            rr := Some r)
  in
  for k = 0 to 2 do
    way ((k + rotation) mod 3)
  done;
  let u = Option.get !untraced and t = Option.get !er in
  let r, log = Option.get !rr in
  check (same_run u t && same_run u r)
    "%s: untraced, ER-traced and rr runs disagree (instrs %d/%d/%d)" i.label
    u.Interp.instr_count t.Interp.instr_count r.Interp.instr_count;
  check (t.Interp.branch_count = u.Interp.branch_count)
    "%s: ER-traced run took %d branches, untraced %d" i.label t.Interp.branch_count
    u.Interp.branch_count;
  check ((not i.failing) || !snapshot <> None || u.Interp.outcome = t.Interp.outcome)
    "%s: failing run shipped no snapshot" i.label;
  let stats = Enc.stats enc in
  let overwritten = Enc.overwritten enc in
  check (overwritten = 0) "%s: trace ring overwrote %d bytes" i.label overwritten;
  let snapshot_bytes, t_decode =
    match !snapshot with
    | None -> (0, 0.)
    | Some raw ->
        Spans.with_span ~job:i.label "trace.decode" (fun () ->
            let t0 = Stats.now () in
            let decoded = Dec.decode raw in
            let branches =
              match decoded with
              | Ok events -> Array.length (Dec.split events).Dec.branches
              | Error _ -> -1
            in
            let dt = Stats.now () -. t0 in
            check (branches = t.Interp.branch_count)
              "%s: snapshot decodes to %d branches, run took %d" i.label branches
              t.Interp.branch_count;
            (Bytes.length raw, dt))
  in
  let t_reference =
    if not traced then 0.
    else
      Spans.with_span ~job:i.label "vm.reference" (fun () ->
          let t0 = Stats.now () in
          let r = Interp.run_reference ~config p.prog i.inputs in
          let dt = Stats.now () -. t0 in
          check (same_run u r) "%s: reference engine disagrees" i.label;
          dt)
  in
  { prog_name = p.name; instrs = u.Interp.instr_count; t_untraced = !t_u;
    t_traced = !t_t; t_rr = !t_r; cpu_traced = !cpu_t;
    trace_bytes = stats.Enc.bytes; packets = stats.Enc.packets; overwritten;
    rr_bytes = log.Er_baselines.Rr.bytes; snapshot_bytes; t_decode; t_reference }

(* One round: every program once, in a seeded order, each with its
   performance input and one drawn failing run. *)
let round ~st ~traced ~calls ~index progs =
  let order = shuffle st progs in
  Spans.with_span "round" (fun () ->
      List.concat_map
        (fun p ->
           let inputs =
             if Array.length p.pool = 0 then [ p.perf ]
             else [ p.perf; p.pool.(Random.State.int st (Array.length p.pool)) ]
           in
           List.mapi
             (fun j i -> run_input ~traced ~rotation:(index + j) ~calls p i)
             inputs)
        order)

let sumf f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs

(* Geometric mean over programs of each program's median paired ratio
   (its inputs of one round summed into one pair). *)
let paired_ratio num rounds =
  let by_prog = Hashtbl.create 16 in
  List.iter
    (fun samples ->
       let tbl = Hashtbl.create 16 in
       List.iter
         (fun s ->
            let a, b = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl s.prog_name) in
            Hashtbl.replace tbl s.prog_name (a +. num s, b +. s.t_untraced))
         samples;
       Hashtbl.iter
         (fun name (a, b) ->
            Hashtbl.replace by_prog name
              ((a /. b) :: Option.value ~default:[] (Hashtbl.find_opt by_prog name)))
         tbl)
    rounds;
  let per_prog =
    Hashtbl.fold (fun name rs acc -> (name, Stats.median rs) :: acc) by_prog []
    |> List.sort compare
  in
  (Stats.geomean (List.map snd per_prog), per_prog)

let measure ~st ~traced ~seconds progs =
  let calls = ref 0 in
  let rounds = ref [] and index = ref 0 in
  let t0 = Stats.now () in
  while Stats.now () -. t0 < seconds do
    rounds := round ~st ~traced ~calls ~index:!index progs :: !rounds;
    incr index
  done;
  (List.rev !rounds, !calls)

let run ~seed ~seconds ~traced : report =
  let (progs, lower_s), setup_s =
    setup_three (fun () ->
        let ((progs, _) as s) = setup ~seed in
        (* warm-up round *)
        ignore (round ~st:(rng seed 2) ~traced:false ~calls:(ref 0) ~index:0 progs);
        s)
  in
  reset_peak_rss "self";
  let st = rng seed 3 in
  let plain_s = if traced then seconds /. 2. else seconds in
  let rounds, _ = measure ~st ~traced:false ~seconds:plain_s progs in
  let samples = List.concat rounds in
  let n_rounds = float_of_int (List.length rounds) in
  let traced_times = List.map (fun s -> s.t_traced) samples in
  let t_sum = Stats.sum traced_times in
  let instrs = sumi (fun s -> s.instrs) samples in
  let overhead_x, per_prog = paired_ratio (fun s -> s.t_traced) rounds in
  let rr_x, rr_per_prog = paired_ratio (fun s -> s.t_rr) rounds in
  let tl = Stats.tail ~pct:99. traced_times in
  Printf.printf "record: %d rounds, %d paired samples (untraced / ER-traced / rr)\n"
    (List.length rounds) (List.length samples);
  Printf.printf "  %-22s %10s %12s %10s %10s\n" "program" "instrs" "ER p50 ms" "ER x" "rr x";
  List.iter2
    (fun (name, er) (_, rr) ->
       let mine = List.filter (fun s -> s.prog_name = name) samples in
       Printf.printf "  %-22s %10d %12.3f %10.3f %10.3f\n" name
         (List.fold_left (fun a s -> max a s.instrs) 0 mine)
         (1000. *. Stats.median (List.map (fun s -> s.t_traced) mine))
         er rr)
    per_prog rr_per_prog;
  Printf.printf "  %-22s %10s %12s %10.3f %10.3f\n" "geometric mean" "" "" overhead_x rr_x;
  let bytes = sumi (fun s -> s.trace_bytes) samples in
  let recorded_mips = float_of_int instrs /. t_sum /. 1e6 in
  let named =
    [ ("recorded_mips", fmt_value recorded_mips, "Minstr/s");
      ("record_overhead_x", fmt_value overhead_x, "x");
      ("trace_bytes_per_kinstr",
       fmt_value (1000. *. float_of_int bytes /. float_of_int instrs), "B/kinstr") ]
  in
  let gated =
    gated ~setup_s ~peak_rss_mb:(peak_rss_mb "self")
      ~op_gmean_ms:(1000. *. Stats.geomean traced_times)
      ~op_tail_ms:(1000. *. tl.Stats.value)
      ~ops_per_s:(float_of_int (List.length samples) /. t_sum)
      ~cpu_ms_per_op:
        (1000. *. sumf (fun s -> s.cpu_traced) samples
         /. float_of_int (List.length samples))
  in
  Printf.printf "  ER-recorded run tail: %s\n" (Stats.tail_label tl);
  let traced_samples = ref 0 in
  let layers =
    if not traced then []
    else begin
      Spans.reset ();
      Spans.recording := true;
      let g0 = Gc.quick_stat () in
      let rounds_t, calls = measure ~st ~traced:true ~seconds:(seconds -. plain_s) progs in
      let g1 = Gc.quick_stat () in
      Spans.recording := false;
      let ts = List.concat rounds_t in
      traced_samples := List.length ts;
      let per_op x = x /. float_of_int (List.length ts) in
      let self = Spans.by_layer !Spans.spans in
      let span_wall = Stats.sum (List.map snd self) in
      Printf.printf "  self time per layer, traced half (%d rounds):\n" (List.length rounds_t);
      List.iter
        (fun (name, t) ->
           Printf.printf "    %-16s %9.4f s %6.1f%%%s\n" name t (100. *. t /. span_wall)
             (if name = "round" then "  (unattributed)" else ""))
        self;
      let nt = float_of_int (List.length rounds_t) in
      let instrs_t = float_of_int (sumi (fun s -> s.instrs) ts) in
      let t_plain = t_sum /. n_rounds
      and t_tr = sumf (fun s -> s.t_traced) ts /. nt in
      let dec_bytes = float_of_int (sumi (fun s -> s.snapshot_bytes) ts) in
      let rr_x, _ = paired_ratio (fun s -> s.t_rr) rounds_t in
      [ m "ir.lower_ms" "ms" (1000. *. lower_s /. float_of_int (List.length progs));
        m "vm.instrs" "count" (instrs_t /. nt);
        m "vm.untraced_mips" "Minstr/s" (instrs_t /. sumf (fun s -> s.t_untraced) ts /. 1e6);
        m "vm.reference_mips" "Minstr/s" (instrs_t /. sumf (fun s -> s.t_reference) ts /. 1e6);
        m "vm.hook_calls_per_kinstr" "1/kinstr"
          (1000. *. float_of_int calls /. instrs_t);
        m "trace.packets" "count" (float_of_int (sumi (fun s -> s.packets) ts) /. nt);
        m "trace.bytes" "B" (float_of_int (sumi (fun s -> s.trace_bytes) ts) /. nt);
        m "trace.overwritten_bytes" "B" (float_of_int (sumi (fun s -> s.overwritten) ts));
        m "trace.encode_s" "s" (sumf (fun s -> s.t_traced -. s.t_untraced) ts /. nt);
        m "trace.decode_mbps" "MB/s" (dec_bytes /. sumf (fun s -> s.t_decode) ts /. 1e6);
        m "rr.overhead_x" "x" rr_x;
        m "rr.log_bytes_per_kinstr" "B/kinstr"
          (1000. *. float_of_int (sumi (fun s -> s.rr_bytes) ts) /. instrs_t);
        m "gc.minor_per_repro" "count"
          (per_op (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)));
        m "gc.major_per_repro" "count"
          (per_op (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
        m "gc.promoted_mb" "MB"
          (per_op ((g1.Gc.promoted_words -. g0.Gc.promoted_words) *. 8. /. 1048576.));
        m "bench.tracing_overhead_pct" "%" (100. *. (t_tr /. t_plain -. 1.)) ]
    end
  in
  { attempted = List.length samples + !traced_samples; failed = !Common.fail_count;
    gated; named; layers }
