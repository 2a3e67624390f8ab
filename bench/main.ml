(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (section 5) against the OCaml reproduction.

     table1     Table 1  — 13 bugs: #instr, #occur, symex time
     fig1       Fig. 1   — efficiency/effectiveness/accuracy spectra
     fig5       Fig. 5   — symex progress with 0/1st/2nd iteration data;
                fails unless every round reaches the failure, the later
                rounds record data and solver work falls round to round
     fig6       Fig. 6   — runtime overhead: ER vs rr per application,
                ER under the recording plan its reconstruction selects;
                fails unless ER is cheaper than rr on every program
     ablation   sec. 5.2 — key data value selection vs random recording
     rept       sec. 5.2 — REPT-style recovery accuracy vs trace length
     offline    sec. 5.3 — constraint graph size, selection time, memory;
                gates Table 1's selection time at 10% of its symex time
                and its SMT minor words per bit-blast gate at 100
     casestudy  sec. 5.4 — invariant-based failure localization (od, pr)
     vm         compiled engine vs reference interpreter, instr/sec, and
                ER-traced (under each bug's recording plan) vs untraced
                time; gates the traced/untraced ratio at 1.4
     fleet      Table 1 corpus on a domain pool, -j 1 vs -j 4
     longtrace  long-trace family: checkpoint/resume vs from-scratch
     warm       cold fleet pass, then a warm pass replaying the persisted
                solver store; gates warm total solver_cost strictly below
                cold with byte-identical per-bug trajectories

   With no argument, everything runs in order.  [-o FILE] persists what
   the jobs measured as a trajectory document, one section per job that
   ran, then checks it against the newest committed BENCH_N.json with
   {!Trajectory.check}, exiting non-zero on a regression.
   `diff OLD.json NEW.json` checks NEW against OLD the same way, and a
   bare `diff` checks the newest committed trajectory against the one
   before it. *)

open Er_corpus

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

(* A corpus reconstruction runs as a job, as in the fleet: in a fresh
   interning space, so a bug's solver calls do not depend on which jobs
   ran before it in the same invocation. *)
let reconstruct_spec (s : Bug.spec) =
  let h = Er_core.Job.create (Bug.request s) in
  Er_core.Job.execute h;
  match Er_core.Job.await h with
  | Er_core.Job.Finished r -> r
  | Er_core.Job.Crashed { exn; _ } ->
      Printf.eprintf "bench: %s crashed: %s\n" s.Bug.name exn;
      exit 1
  | Er_core.Job.Cancelled _ -> assert false

(* One fresh job handle per Table 1 bug for {!Er_core.Fleet.run};
   [cache_dir] binds each to its persistent solver store. *)
let table1_jobs ?cache_dir () =
  List.map
    (fun s -> Er_core.Job.create (Bug.request ?cache_dir s))
    Registry.table1

let table1_results : (string * Er_core.Pipeline.result) list ref = ref []

let run_table1 () =
  section "Table 1: bugs, trace lengths, occurrences, symex time";
  Printf.printf "%-22s %-24s %-26s %-3s %9s %6s %11s %8s %s\n" "Corpus id"
    "Models" "Bug type" "MT" "#Instr" "#Occur" "SymexTime" "TraceKB" "Verified";
  List.iter
    (fun (s : Bug.spec) ->
       let r = reconstruct_spec s in
       table1_results := (s.Bug.name, r) :: !table1_results;
       let instrs, bytes =
         match r.Er_core.Pipeline.iterations with
         | it :: _ ->
             (it.Er_core.Pipeline.vm_instrs, it.Er_core.Pipeline.trace_bytes)
         | [] -> (0, 0)
       in
       let verified =
         match r.Er_core.Pipeline.status with
         | Er_core.Pipeline.Reproduced { verified = Some v; _ } ->
             if v.Er_core.Verify.ok then "yes" else "NO"
         | Er_core.Pipeline.Reproduced _ -> "unchecked"
         | Er_core.Pipeline.Gave_up g -> "GAVE UP: " ^ Er_core.Outcome.give_up_to_string g
       in
       Printf.printf "%-22s %-24s %-26s %-3s %9d %6d %9.2fs %8.1f %s\n%!"
         s.Bug.name s.Bug.models s.Bug.bug_type
         (if s.Bug.multithreaded then "Y" else "N")
         instrs r.Er_core.Pipeline.occurrences r.Er_core.Pipeline.total_symex_time
         (float_of_int bytes /. 1024.) verified)
    Registry.table1

(* ------------------------------------------------------------------ *)
(* Fig 6: runtime overhead (and input to Fig 1 efficiency)             *)
(* ------------------------------------------------------------------ *)

(* Interleaved timing of several legs: each of [runs] samples times
   every leg in turn, repeating it inside the sample until the fastest
   leg's sample lasts [min_sample_s] (so a millisecond of interference
   cannot swing a short workload), each from a collected heap so no leg
   pays for the previous leg's garbage.  [.(k).(i)] is leg [i]'s
   seconds per call in sample [k].  A drift in machine speed hits every
   leg of a sample alike; the gates compare ratios of these times
   (overheads, speedups), never raw seconds. *)
let min_sample_s = 0.02

let measure_samples (legs : (unit -> unit) array) ~runs : float array array =
  Array.iter (fun f -> f ()) legs;    (* warm-up *)
  let once f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let fastest = Array.fold_left (fun t f -> Float.min t (once f)) infinity legs in
  let reps =
    max 5 (int_of_float (Float.ceil (min_sample_s /. Float.max fastest 1e-6)))
  in
  Array.init runs (fun _ ->
      Array.map
        (fun f ->
           Gc.full_major ();
           let t0 = Sys.time () in
           for _ = 1 to reps do
             f ()
           done;
           (Sys.time () -. t0) /. float_of_int reps)
        legs)

let median (xs : float array) =
  Array.sort Float.compare xs;
  let n = Array.length xs in
  if n mod 2 = 1 then xs.(n / 2) else (xs.((n / 2) - 1) +. xs.(n / 2)) /. 2.

(* Leg [i]'s time: the median of its samples. *)
let leg_time (samples : float array array) i =
  median (Array.map (fun s -> s.(i)) samples)

(* The median over samples of leg [i]'s time over leg [j]'s in the same
   sample.  A slowdown that spans a sample scales both legs, so the
   paired ratio survives it where separately taken minima need not. *)
let paired_ratio (samples : float array array) i j =
  median (Array.map (fun s -> s.(i) /. s.(j)) samples)

(* ER's production run of [s]: its program under the recording plan
   that a reconstruction of the bug selects — this invocation's [table1]
   result when there is one, else one reconstruction now.  Callers build
   it outside every timed region, as perfbench's [record] does. *)
let production_run (s : Bug.spec) =
  let prog = Er_ir.Prog.of_program s.Bug.program in
  let r =
    match List.assoc_opt s.Bug.name !table1_results with
    | Some r -> r
    | None -> reconstruct_spec s
  in
  ( prog,
    Er_vm.Vm_state.plan_of_points (Er_ir.Prog.lowered prog)
      r.Er_core.Pipeline.recording_points )

(* One ER production run: a fresh capture into [enc] under the recording
   hooks and [plan]. *)
let traced_run enc prog plan inputs () =
  Er_trace.Encoder.reset enc;
  Er_trace.Encoder.start enc;
  let config =
    { Er_vm.Interp.default_config with
      hooks = Er_vm.Vm_state.recording_hooks enc }
  in
  ignore
    (Er_vm.Vm_state.run_to_end (Er_vm.Vm_state.create ~config ~plan prog inputs))

(* Recording overheads of one bug's performance workload, in percent
   over the untraced run: ER's production run and rr's full record, each
   the median of its ratios to the untraced leg over [runs] interleaved
   samples. *)
let overhead_of (s : Bug.spec) ~runs =
  let prog, plan = production_run s in
  (* input construction is workload preparation, not program execution:
     build once, outside the timed region *)
  let inputs = s.Bug.perf_inputs () in
  let base () = ignore (Er_vm.Interp.run prog inputs) in
  let er = traced_run (Er_trace.Encoder.create ()) prog plan inputs in
  let rr () = ignore (Er_baselines.Rr.record prog inputs) in
  let samples = measure_samples [| base; er; rr |] ~runs in
  let pct i = 100. *. (paired_ratio samples i 0 -. 1.) in
  (pct 1, pct 2)

(* (name, ER overhead %, rr overhead %) per bug *)
let fig6_results : (string * float * float) list ref = ref []

(* Fig. 6's claim, as a gate: ER's planned recording must cost less than
   rr's on every Table 1 program. *)
let run_fig6 () =
  section "Fig 6: online recording overhead, ER (PT-like) vs rr (full RR)";
  Printf.printf "%-22s %12s %12s\n" "Application" "ER overhead" "rr overhead";
  let runs = 15 in
  List.iter
    (fun (s : Bug.spec) ->
       let er, rr = overhead_of s ~runs in
       fig6_results := (s.Bug.name, er, rr) :: !fig6_results;
       Printf.printf "%-22s %11.1f%% %11.1f%%%s\n%!" s.Bug.name er rr
         (if er < rr then "" else "  ER NOT BELOW rr"))
    Registry.table1;
  let avg sel =
    let xs = List.map sel !fig6_results in
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  Printf.printf "%-22s %11.1f%% %11.1f%%\n" "average"
    (avg (fun (_, e, _) -> e))
    (avg (fun (_, _, r) -> r));
  match List.filter (fun (_, er, rr) -> er >= rr) !fig6_results with
  | [] -> ()
  | losers ->
      Printf.eprintf "fig6: ER's planned recording is not cheaper than rr on %s\n"
        (String.concat ", " (List.rev_map (fun (n, _, _) -> n) losers));
      exit 1

(* ------------------------------------------------------------------ *)
(* bench vm: pre-lowered engine vs reference interpreter               *)
(* ------------------------------------------------------------------ *)

(* (name, instrs, samples) per Table 1 performance workload, the
   samples timing the reference, lowered and traced legs in that order.
   The engines retire identical instruction streams (the differential
   suite pins that down), so instr/sec compares directly.  Traced is
   ER's production run: the compiled engine under ER's recording hooks
   and the recording plan that a reconstruction of the bug selects. *)
let vm_results : (string * int * float array array) list ref = ref []

(* Corpus totals of [vm_results] rows: the instruction count, and
   samples whose [k]th sums every program's [k]th, leg by leg, so the
   corpus ratios are paired per sample too. *)
let vm_totals rows =
  let runs = match rows with (_, _, s) :: _ -> Array.length s | [] -> 0 in
  ( List.fold_left (fun a (_, i, _) -> a + i) 0 rows,
    Array.init runs (fun k ->
        Array.init 3 (fun leg ->
            List.fold_left (fun a (_, _, s) -> a +. s.(k).(leg)) 0. rows)) )

(* `bench vm --opcode-mix`: instead of timing, report the hottest
   adjacent opcode pairs (block-retirement weighted) per corpus program
   plus the corpus aggregate — the mining pass behind the committed
   superinstruction set that [Er_ir.Fuse.analyze] fuses against.  The
   same counts feed the [er_vm_top_opcode_pair] attribution table at run
   end. *)
let opcode_mix = ref false

let run_opcode_mix () =
  section
    "bench vm --opcode-mix: hottest adjacent opcode pairs, weighted by \
     block retirements";
  let reg = Er_metrics.default in
  let was = Er_metrics.enabled reg in
  Er_metrics.set_enabled reg true;
  let agg : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Bug.spec) ->
       let prog = Er_ir.Prog.of_program s.Bug.program in
       let inputs = s.Bug.perf_inputs () in
       let st = Er_vm.Vm_state.create prog inputs in
       ignore (Er_vm.Vm_state.run_to_end st);
       let prof = Er_vm.Vm_state.opcode_pair_profile st in
       List.iter
         (fun (k, n) ->
            Hashtbl.replace agg k
              ((match Hashtbl.find_opt agg k with Some c -> c | None -> 0) + n))
         prof;
       Printf.printf "%-22s %s\n%!" s.Bug.name
         (String.concat "  "
            (List.filteri (fun i _ -> i < 5) prof
            |> List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n))))
    Registry.table1;
  Er_metrics.set_enabled reg was;
  let sorted =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
    |> List.sort (fun (ka, ca) (kb, cb) ->
           if ca <> cb then compare cb ca else String.compare ka kb)
  in
  Printf.printf "\n%-22s %12s\n" "aggregate pair" "weight";
  List.iteri
    (fun i (k, n) -> if i < 16 then Printf.printf "%-22s %12d\n" k n)
    sorted

let run_vm_timed () =
  section "bench vm: compiled engine vs reference interpreter, and ER-traced";
  Printf.printf "%-22s %10s %10s %11s %10s %12s %12s %8s %8s\n" "Application"
    "#Instr" "ref (s)" "lowered (s)" "traced (s)" "ref ips" "lowered ips"
    "speedup" "traced";
  let runs = 5 in
  let row name instrs samples =
    let rm = leg_time samples 0 and lm = leg_time samples 1 in
    let ips t = if t > 0. then float_of_int instrs /. t else 0. in
    Printf.printf
      "%-22s %10d %10.4f %11.4f %10.4f %12.0f %12.0f %7.2fx %7.2fx\n%!"
      name instrs rm lm (leg_time samples 2) (ips rm) (ips lm)
      (paired_ratio samples 0 1) (paired_ratio samples 2 1)
  in
  List.iter
    (fun (s : Bug.spec) ->
       (* lowering and the reconstruction that selects the plan run
          outside the timed region — one-time costs amortized over every
          production run *)
       let prog, plan = production_run s in
       let inputs = s.Bug.perf_inputs () in
       let instrs = (Er_vm.Interp.run prog inputs).Er_vm.Interp.instr_count in
       let samples =
         measure_samples
           [| (fun () -> ignore (Er_vm.Interp.run_reference prog inputs));
              (fun () -> ignore (Er_vm.Interp.run prog inputs));
              traced_run (Er_trace.Encoder.create ()) prog plan inputs |]
           ~runs
       in
       vm_results := (s.Bug.name, instrs, samples) :: !vm_results;
       row s.Bug.name instrs samples)
    Registry.table1;
  let ti, corpus = vm_totals !vm_results in
  row "total" ti corpus;
  let traced_ratio = paired_ratio corpus 2 1 in
  if traced_ratio > Trajectory.max_traced_ratio then begin
    Printf.eprintf
      "bench vm: ER-traced runs take %.2fx the untraced time, over the \
       %.1fx recording-overhead limit\n"
      traced_ratio Trajectory.max_traced_ratio;
    exit 1
  end

let run_vm () = if !opcode_mix then run_opcode_mix () else run_vm_timed ()

(* ------------------------------------------------------------------ *)
(* Fig 5: benefits of data value recording on symex progress           *)
(* ------------------------------------------------------------------ *)

let run_fig5 () =
  section
    "Fig 5: shepherded symex progress on php-74194 with 0/1st/2nd-iteration \
     data values (timeout disabled)";
  let s = Option.get (Registry.find "php-74194") in
  let budgetless =
    { Er_symex.Exec.solver_budget = max_int / 2; gate_budget = max_int / 2 }
  in
  (* [(recorded points, reached the failure, progress samples)] *)
  let series k =
    (* recording set after k pipeline iterations: rerun the pipeline
       with a run budget of k failure occurrences and harvest its
       points *)
    let points =
      if k = 0 then []
      else begin
        let config =
          { s.Bug.config with Er_core.Pipeline.max_occurrences = k }
        in
        let rk =
          Er_core.Pipeline.run ~config ~base_prog:s.Bug.program
            ~workload:s.Bug.failing_workload ()
        in
        rk.Er_core.Pipeline.recording_points
      end
    in
    let inst_prog, _ = Er_select.Instrument.apply s.Bug.program points in
    let inst_indexed = Er_ir.Prog.of_program inst_prog in
    let inputs, sched_seed = s.Bug.failing_workload ~occurrence:(k + 100) in
    let enc = Er_trace.Encoder.create () in
    Er_trace.Encoder.start enc;
    let vm_config =
      { Er_vm.Interp.default_config with
        sched_seed; hooks = Er_vm.Vm_state.recording_hooks enc }
    in
    let vm = Er_vm.Interp.run ~config:vm_config inst_indexed inputs in
    match vm.Er_vm.Interp.outcome with
    | Er_vm.Interp.Finished _ -> (List.length points, false, [])
    | Er_vm.Interp.Failed failure -> (
        match Er_trace.Decoder.decode (Er_trace.Encoder.finish enc) with
        | Error _ -> (List.length points, false, [])
        | Ok events ->
            let split = Er_trace.Decoder.split events in
            let sx =
              Er_symex.Exec.run ~config:budgetless inst_indexed ~trace:split
                ~failure ~failure_clock:vm.Er_vm.Interp.instr_count
            in
            ( List.length points,
              (match sx.Er_symex.Exec.outcome with
               | Er_symex.Exec.Complete _ -> true
               | Er_symex.Exec.Stalled _ | Er_symex.Exec.Diverged _ -> false),
              List.map
                (fun p ->
                   (p.Er_symex.Exec.ps_steps, p.Er_symex.Exec.ps_solver_cost))
                sx.Er_symex.Exec.progress ))
  in
  (* The figure's claim as a gate: every round reaches the failure, the
     later rounds record data, and each round's data cuts the solver
     work of the one before. *)
  let faults = ref [] in
  let fault fmt = Printf.ksprintf (fun m -> faults := m :: !faults) fmt in
  ignore
    (List.fold_left
       (fun prev k ->
          let npoints, reached, samples = series k in
          Printf.printf
            "\niteration-%d data values (%d recorded points): instr vs \
             cumulative solver work\n"
            k npoints;
          List.iter
            (fun (steps, cost) -> Printf.printf "  %8d %12d\n" steps cost)
            samples;
          let total =
            match List.rev samples with (_, c) :: _ -> c | [] -> 0
          in
          Printf.printf "  total solver work to reach the failure: %d\n%!"
            total;
          if not reached then fault "iteration-%d does not reach the failure" k;
          if k > 0 && npoints = 0 then
            fault "iteration-%d records no data values" k;
          if total >= prev then
            fault "iteration-%d solver work %d is not below iteration-%d's %d"
              k total (k - 1) prev;
          total)
       max_int [ 0; 1; 2 ]);
  if !faults <> [] then begin
    Printf.eprintf "bench fig5: %s\n" (String.concat "; " (List.rev !faults));
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Ablation: ER selection vs random recording (sec. 5.2)               *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  section "Key data value selection vs random recording (same data volume)";
  Printf.printf "%-22s %12s %26s\n" "Bug" "ER (#occur)" "random recording";
  List.iter
    (fun (s : Bug.spec) ->
       let er = reconstruct_spec s in
       let er_occ = er.Er_core.Pipeline.occurrences in
       let needs_data =
         List.exists
           (fun it ->
              match it.Er_core.Pipeline.outcome with
              | Er_core.Outcome.Stalled _ -> true
              | Er_core.Outcome.Completed | Er_core.Outcome.Diverged _ -> false)
           er.Er_core.Pipeline.iterations
       in
       if needs_data then begin
         (* three random seeds; report the mean occurrences and whether all
            seeds reproduced within the same run budget as ER *)
         let trials =
           List.map
             (fun seed ->
                Er_baselines.Random_select.reconstruct ~config:s.Bug.config
                  ~seed ~base_prog:s.Bug.program
                  ~workload:s.Bug.failing_workload ())
             [ 41; 137; 9001 ]
         in
         let all_ok = List.for_all (fun (ok, _, _) -> ok) trials in
         let mean_occ =
           List.fold_left (fun a (_, o, _) -> a + o) 0 trials * 10
           / List.length trials
         in
         Printf.printf "%-22s %12d %15s, mean %d.%d occ\n%!" s.Bug.name
           er_occ
           (if all_ok then "reproduced" else "NOT always reproduced")
           (mean_occ / 10) (mean_occ mod 10)
       end
       else
         Printf.printf "%-22s %12d %26s\n%!" s.Bug.name er_occ
           "n/a (no data needed)")
    Registry.table1

(* ------------------------------------------------------------------ *)
(* REPT accuracy (sec. 5.2 / sec. 2.3)                                 *)
(* ------------------------------------------------------------------ *)

let run_rept () =
  section "REPT-style recovery: % incorrect/unknown values vs trace window";
  List.iter
    (fun name ->
       match Registry.find name with
       | None -> ()
       | Some s ->
           let inputs, seed = s.Bug.failing_workload ~occurrence:1 in
           let prog = Er_ir.Prog.of_program s.Bug.program in
           let defs = Er_baselines.Rept.record ~sched_seed:seed prog inputs in
           Printf.printf "\n%s (%d register definitions in trace)\n" s.Bug.name
             (List.length defs);
           Printf.printf "  %10s %10s %10s %10s\n" "window" "%correct"
             "%incorrect" "%unknown";
           List.iter
             (fun (w, st) ->
                let pct x =
                  100. *. float_of_int x
                  /. float_of_int (max 1 st.Er_baselines.Rept.total)
                in
                Printf.printf "  %10d %9.1f%% %9.1f%% %9.1f%%\n" w
                  (pct st.Er_baselines.Rept.correct)
                  (pct st.Er_baselines.Rept.incorrect)
                  (pct st.Er_baselines.Rept.unknown))
             (Er_baselines.Rept.accuracy_series ~prog ~defs
                ~windows:[ 50; 200; 1000; 5000; 20000 ]))
    [ "libpng-2004-0597"; "php-74194"; "matrixssl-2014-1569" ]

(* ------------------------------------------------------------------ *)
(* Offline overheads (sec. 5.3)                                        *)
(* ------------------------------------------------------------------ *)

(* Section 5.3's shape is selection << symex (the paper: <= 15 s of
   selection against 19 min of symex on average).  Selection is a
   structural search and sends no solver query, so the job gates its
   Table 1 total at 10% of the symex total. *)
let offline_max_selection_share = 0.10

(* The SMT front end adds gate clauses to a flat arena and interns terms
   without building hash tuples: Table 1 reads about 28 minor words per
   bit-blast gate, where list-built clauses read about 350.  The job
   gates Table 1's words per gate (the [er_smt_minor_words_total]
   counter: the checking domain's allocation inside [Session.check]). *)
let offline_max_words_per_gate = 100.

let smt_alloc_counters () =
  let snap = Er_metrics.snapshot () in
  ( Er_metrics.Snapshot.counter_total snap "er_smt_minor_words_total",
    Er_metrics.Snapshot.counter_total snap "er_smt_bitblast_gates_total" )

let run_offline () =
  section "Offline analysis overhead: graph size, selection time, symex time";
  Printf.printf "%-22s %12s %14s %12s %12s\n" "Bug" "graph nodes"
    "selection (s)" "symex (s)" "solver calls";
  let sel_total = ref 0.0 and symex_total = ref 0.0 in
  let nodes0 = Er_smt.Expr.live_nodes () in
  let reg = Er_metrics.default in
  let was_enabled = Er_metrics.enabled reg in
  let words0, gates0 = smt_alloc_counters () in
  Er_metrics.set_enabled reg true;
  List.iter
    (fun (s : Bug.spec) ->
       let r = reconstruct_spec s in
       let nodes =
         List.fold_left
           (fun m it -> max m it.Er_core.Pipeline.graph_nodes)
           0 r.Er_core.Pipeline.iterations
       in
       let sel =
         List.fold_left
           (fun a it -> a +. it.Er_core.Pipeline.selection_time)
           0.0 r.Er_core.Pipeline.iterations
       in
       let calls =
         List.fold_left
           (fun a it -> a + it.Er_core.Pipeline.solver_calls)
           0 r.Er_core.Pipeline.iterations
       in
       sel_total := !sel_total +. sel;
       symex_total := !symex_total +. r.Er_core.Pipeline.total_symex_time;
       Printf.printf "%-22s %12d %14.4f %12.2f %12d\n%!" s.Bug.name nodes sel
         r.Er_core.Pipeline.total_symex_time calls)
    Registry.table1;
  Er_metrics.set_enabled reg was_enabled;
  let words1, gates1 = smt_alloc_counters () in
  let words = words1 - words0 and gates = gates1 - gates0 in
  let words_per_gate = float_of_int words /. float_of_int (max 1 gates) in
  Printf.printf "\ninterned constraint-graph terms, all Table 1 jobs: %d\n"
    (Er_smt.Expr.live_nodes () - nodes0);
  Printf.printf
    "Table 1 totals: selection %.4fs, symex %.4fs, selection/symex %.1f%% \
     (gate: <= %.0f%%)\n%!"
    !sel_total !symex_total
    (100. *. !sel_total /. !symex_total)
    (100. *. offline_max_selection_share);
  Printf.printf
    "Table 1 SMT allocation: %d minor words over %d bit-blast gates, %.1f \
     words/gate (gate: <= %.0f)\n%!"
    words gates words_per_gate offline_max_words_per_gate;
  if words_per_gate > offline_max_words_per_gate then begin
    Printf.eprintf
      "offline: SMT checks allocate %.1f minor words per bit-blast gate, \
       above %.0f\n"
      words_per_gate offline_max_words_per_gate;
    exit 1
  end;
  if !sel_total > offline_max_selection_share *. !symex_total then begin
    Printf.eprintf
      "offline: selection %.4fs exceeds %.0f%% of symex %.4fs \
       (section 5.3: selection << symex)\n"
      !sel_total
      (100. *. offline_max_selection_share)
      !symex_total;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fig 1: the three property spectra (sec. 2)                          *)
(* ------------------------------------------------------------------ *)

let run_fig1 () =
  section "Fig 1: failure-reproduction property spectra (measured systems)";
  let avg sel =
    match !fig6_results with
    | [] -> nan
    | xs ->
        List.fold_left (fun a x -> a +. sel x) 0.0 xs
        /. float_of_int (List.length xs)
  in
  let er_oh = avg (fun (_, e, _) -> e) in
  let rr_oh = avg (fun (_, _, r) -> r) in
  Printf.printf
    "(a) Efficiency  — avg overhead: ER %.1f%% | rr %.1f%%  (usability \
     boundary: 10%%); ER %s the boundary, full RR %s it\n"
    er_oh rr_oh
    (if er_oh <= 10. then "is inside" else "MISSES")
    (if rr_oh <= 10. then "is inside" else "misses");
  let reproduced =
    List.length
      (List.filter
         (fun (_, r) ->
            match r.Er_core.Pipeline.status with
            | Er_core.Pipeline.Reproduced _ -> true
            | Er_core.Pipeline.Gave_up _ -> false)
         !table1_results)
  in
  Printf.printf
    "(b) Effectiveness — ER reproduced %d/%d corpus failures, including \
     latent bugs and coarsely interleaved races (run table1 first if 0/0)\n"
    reproduced
    (List.length !table1_results);
  let verified =
    List.length
      (List.filter
         (fun (_, r) ->
            match r.Er_core.Pipeline.status with
            | Er_core.Pipeline.Reproduced { verified = Some v; _ } ->
                v.Er_core.Verify.ok
            | _ -> false)
         !table1_results)
  in
  Printf.printf
    "(c) Accuracy — %d/%d reproductions re-execute with identical control \
     flow and failure; best-effort REPT output contains incorrect values \
     (see rept section)\n"
    verified
    (List.length !table1_results)

(* ------------------------------------------------------------------ *)
(* Case study: invariant-based failure localization (sec. 5.4)         *)
(* ------------------------------------------------------------------ *)

(* Section 5.4's claim as a gate: for each bug, the top root-cause
   candidate from the ER-reconstructed execution must be both the
   original failing input's and the expected root cause.  This job is
   the only consumer of the reference engine's function-boundary
   callbacks. *)
let run_casestudy () =
  section "Sec 5.4: invariant-based failure localization (MIMIC + Daikon)";
  (* prints the study; true when the gate's condition holds *)
  let study ((s : Bug.spec), passing_inputs, expected_func) =
    Printf.printf "\n--- %s ---\n" s.Bug.name;
    let prog = Er_ir.Prog.of_program s.Bug.program in
    let passing = List.init 4 passing_inputs in
    let r = reconstruct_spec s in
    match r.Er_core.Pipeline.status with
    | Er_core.Pipeline.Gave_up g ->
        Printf.printf "reconstruction gave up: %s\n"
          (Er_core.Outcome.give_up_to_string g);
        false
    | Er_core.Pipeline.Reproduced { testcase; _ } ->
        let failing_er = Er_core.Testcase.to_inputs testcase in
        let report_er =
          Er_invariants.Localize.localize ~prog ~passing ~failing:failing_er
        in
        let original, _ = s.Bug.failing_workload ~occurrence:1 in
        let report_ref =
          Er_invariants.Localize.localize ~prog ~passing ~failing:original
        in
        let top rep =
          match rep.Er_invariants.Localize.ranked_functions with
          | (f, _) :: _ -> f
          | [] -> "(none)"
        in
        Printf.printf "top candidate from ER-reconstructed execution: %s\n"
          (top report_er);
        Printf.printf "top candidate from original failing input:     %s\n"
          (top report_ref);
        Printf.printf "agree: %b   expected root-cause function: %s (%s)\n"
          (String.equal (top report_er) (top report_ref))
          expected_func
          (if String.equal (top report_er) expected_func then "matched"
           else "differs");
        Printf.printf "%s\n%!"
          (Fmt.str "%a" Er_invariants.Localize.pp_report report_er);
        String.equal (top report_er) (top report_ref)
        && String.equal (top report_er) expected_func
  in
  let studies =
    [ (Coreutils_od.spec, Coreutils_od.passing_inputs, "dump_block");
      (Coreutils_pr.spec, Coreutils_pr.passing_inputs, "balance") ]
  in
  match List.filter (fun st -> not (study st)) studies with
  | [] -> ()
  | failed ->
      Printf.eprintf
        "casestudy: the ER-reconstructed top candidate is not both the \
         original input's and the expected root cause on %s\n"
        (String.concat ", " (List.map (fun (s, _, _) -> s.Bug.name) failed));
      exit 1

(* ------------------------------------------------------------------ *)
(* Persisted bench trajectory (BENCH_N.json)                           *)
(* ------------------------------------------------------------------ *)

module J = Er_core.Json

(* Filled by [run_fleet]: (workers, wall seconds, process cpu seconds,
   wall speedup over the -j 1 trial) per trial in run order, plus
   whether the -j 1 and -j 4 normalized reports came out identical. *)
let fleet_trials : (int * float * float * float) list ref = ref []
let fleet_deterministic : bool option ref = ref None

(* Filled by [run_longtrace]: best wall per tracer mode plus the
   incremental run's checkpoint counters. *)
let longtrace_stats :
  (float * float * Er_core.Pipeline.ckpt_stats) option ref = ref None

(* Filled by [run_warm]: the cold-vs-warm fleet passes over one
   persistent solver store. *)
type warm_trial = {
  wt_cold : int;       (* total solver_cost of the cold pass *)
  wt_warm : int;       (* total solver_cost of the warm pass *)
  wt_identical : bool; (* per-bug trajectories byte-identical *)
}

let warm_stats : warm_trial option ref = ref None

(* Trajectory document [number]: one section per job that ran.  [table1]
   writes one row per bug and the totals, with recording overheads when
   [fig6] ran too. *)
let bench_json number =
  let results = List.rev !table1_results in
  let overheads =
    List.map (fun (n, er, rr) -> (n, (er, rr))) !fig6_results
  in
  let sum sel (r : Er_core.Pipeline.result) =
    List.fold_left (fun a it -> a + sel it) 0 r.Er_core.Pipeline.iterations
  in
  let bug_obj (name, (r : Er_core.Pipeline.result)) =
    let reproduced =
      match r.Er_core.Pipeline.status with
      | Er_core.Pipeline.Reproduced _ -> true
      | Er_core.Pipeline.Gave_up _ -> false
    in
    J.Obj
      ([
         ("name", J.Str name);
         ("reproduced", J.Bool reproduced);
         ("iterations", J.Int (List.length r.Er_core.Pipeline.iterations));
         ("occurrences", J.Int r.Er_core.Pipeline.occurrences);
         ("runs", J.Int r.Er_core.Pipeline.runs);
         ("trace_bytes", J.Int (sum (fun it -> it.Er_core.Pipeline.trace_bytes) r));
         ("solver_calls", J.Int (sum (fun it -> it.Er_core.Pipeline.solver_calls) r));
         ("solver_cost", J.Int (sum (fun it -> it.Er_core.Pipeline.solver_cost) r));
         ("cache_hits", J.Int (sum (fun it -> it.Er_core.Pipeline.cache_hits) r));
         ("cache_misses", J.Int (sum (fun it -> it.Er_core.Pipeline.cache_misses) r));
         ("recording_points",
          J.Int (List.length r.Er_core.Pipeline.recording_points));
         ("symex_time", J.Float r.Er_core.Pipeline.total_symex_time);
       ]
       @
       match List.assoc_opt name overheads with
       | Some (er, rr) ->
           [
             ("er_overhead_pct", J.Float er);
             ("rr_overhead_pct", J.Float rr);
           ]
       | None -> [])
  in
  let reproduced =
    List.length
      (List.filter
         (fun (_, r) ->
            match r.Er_core.Pipeline.status with
            | Er_core.Pipeline.Reproduced _ -> true
            | Er_core.Pipeline.Gave_up _ -> false)
         results)
  in
  let total sel = List.fold_left (fun a (_, r) -> a + sum sel r) 0 results in
  let mean sel =
    match !fig6_results with
    | [] -> J.Null
    | xs ->
        J.Float
          (List.fold_left (fun a x -> a +. sel x) 0.0 xs
           /. float_of_int (List.length xs))
  in
  let vm_section =
    match List.rev !vm_results with
    | [] -> []
    | rows ->
        let ti, corpus = vm_totals rows in
        let ips leg =
          let t = leg_time corpus leg in
          J.Float (if t > 0. then float_of_int ti /. t else 0.)
        in
        [ ( "vm",
            J.Obj
              [ ( "bugs",
                  J.List
                    (List.map
                       (fun (n, i, s) ->
                          J.Obj
                            [ ("name", J.Str n); ("instrs", J.Int i);
                              ("reference_s", J.Float (leg_time s 0));
                              ("lowered_s", J.Float (leg_time s 1));
                              ("traced_s", J.Float (leg_time s 2));
                              ("speedup", J.Float (paired_ratio s 0 1));
                              ("traced_ratio", J.Float (paired_ratio s 2 1)) ])
                       rows) );
                ("total_instrs", J.Int ti);
                ("reference_ips", ips 0);
                ("lowered_ips", ips 1);
                ("speedup", J.Float (paired_ratio corpus 0 1));
                ("traced_ratio", J.Float (paired_ratio corpus 2 1)) ] ) ]
  in
  let fleet_section =
    match List.rev !fleet_trials with
    | [] -> []
    | trials ->
        [ ( "fleet",
            J.Obj
              [ ( "trials",
                  J.List
                    (List.map
                       (fun (jobs, wall, cpu, speedup) ->
                          J.Obj
                            [ ("jobs", J.Int jobs); ("wall", J.Float wall);
                              ("cpu", J.Float cpu);
                              ("speedup", J.Float speedup) ])
                       trials) );
                ( "deterministic",
                  match !fleet_deterministic with
                  | Some b -> J.Bool b
                  | None -> J.Null ) ] ) ]
  in
  let longtrace_section =
    match !longtrace_stats with
    | None -> []
    | Some (wi, ws, ck) ->
        [ ( "long_trace",
            J.Obj
              [ ("wall_incremental", J.Float wi);
                ("wall_scratch", J.Float ws);
                ("speedup", J.Float (if wi > 0. then ws /. wi else 1.));
                ("checkpoints_taken", J.Int ck.Er_core.Pipeline.ck_taken);
                ("resumes", J.Int ck.Er_core.Pipeline.ck_resumes);
                ("saved_instrs", J.Int ck.Er_core.Pipeline.ck_saved_instrs);
                ( "executed_instrs",
                  J.Int ck.Er_core.Pipeline.ck_executed_instrs ) ] ) ]
  in
  let warm_section =
    match !warm_stats with
    | None -> []
    | Some w ->
        [ ( "warm",
            J.Obj
              [ ("solver_cost_cold", J.Int w.wt_cold);
                ("solver_cost_warm", J.Int w.wt_warm);
                ("saved_cost", J.Int (w.wt_cold - w.wt_warm));
                ("trajectories_identical", J.Bool w.wt_identical) ] ) ]
  in
  let table1_sections =
    if results = [] then []
    else
      [
        ("bugs", J.List (List.map bug_obj results));
        ( "totals",
          J.Obj
            [
              ("bugs", J.Int (List.length results));
              ("reproduced", J.Int reproduced);
              ("trace_bytes", J.Int (total (fun it -> it.Er_core.Pipeline.trace_bytes)));
              ("solver_calls", J.Int (total (fun it -> it.Er_core.Pipeline.solver_calls)));
              ("solver_cost", J.Int (total (fun it -> it.Er_core.Pipeline.solver_cost)));
              ("cache_hits", J.Int (total (fun it -> it.Er_core.Pipeline.cache_hits)));
              ("cache_misses", J.Int (total (fun it -> it.Er_core.Pipeline.cache_misses)));
              ("mean_er_overhead_pct", mean (fun (_, e, _) -> e));
              ("mean_rr_overhead_pct", mean (fun (_, _, r) -> r));
            ] );
      ]
  in
  J.Obj
    ((("bench", J.Int number) :: table1_sections)
     @ vm_section @ fleet_section @ longtrace_section @ warm_section)

(* Every check reads committed BENCH_N.json trajectories; a missing or
   malformed file is an environment problem (wrong checkout, wrong cwd),
   so fail fast with a message naming the file instead of a Sys_error
   backtrace. *)
let read_doc path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "bench: %s does not exist — run from the repository root\n"
      path;
    exit 1
  end;
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Some doc -> doc
  | None ->
      Printf.eprintf "bench: %s does not parse as JSON\n" path;
      exit 1

(* The committed trajectories in the working directory, oldest first. *)
let committed () =
  Sys.readdir "." |> Array.to_list
  |> List.filter_map (fun f ->
         Scanf.sscanf_opt f "BENCH_%u.json%!" (fun n -> (n, f)))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Fleet: domain-parallel corpus trajectory (sequential vs parallel)   *)
(* ------------------------------------------------------------------ *)

let run_fleet () =
  section "Fleet: Table 1 corpus on a domain pool, -j 1 vs -j 4";
  (* speedup is wall over wall, against this job's own -j 1 trial *)
  let trial ~seq_wall n =
    let rep = Er_core.Fleet.run ~jobs:n (table1_jobs ()) in
    let wall = rep.Er_core.Fleet.wall in
    let speedup =
      match seq_wall with Some w when wall > 0. -> w /. wall | _ -> 1.
    in
    Printf.printf
      "  -j %-2d (%d worker(s)): wall %.3fs  process cpu %.3fs  wall \
       speedup vs -j 1 %.2fx\n%!"
      n rep.Er_core.Fleet.jobs wall rep.Er_core.Fleet.cpu speedup;
    fleet_trials :=
      (rep.Er_core.Fleet.jobs, wall, rep.Er_core.Fleet.cpu, speedup)
      :: !fleet_trials;
    rep
  in
  let norm rep =
    J.to_string (Er_core.Fleet.report_to_json_value ~normalize:true rep)
  in
  let r1 = trial ~seq_wall:None 1 in
  let r4 = trial ~seq_wall:(Some r1.Er_core.Fleet.wall) 4 in
  let same = String.equal (norm r1) (norm r4) in
  fleet_deterministic := Some same;
  Printf.printf "  normalized reports identical (-j 1 vs -j 4): %b\n%!" same;
  if not same then exit 1

(* ------------------------------------------------------------------ *)
(* Long-trace family: incremental checkpoint/resume vs from-scratch    *)
(* ------------------------------------------------------------------ *)

let run_longtrace () =
  section
    "bench longtrace: incremental checkpoint/resume vs from-scratch tracing";
  let s = Registry.long_trace in
  let run ~incremental =
    (* both modes start from a collected heap (neither pays for the
       other's garbage), so the comparison is fair *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r =
      Er_core.Pipeline.run
        ~config:{ s.Bug.config with Er_core.Pipeline.incremental }
        ~base_prog:s.Bug.program ~workload:s.Bug.failing_workload ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  (* warm the code cache once, then keep the best of three walls per
     mode, the modes alternating so a drift in machine speed hits both *)
  ignore (run ~incremental:true);
  let keep (bw, br) (w, r) = if w < bw then (w, Some r) else (bw, br) in
  let rec trials n (bi, bs) =
    if n = 0 then (bi, bs)
    else
      let bi = keep bi (run ~incremental:true) in
      trials (n - 1) (bi, keep bs (run ~incremental:false))
  in
  let (wi, ri), (ws, rs) = trials 3 ((infinity, None), (infinity, None)) in
  let ri = Option.get ri and rs = Option.get rs in
  let cost (r : Er_core.Pipeline.result) =
    List.fold_left
      (fun a it -> a + it.Er_core.Pipeline.solver_cost)
      0 r.Er_core.Pipeline.iterations
  in
  let ck = ri.Er_core.Pipeline.ckpt in
  let speedup = if wi > 0. then ws /. wi else 1. in
  Printf.printf
    "  incremental : wall %.3fs  (%d checkpoints, %d resumes, %d instrs \
     saved, %d executed)\n"
    wi ck.Er_core.Pipeline.ck_taken ck.Er_core.Pipeline.ck_resumes
    ck.Er_core.Pipeline.ck_saved_instrs ck.Er_core.Pipeline.ck_executed_instrs;
  Printf.printf "  from-scratch: wall %.3fs\n" ws;
  Printf.printf "  end-to-end speedup: %.2fx (gate: >= 1.5x)\n%!" speedup;
  (* identical reconstruction is a hard invariant, not a perf number *)
  if cost ri <> cost rs then begin
    Printf.eprintf "longtrace: solver cost diverges between modes (%d vs %d)\n"
      (cost ri) (cost rs);
    exit 1
  end;
  if ck.Er_core.Pipeline.ck_resumes = 0 then begin
    Printf.eprintf "longtrace: incremental tracer never resumed\n";
    exit 1
  end;
  if speedup < 1.5 then begin
    Printf.eprintf
      "longtrace: %.2fx is below the 1.5x incremental-tracing gate\n" speedup;
    exit 1
  end;
  longtrace_stats := Some (wi, ws, ck)

(* ------------------------------------------------------------------ *)
(* Warm: cold vs warm fleet over one persistent solver store           *)
(* ------------------------------------------------------------------ *)

(* Two sequential fleet passes of the Table 1 corpus share one
   [--cache-dir]: the first (cold) pass records every solver answer into
   the per-job journals, the second (warm) pass replays them.  Two hard
   gates:

     - the warm pass's total solver_cost is *strictly* below the cold
       pass's (replayed answers cost zero);
     - the per-bug trajectories are byte-identical between the passes
       once the warm-sensitive accounting fields (solver_cost,
       cache_hits, cache_misses — a replayed answer counts as a hit
       where the cold run counted a miss) are masked on top of the
       usual wall-clock normalization.

   The store lives in a temp directory by default; CI points
   ER_BENCH_CACHE_DIR at a workspace path so the journals can be
   uploaded as workflow artifacts. *)

let run_warm () =
  section "bench warm: cold vs warm fleet over one persistent solver store";
  let dir =
    match Sys.getenv_opt "ER_BENCH_CACHE_DIR" with
    | Some d -> d
    | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "er-bench-cache-%d" (Unix.getpid ()))
  in
  (* the first pass must be genuinely cold: drop any stores a previous
     run left in the directory *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let cost_of_result (r : Er_core.Pipeline.result) =
    List.fold_left
      (fun a it -> a + it.Er_core.Pipeline.solver_cost)
      0 r.Er_core.Pipeline.iterations
  in
  let pass label =
    let rep = Er_core.Fleet.run ~jobs:1 (table1_jobs ~cache_dir:dir ()) in
    let cost =
      List.fold_left
        (fun a r ->
           match r.Er_core.Fleet.row_outcome with
           | Er_core.Job.Finished res -> a + cost_of_result res
           | Er_core.Job.Crashed { exn; _ } ->
               Printf.eprintf "warm: %s crashed during the %s pass: %s\n"
                 r.Er_core.Fleet.row_name label exn;
               exit 1
           | Er_core.Job.Cancelled _ -> assert false)
        0 rep.Er_core.Fleet.rows
    in
    Printf.printf "  %-4s pass: wall %.3fs  total solver_cost %d\n%!" label
      rep.Er_core.Fleet.wall cost;
    (rep, cost)
  in
  let cold_rep, cold_cost = pass "cold" in
  let warm_rep, warm_cost = pass "warm" in
  (* per-bug cost table: where the replay savings land *)
  List.iter2
    (fun c w ->
       let cost row =
         match row.Er_core.Fleet.row_outcome with
         | Er_core.Job.Finished res -> cost_of_result res
         | Er_core.Job.Crashed _ | Er_core.Job.Cancelled _ -> 0
       in
       Printf.printf "    %-22s cold %8d  warm %8d\n" c.Er_core.Fleet.row_name
         (cost c) (cost w))
    cold_rep.Er_core.Fleet.rows warm_rep.Er_core.Fleet.rows;
  (* trajectory identity: normalize wall clocks as the fleet gate does,
     then mask the fields a warm start legitimately changes *)
  let warm_fields = [ "solver_cost"; "cache_hits"; "cache_misses" ] in
  let rec mask = function
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
                if List.mem k warm_fields then (k, J.Int 0) else (k, mask v))
             fields)
    | J.List l -> J.List (List.map mask l)
    | j -> j
  in
  let view rep =
    J.to_string (mask (Er_core.Fleet.report_to_json_value ~normalize:true rep))
  in
  let identical = String.equal (view cold_rep) (view warm_rep) in
  Printf.printf
    "  trajectories byte-identical cold vs warm (cost fields masked): %b\n"
    identical;
  Printf.printf "  warm saved solver_cost: %d (%d -> %d)\n%!"
    (cold_cost - warm_cost) cold_cost warm_cost;
  if not identical then begin
    Printf.eprintf
      "warm: per-bug trajectories differ between the cold and warm pass\n";
    exit 1
  end;
  if warm_cost >= cold_cost then begin
    Printf.eprintf
      "warm: warm total solver_cost %d is not strictly below cold %d\n"
      warm_cost cold_cost;
    exit 1
  end;
  warm_stats :=
    Some { wt_cold = cold_cost; wt_warm = warm_cost; wt_identical = identical }

(* ------------------------------------------------------------------ *)

let () =
  let jobs =
    [
      ("table1", run_table1);
      ("fig6", run_fig6);
      ("fig1", run_fig1);
      ("fig5", run_fig5);
      ("ablation", run_ablation);
      ("rept", run_rept);
      ("offline", run_offline);
      ("casestudy", run_casestudy);
      ("vm", run_vm);
      ("fleet", run_fleet);
      ("longtrace", run_longtrace);
      ("warm", run_warm);
    ]
  in
  let check reference path =
    if not (Trajectory.report ~reference ~current:(path, read_doc path)) then
      exit 1
  in
  let args = List.tl (Array.to_list Sys.argv) in
  (match (args, List.rev (committed ())) with
   | [ "diff"; old_path; new_path ], _
   | [ "diff" ], (_, new_path) :: (_, old_path) :: _ ->
       check (old_path, read_doc old_path) new_path;
       exit 0
   | "diff" :: _, _ ->
       prerr_endline
         "usage: bench diff [OLD.json NEW.json]; with no files, run from a \
          directory holding two BENCH_N.json";
       exit 2
   | _ -> ());
  let rec parse names out = function
    | [] -> (List.rev names, out)
    | "-o" :: f :: rest -> parse names (Some f) rest
    | "--opcode-mix" :: rest ->
        opcode_mix := true;
        parse names out rest
    | n :: rest -> parse (n :: names) out rest
  in
  let names, out = parse [] None args in
  (* the reference is read before any job runs: a missing one fails
     fast, and an output that overwrites it is checked against its old
     contents *)
  let out =
    Option.map
      (fun path ->
         match List.rev (committed ()) with
         | (n, ref_path) :: _ -> (path, n + 1, (ref_path, read_doc ref_path))
         | [] ->
             prerr_endline
               "bench: -o checks against the newest BENCH_N.json, and \
                there is none here — run from the repository root";
             exit 1)
      out
  in
  List.iter
    (fun n ->
       match List.assoc_opt n jobs with
       | Some f -> f ()
       | None ->
           Printf.printf "unknown job %s (have: %s)\n" n
             (String.concat ", " (List.map fst jobs));
           exit 1)
    (if names = [] then List.map fst jobs else names);
  Option.iter
    (fun (path, number, reference) ->
       let oc = open_out path in
       output_string oc (J.to_string (bench_json number));
       output_char oc '\n';
       close_out oc;
       (* the check re-reads the file through the shared parser *)
       check reference path)
    out
