(* reconstruct: the analysis side, closed loop.

   One client, one job at a time, on one domain.  A pass reconstructs
   the 13 Table 1 bugs plus the long-trace family, cold (no cache dir),
   each as a [Job.request] run by [Job.execute]; the seed draws each
   pass's job order and passes repeat until the measured time is used
   up (whole passes only, so every run sees the same job mix).  Symex,
   SMT and selection do nearly all the work; the long-trace jobs are
   the only ones whose checkpoints get resumed.

   The traced run passes timing wrappers of the four default stages to
   [Pipeline.Make] and reads SMT/selector counter deltas around each
   stage call; the run is serial, so each delta lands on one stage. *)

open Er_corpus
open Common
module P = Er_core.Pipeline
module Job = Er_core.Job

(* BENCH_10.json's exact counters: occurrences and solver cost per bug. *)
let bench10 =
  [ ("php-2012-2386", 3, 46548); ("php-74194", 6, 4906);
    ("sqlite-7be932d", 2, 5436); ("sqlite-787fa71", 3, 3177);
    ("sqlite-4e8e485", 2, 7738); ("nasm-2004-1287", 2, 9663);
    ("objdump-2018-6323", 1, 2822); ("matrixssl-2014-1569", 3, 8566);
    ("memcached-2019-11596", 3, 43212); ("libpng-2004-0597", 1, 34611);
    ("bash-108885", 1, 205); ("python-2018-1000030", 4, 23360);
    ("pbzip2", 2, 13792) ]

let specs () = Registry.table1 @ [ Registry.long_trace ]

(* -- the traced run's stage wrappers -------------------------------- *)

type stage_counts = {
  mutable runs : int;
  mutable captured : int;
  mutable steps : int;
  mutable stalls : int;
  mutable verifies : int;
  mutable verified_ok : int;
  mutable smt_symex : (string * float) list;
  mutable smt_select : (string * float) list;
  mutable candidates : int;
  mutable determined : int;
}

let zero_smt = List.map (fun (k, _) -> (k, 0.)) smt_counters

let sc =
  { runs = 0; captured = 0; steps = 0; stalls = 0; verifies = 0; verified_ok = 0;
    smt_symex = zero_smt; smt_select = zero_smt; candidates = 0; determined = 0 }

let job_label = ref ""

let add_smt acc d = List.map2 (fun (k, a) (_, b) -> (k, a +. b)) acc d

(* Span measurement that takes SMT counter deltas around a stage call
   and credits the SMT query time to [inner_layer]. *)
let smt_measure inner_layer credit () =
  let before = snap () in
  let b = smt_read before in
  fun () ->
    let after = snap () in
    let d = delta b (smt_read after) in
    credit before after d;
    ([ (inner_layer, List.assoc "query_s" d) ], d)

module Tracer : P.TRACER = struct
  type session = P.Default_tracer.session

  let start = P.Default_tracer.start
  let stats = P.Default_tracer.stats

  let capture ~session ~config ~points ~forward ~tracked ~inputs ~sched_seed =
    let ((outcome, _) as r) =
      Spans.with_span ~job:!job_label "tracer" (fun () ->
          P.Default_tracer.capture ~session ~config ~points ~forward ~tracked
            ~inputs ~sched_seed)
    in
    sc.runs <- sc.runs + 1;
    (match outcome with P.Captured _ -> sc.captured <- sc.captured + 1 | _ -> ());
    r
end

module Shepherd : P.SHEPHERD = struct
  let analyze ~config ~prog ~capture =
    let r =
      Spans.with_span ~job:!job_label
        ~measure:(smt_measure "smt.symex" (fun _ _ d -> sc.smt_symex <- add_smt sc.smt_symex d))
        "symex"
        (fun () -> P.Default_shepherd.analyze ~config ~prog ~capture)
    in
    sc.steps <- sc.steps + r.Er_symex.Exec.steps;
    (match r.Er_symex.Exec.outcome with
     | Er_symex.Exec.Stalled _ -> sc.stalls <- sc.stalls + 1
     | _ -> ());
    r
end

module Selector : P.SELECTOR = struct
  let select ~stall ~mapper ~existing =
    Spans.with_span ~job:!job_label
      ~measure:
        (smt_measure "smt.select" (fun before after d ->
             sc.smt_select <- add_smt sc.smt_select d;
             let c n = counter after n - counter before n in
             sc.candidates <- sc.candidates + c "er_select_candidates_total";
             sc.determined <-
               sc.determined + c "er_select_determined_candidates_total"))
      "select"
      (fun () -> P.Default_selector.select ~stall ~mapper ~existing)
end

module Verifier : P.VERIFIER = struct
  let verify ~solution ~base_prog ~testcase ~expected_failure ~expected_branches
      ~sched_seed =
    let v =
      Spans.with_span ~job:!job_label "verify" (fun () ->
          P.Default_verifier.verify ~solution ~base_prog ~testcase
            ~expected_failure ~expected_branches ~sched_seed)
    in
    sc.verifies <- sc.verifies + 1;
    if v.Er_core.Verify.ok then sc.verified_ok <- sc.verified_ok + 1;
    v
end

module Timed = P.Make (Tracer) (Shepherd) (Selector) (Verifier)

(* -- jobs and passes ------------------------------------------------ *)

type job_sample = {
  bug : string;
  wall : float;
  cpu : float;
  ok : bool;
  occurrences : int;
  runs : int;
  solver_cost : int;
  ckpt : P.ckpt_stats;
  minor : float;
  major : float;
  promoted_words : float;
}

let request ~traced (s : Bug.spec) =
  let config = Job.Config.of_pipeline s.Bug.config in
  let work =
    if not traced then
      Job.Reconstruct
        { Job.src_name = s.Bug.name; src_prog = s.Bug.program;
          src_workload = s.Bug.failing_workload }
    else
      Job.Thunk
        { name = s.Bug.name;
          run =
            (fun () ->
               Timed.run ~config:(Job.Config.to_pipeline config)
                 ~base_prog:s.Bug.program ~workload:s.Bug.failing_workload ()) }
  in
  { Job.tenant = "perfbench"; work; config }

let verified (r : P.result) =
  match r.P.status with
  | P.Reproduced { verified = Some v; _ } -> v.Er_core.Verify.ok
  | _ -> false

let run_job ~traced (s : Bug.spec) =
  job_label := s.Bug.name;
  let job = Job.create (request ~traced s) in
  let g0 = Gc.quick_stat () in
  let c0 = Stats.cpu_now () and t0 = Stats.now () in
  Spans.with_span ~job:s.Bug.name "job" (fun () -> Job.execute job);
  let wall = Stats.now () -. t0 and cpu = Stats.cpu_now () -. c0 in
  let g1 = Gc.quick_stat () in
  let base =
    { bug = s.Bug.name; wall; cpu; ok = false; occurrences = 0; runs = 0;
      solver_cost = 0; ckpt = { P.ck_taken = 0; ck_resumes = 0; ck_saved_instrs = 0;
                                ck_executed_instrs = 0 };
      minor = float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections);
      major = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words }
  in
  match Job.poll job with
  | Some (Job.Finished r) ->
      let ok = verified r in
      check ok "%s: job did not end Reproduced with an ok Verify verdict" s.Bug.name;
      { base with ok; occurrences = r.P.occurrences; runs = r.P.runs;
        solver_cost =
          List.fold_left (fun a it -> a + it.P.solver_cost) 0 r.P.iterations;
        ckpt = r.P.ckpt }
  | _ ->
      check false "%s: job crashed or was cancelled" s.Bug.name;
      base

let pass ~st ~traced specs =
  let order = shuffle st specs in
  let t0 = Stats.now () in
  let jobs = Spans.with_span "pass" (fun () -> List.map (run_job ~traced) order) in
  (jobs, Stats.now () -. t0)

(* One set-up: lower every program (timed, for ir.lower_ms), then a
   warm-up pass that fills every lazily built cache before timing.
   Returns the seconds spent lowering. *)
let setup ~seed specs =
  let lower_s =
    List.fold_left
      (fun acc (s : Bug.spec) ->
         let t = Stats.now () in
         ignore (Er_ir.Prog.lowered (Er_ir.Prog.of_program s.Bug.program));
         acc +. (Stats.now () -. t))
      0. specs
  in
  ignore (pass ~st:(rng seed 9) ~traced:false specs);
  lower_s

let measure ~st ~traced ~seconds specs =
  let passes = ref [] in
  let t0 = Stats.now () in
  while Stats.now () -. t0 < seconds do
    passes := pass ~st ~traced specs :: !passes
  done;
  List.rev !passes

let per_bug_rows jobs =
  Printf.printf "  %-22s %6s %9s %5s %10s %10s\n" "bug" "jobs" "p50 ms" "occ"
    "BENCH_10" "cost";
  List.iter
    (fun (s : Bug.spec) ->
       let js = List.filter (fun j -> j.bug = s.Bug.name) jobs in
       let occ = match js with j :: _ -> j.occurrences | [] -> 0 in
       let cost = match js with j :: _ -> j.solver_cost | [] -> 0 in
       let expect, differs =
         match List.find_opt (fun (b, _, _) -> b = s.Bug.name) bench10 with
         | Some (_, o, c) -> (Printf.sprintf "%d/%d" o c, o <> occ || c <> cost)
         | None -> ("-", false)
       in
       Printf.printf "  %-22s %6d %9.2f %5d %10s %10d%s\n" s.Bug.name (List.length js)
         (1000. *. Stats.median (List.map (fun j -> j.wall) js))
         occ expect cost
         (if differs then "  differs from BENCH_10" else ""))
    (specs ())

(* The traced run: stage spans and counter deltas; per-pass figures. *)
let traced_layers ~st ~seconds ~plain:(plain_passes, plain_wall) ~lower_s specs =
  Er_metrics.set_enabled Er_metrics.default true;
  Spans.reset ();
  Spans.recording := true;
  let passes = measure ~st ~traced:true ~seconds specs in
  Spans.recording := false;
  Er_metrics.set_enabled Er_metrics.default false;
  let np = float_of_int (List.length passes) in
  let jobs = List.concat_map fst passes in
  let wall = Stats.sum (List.map snd passes) in
  let per_pass x = x /. np in
  let sumj f = float_of_int (List.fold_left (fun a j -> a + f j) 0 jobs) in
  let self_layers = Spans.by_layer !Spans.spans in
  let self name = Option.value ~default:0. (List.assoc_opt name self_layers) in
  Printf.printf "  self time per layer, traced run (%d passes, %.3f s):\n"
    (List.length passes) wall;
  List.iter
    (fun (name, t) ->
       Printf.printf "    %-12s %9.4f s %6.1f%%%s\n" name t (100. *. t /. wall)
         (if name = "pass" || name = "job" then "  (unattributed)" else ""))
    self_layers;
  let attributed = Stats.sum (List.map snd self_layers) in
  Printf.printf "    unattributed remainder %.4f s; layers + remainder = %.4f s of %.4f s\n"
    (self "pass" +. self "job") attributed wall;
  let n_ok = float_of_int (List.length (List.filter (fun j -> j.ok) jobs)) in
  let smt stage d =
    let g k = List.assoc k d in
    let hits = g "cache_hits" and misses = g "cache_misses" in
    [ m ("smt.queries." ^ stage) "count" (per_pass (g "queries"));
      m ("smt.query_s." ^ stage) "s" (per_pass (g "query_s"));
      m ("smt.solver_cost." ^ stage) "count" (per_pass (g "gates" +. g "propagations"));
      m ("smt.gates." ^ stage) "count" (per_pass (g "gates"));
      m ("smt.propagations." ^ stage) "count" (per_pass (g "propagations"));
      m ("smt.conflicts." ^ stage) "count" (per_pass (g "conflicts"));
      m ("smt.cache_hit_share." ^ stage) "ratio"
        (if hits +. misses > 0. then hits /. (hits +. misses) else 0.) ]
  in
  let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0. in
  ( [ m "ir.lower_ms" "ms" (1000. *. lower_s /. float_of_int (List.length specs));
    m "tracer.busy_s" "s" (per_pass (self "tracer"));
    m "tracer.runs" "count" (per_pass (float_of_int sc.runs));
    m "tracer.useful_share" "ratio" (ratio sc.captured sc.runs);
    m "tracer.checkpoints" "count" (per_pass (sumj (fun j -> j.ckpt.P.ck_taken)));
    m "tracer.resumes" "count" (per_pass (sumj (fun j -> j.ckpt.P.ck_resumes)));
    m "tracer.saved_instrs" "count" (per_pass (sumj (fun j -> j.ckpt.P.ck_saved_instrs)));
    m "tracer.executed_instrs" "count"
      (per_pass (sumj (fun j -> j.ckpt.P.ck_executed_instrs)));
    m "symex.busy_s" "s" (per_pass (self "symex"));
    m "symex.steps" "count" (per_pass (float_of_int sc.steps));
    m "symex.stalls" "count" (per_pass (float_of_int sc.stalls));
    m "select.busy_s" "s" (per_pass (self "select"));
    m "select.candidates" "count" (per_pass (float_of_int sc.candidates));
    m "select.determined_share" "ratio" (ratio sc.determined sc.candidates);
    m "verify.busy_s" "s" (per_pass (self "verify"));
    m "verify.ok_share" "ratio" (ratio sc.verified_ok sc.verifies);
    m "pipeline.occurrences" "count" (per_pass (sumj (fun j -> j.occurrences)));
    m "pipeline.runs" "count" (per_pass (sumj (fun j -> j.runs)));
    m "gc.minor_per_repro" "count"
      (Stats.sum (List.map (fun j -> j.minor) jobs) /. n_ok);
    m "gc.major_per_repro" "count"
      (Stats.sum (List.map (fun j -> j.major) jobs) /. n_ok);
    m "gc.promoted_mb" "MB"
      (Stats.sum (List.map (fun j -> j.promoted_words) jobs)
       *. float_of_int (Sys.word_size / 8) /. 1048576. /. n_ok);
    m "bench.tracing_overhead_pct" "%"
      (100. *. ((wall /. np) /. (plain_wall /. float_of_int (List.length plain_passes)) -. 1.)) ]
    @ smt "symex" sc.smt_symex @ smt "select" sc.smt_select,
    List.length jobs )

let run ~seed ~seconds ~traced : report =
  let specs = specs () in
  let lower_s, setup_s = setup_three (fun () -> setup ~seed specs) in
  reset_peak_rss "self";
  let st = rng seed 4 in
  let plain_s = if traced then seconds /. 2. else seconds in
  let passes = measure ~st ~traced:false ~seconds:plain_s specs in
  let jobs = List.concat_map fst passes in
  let wall = Stats.sum (List.map snd passes) in
  let cpu = Stats.sum (List.map (fun j -> j.cpu) jobs) in
  let ok = List.filter (fun j -> j.ok) jobs in
  let walls = List.map (fun j -> j.wall) jobs in
  let tl = Stats.tail ~pct:90. walls in
  (* every pass runs each bug once, so the pooled median of 14 bugs'
     samples falls exactly between two bugs' clusters; the median of the
     per-bug medians is the same statistic without that tie *)
  let p50 =
    Stats.median
      (List.map
         (fun (s : Bug.spec) ->
            Stats.median (List.filter_map (fun j -> if j.bug = s.Bug.name then Some j.wall else None) jobs))
         specs)
  in
  let n_ok = float_of_int (List.length ok) in
  Printf.printf "reconstruct: %d passes, %d jobs, %.3f s\n" (List.length passes)
    (List.length jobs) wall;
  per_bug_rows jobs;
  let table1_cost =
    match passes with
    | (js, _) :: _ ->
        List.fold_left
          (fun a j -> if j.bug = Registry.long_trace.Bug.name then a else a + j.solver_cost)
          0 js
    | [] -> 0
  in
  Printf.printf "  smt.solver_cost on the Table 1 jobs, one pass: %d (BENCH_10: 204036)\n"
    table1_cost;
  Printf.printf "  job wall tail: %s\n" (Stats.tail_label tl);
  let occ = Stats.sum (List.map (fun j -> float_of_int j.occurrences) ok) in
  let named =
    [ ("repros_per_s", fmt_value (n_ok /. wall), "1/s");
      ("repro_p50_ms", fmt_value (1000. *. p50), "ms");
      ("repro_tail_ms", fmt_value (1000. *. tl.Stats.value), "ms (" ^ Stats.tail_label tl ^ ")");
      ("occurrences_per_repro", fmt_value (occ /. n_ok), "count");
      ("cpu_s_per_repro", fmt_value (cpu /. n_ok), "s") ]
  in
  let gated =
    gated ~setup_s ~peak_rss_mb:(peak_rss_mb "self")
      ~op_gmean_ms:(1000. *. Stats.geomean walls)
      ~op_tail_ms:(1000. *. tl.Stats.value)
      ~ops_per_s:(n_ok /. wall)
      ~cpu_ms_per_op:(1000. *. cpu /. n_ok)
  in
  let layers, traced_jobs =
    if traced then
      traced_layers ~st ~seconds:(seconds -. plain_s) ~plain:(passes, wall) ~lower_s specs
    else ([], 0)
  in
  { attempted = List.length jobs + traced_jobs; failed = !Common.fail_count; gated; named;
    layers }
