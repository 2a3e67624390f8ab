(* Staged-pipeline accounting: occurrence counting vs skipped runs, budget
   escalation exactly at selection fixpoints, per-stage event coverage,
   event-derived iteration records, the JSONL round-trip, and a selection
   stage that sends no SMT query. *)

open Er_corpus
module P = Er_core.Pipeline
module E = Er_core.Events
module O = Er_core.Outcome

let spec = Registry.running_example

let run_default () =
  P.run ~config:spec.Bug.config ~base_prog:spec.Bug.program
    ~workload:spec.Bug.failing_workload ()

let cached : P.result option ref = ref None

let result () =
  match !cached with
  | Some r -> r
  | None ->
      let r = run_default () in
      cached := Some r;
      r

(* --- occurrences count only runs where the tracked failure fired ------- *)

let test_occurrences_exclude_skipped_runs () =
  (* a workload whose first production run finishes cleanly: the pipeline
     must consume the run without counting it as an analyzed occurrence *)
  let workload ~occurrence =
    if occurrence = 1 then (spec.Bug.perf_inputs (), 0)
    else spec.Bug.failing_workload ~occurrence:(occurrence - 1)
  in
  let r = P.run ~config:spec.Bug.config ~base_prog:spec.Bug.program ~workload () in
  (match r.P.status with
   | P.Reproduced _ -> ()
   | P.Gave_up g -> Alcotest.fail ("gave up: " ^ O.give_up_to_string g));
  Alcotest.(check int) "occurrences = analyzed iterations"
    (List.length r.P.iterations) r.P.occurrences;
  Alcotest.(check int) "skipped run still consumes a production run"
    (r.P.occurrences + 1) r.P.runs;
  let skipped =
    List.filter
      (function
        | E.Run_skipped { reason = E.No_failure; occurrence } ->
            occurrence = 1
        | _ -> false)
      r.P.events
  in
  Alcotest.(check int) "the clean run emitted Run_skipped(no_failure)" 1
    (List.length skipped);
  (* the baseline workload analyzes every run: runs = occurrences *)
  let r0 = result () in
  Alcotest.(check int) "baseline: every run analyzed" r0.P.runs
    r0.P.occurrences

(* --- budget escalation happens exactly at selection fixpoints ---------- *)

let escalation_matches_fixpoints (evs : E.event list) =
  (* pair each occurrence's Points_added.added with whether a
     Budget_escalated event followed for that occurrence *)
  let added = Hashtbl.create 8 and escalated = Hashtbl.create 8 in
  List.iter
    (function
      | E.Points_added { occurrence; added = a; _ } ->
          Hashtbl.replace added occurrence a
      | E.Budget_escalated { occurrence; _ } ->
          Hashtbl.replace escalated occurrence ()
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun occ a ->
       Alcotest.(check bool)
         (Printf.sprintf "occurrence %d: escalated iff selection fixpoint" occ)
         (a = 0)
         (Hashtbl.mem escalated occ))
    added;
  Hashtbl.iter
    (fun occ () ->
       if not (Hashtbl.mem added occ) then
         Alcotest.fail
           (Printf.sprintf
              "occurrence %d escalated without a selection round" occ))
    escalated

let test_budget_escalates_at_fixpoint () =
  (* tiny budgets: selection runs dry while symex still stalls, forcing
     the deterministic analogue of the paper's longer solver timeout. *)
  let config =
    { spec.Bug.config with
      P.exec_config = { Er_symex.Exec.solver_budget = 200; gate_budget = 200 } }
  in
  let r =
    P.run ~config ~base_prog:spec.Bug.program
      ~workload:spec.Bug.failing_workload ()
  in
  (match r.P.status with
   | P.Reproduced _ -> ()
   | P.Gave_up g -> Alcotest.fail ("gave up: " ^ O.give_up_to_string g));
  let escalations =
    List.filter_map
      (function
        | E.Budget_escalated { solver_budget; _ } -> Some solver_budget
        | _ -> None)
      r.P.events
  in
  Alcotest.(check bool) "at least one escalation forced" true
    (escalations <> []);
  (* each escalation quadruples the previous effective budget *)
  ignore
    (List.fold_left
       (fun prev b ->
          Alcotest.(check int) "budget quadruples" (4 * prev) b;
          b)
       200 escalations);
  escalation_matches_fixpoints r.P.events;
  (* the default run must obey the same invariant (vacuously or not) *)
  escalation_matches_fixpoints (result ()).P.events

(* --- every stage reports at least one event per iteration -------------- *)

let events_of_occurrence evs occ =
  List.filter
    (fun e ->
       match (e : E.event) with
       | E.Occurrence_started { occurrence }
       | E.Run_skipped { occurrence; _ }
       | E.Checkpoint_resumed { occurrence; _ }
       | E.Trace_captured { occurrence; _ }
       | E.Decode_failed { occurrence; _ }
       | E.Symex_finished { occurrence; _ }
       | E.Diverged { occurrence; _ }
       | E.Stall { occurrence; _ }
       | E.Points_added { occurrence; _ }
       | E.Budget_escalated { occurrence; _ }
       | E.Verified { occurrence; _ }
       | E.Reproduced { occurrence; _ }
       | E.Gave_up { occurrence; _ }
       | E.Metrics_snapshot { occurrence; _ } -> occurrence = occ
       | E.Cache_status _ | E.Pipeline_finished _ -> false)
    evs

let test_event_per_stage_per_iteration () =
  let r = result () in
  Alcotest.(check bool) "needs more than one occurrence" true
    (r.P.occurrences > 1);
  List.iter
    (fun (it : P.iteration) ->
       let evs = events_of_occurrence r.P.events it.P.occurrence in
       let has stage =
         List.exists (fun e -> E.stage_of e = Some stage) evs
       in
       Alcotest.(check bool) "tracer reported" true (has E.Trace);
       Alcotest.(check bool) "shepherd reported" true (has E.Symex);
       match it.P.outcome with
       | O.Stalled _ ->
           Alcotest.(check bool) "selector reported" true (has E.Select)
       | O.Completed ->
           Alcotest.(check bool) "verifier reported" true (has E.Verify)
       | O.Diverged _ -> ())
    r.P.iterations

(* --- iteration records are a pure function of the event stream --------- *)

let test_iterations_derived_from_events () =
  let r = result () in
  Alcotest.(check int) "derivation is idempotent"
    (List.length r.P.iterations)
    (List.length (P.iterations_of_events r.P.events));
  List.iter2
    (fun (a : P.iteration) (b : P.iteration) ->
       Alcotest.(check bool)
         (Printf.sprintf "occurrence %d re-derives identically" a.P.occurrence)
         true (a = b))
    r.P.iterations
    (P.iterations_of_events r.P.events)

(* --- per-stage wall-clock accounting ----------------------------------- *)

let test_stage_accounting () =
  let r = result () in
  List.iter
    (fun (it : P.iteration) ->
       Alcotest.(check bool) "stage times are non-negative" true
         (it.P.trace_time >= 0. && it.P.symex_time >= 0.
          && it.P.selection_time >= 0. && it.P.verify_time >= 0.);
       match it.P.outcome with
       | O.Stalled s ->
           Alcotest.(check bool) "stall carries bottleneck stats" true
             (s.O.longest_chain >= 0 && s.O.largest_object_bytes >= 0)
       | O.Completed | O.Diverged _ ->
           Alcotest.(check (float 0.0)) "no selection time outside stalls" 0.0
             it.P.selection_time)
    r.P.iterations;
  Alcotest.(check (float 1e-9)) "total symex time = sum over iterations"
    (List.fold_left (fun a (it : P.iteration) -> a +. it.P.symex_time) 0.0
       r.P.iterations)
    r.P.total_symex_time

(* --- JSONL sink round-trip --------------------------------------------- *)

let test_jsonl_round_trip () =
  let r = result () in
  Alcotest.(check bool) "stream is non-empty" true (r.P.events <> []);
  (* structural round-trip through the JSON codec *)
  List.iter
    (fun e ->
       match E.of_json (E.to_json e) with
       | Some e' ->
           if e <> e' then
             Alcotest.fail ("round-trip changed event: " ^ E.to_json e)
       | None -> Alcotest.fail ("unparseable event: " ^ E.to_json e))
    r.P.events;
  (* the file-level contract: one parseable JSON object per line *)
  let path = Filename.temp_file "er_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let oc = open_out path in
       let sink = E.jsonl oc in
       let r2 =
         P.run ~config:spec.Bug.config ~events:sink
           ~base_prog:spec.Bug.program
           ~workload:spec.Bug.failing_workload ()
       in
       close_out oc;
       let ic = open_in path in
       let lines = ref [] in
       (try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> close_in ic);
       let lines = List.rev !lines in
       Alcotest.(check int) "one line per event"
         (List.length r2.P.events) (List.length lines);
       List.iter2
         (fun line e ->
            match E.of_json line with
            | Some e' when e' = e -> ()
            | Some _ -> Alcotest.fail ("line decodes to different event: " ^ line)
            | None -> Alcotest.fail ("unparseable line: " ^ line))
         lines r2.P.events)

(* --- selection never calls the solver ---------------------------------- *)

(* Every SMT query of a reconstruction belongs to symex: the selector
   wrapped below adds up the solver's query counter across each of its
   calls, over the whole Table 1 corpus. *)
let select_queries = ref 0
let select_calls = ref 0

module Counting_selector : P.SELECTOR = struct
  let select ~stall ~mapper ~existing =
    let before = Test_select.smt_queries () in
    let sel = P.Default_selector.select ~stall ~mapper ~existing in
    select_queries :=
      !select_queries + (Test_select.smt_queries () - before);
    incr select_calls;
    sel
end

module Counted =
  P.Make (P.Default_tracer) (P.Default_shepherd) (Counting_selector)
    (P.Default_verifier)

let with_metrics on f =
  let reg = Er_metrics.default in
  let was = Er_metrics.enabled reg in
  Er_metrics.set_enabled reg on;
  Fun.protect ~finally:(fun () -> Er_metrics.set_enabled reg was) f

let test_selection_sends_no_query () =
  select_queries := 0;
  select_calls := 0;
  let total_queries = ref 0 in
  with_metrics true
    (fun () ->
       List.iter
         (fun (s : Bug.spec) ->
            let before = Test_select.smt_queries () in
            let r =
              Counted.run ~config:s.Bug.config ~base_prog:s.Bug.program
                ~workload:s.Bug.failing_workload ()
            in
            total_queries :=
              !total_queries + (Test_select.smt_queries () - before);
            match r.P.status with
            | P.Reproduced _ -> ()
            | P.Gave_up g ->
                Alcotest.failf "%s gave up: %s" s.Bug.name
                  (O.give_up_to_string g))
         Registry.table1);
  Alcotest.(check bool) "the corpus exercised the selector" true
    (!select_calls > 0);
  Alcotest.(check bool) "the corpus sent SMT queries" true
    (!total_queries > 0);
  Alcotest.(check int) "SMT queries sent during selection" 0 !select_queries

(* --- what a job allocates ------------------------------------------------ *)

let bash () =
  match Registry.find "bash-108885" with
  | Some s -> s
  | None -> Alcotest.fail "corpus bug bash-108885 disappeared"

(* A fresh interning space starts small and doubles when half full: a
   job that interns a few hundred terms never pays for 32K slots. *)
let test_space_allocation () =
  let sp, words = Test_trace.allocated_words Er_smt.Expr.create_space in
  ignore (Sys.opaque_identity sp);
  Test_trace.check_at_most "Expr.create_space () bytes" 65_536
    (words * (Sys.word_size / 8))

(* Table 1's smallest job pays for what it uses: its trace ring and its
   term table grow from a few KB, so a cold bash-108885 reconstruction
   allocates about 29K words where a preallocated 4 MiB ring and a
   32K-slot table alone cost 590K. *)
let test_job_allocation () =
  with_metrics false (fun () ->
      let job = Er_core.Job.create (Bug.request (bash ())) in
      let (), words =
        Test_trace.allocated_words (fun () -> Er_core.Job.execute job)
      in
      (match Er_core.Job.poll job with
       | Some (Er_core.Job.Finished { P.status = P.Reproduced _; _ }) -> ()
       | _ -> Alcotest.fail "bash-108885 did not reproduce");
      Test_trace.check_at_most "cold bash-108885 job words" 65_536 words)

(* long-trace's failing runs spend 400,008 of their 400,046 instructions
   in an input-free warmup, which the shepherd replays on the compiled
   VM instead of building terms for it: a cold job allocates about 6.6M
   words in a dev build, where shepherding the warmup step by step cost
   about 42M. *)
let test_long_trace_job_allocation () =
  with_metrics false (fun () ->
      let job = Er_core.Job.create (Bug.request Registry.long_trace) in
      let (), words =
        Test_trace.allocated_words (fun () -> Er_core.Job.execute job)
      in
      (match Er_core.Job.poll job with
       | Some (Er_core.Job.Finished { P.status = P.Reproduced _; _ }) -> ()
       | _ -> Alcotest.fail "long-trace did not reproduce");
      Test_trace.check_at_most "cold long-trace job words" 16_000_000 words)

(* php-2012-2386's shepherded runs open solver sessions of about 16K,
   16K and 400 SAT variables.  A domain keeps its last solver's storage
   for the next session ({!Er_smt.Sat.release}), so once the domain has
   run the job its solvers start at full size: a second job allocates
   about 88K words in a dev build, where regrowing every solver from 16
   variables cost about 2.6M. *)
let test_php_job_reuses_sat_storage () =
  with_metrics false (fun () ->
      let spec =
        match Registry.find "php-2012-2386" with
        | Some s -> s
        | None -> Alcotest.fail "corpus bug php-2012-2386 disappeared"
      in
      let run () =
        let job = Er_core.Job.create (Bug.request spec) in
        let (), words =
          Test_trace.allocated_words (fun () -> Er_core.Job.execute job)
        in
        (match Er_core.Job.poll job with
         | Some (Er_core.Job.Finished { P.status = P.Reproduced _; _ }) -> ()
         | _ -> Alcotest.fail "php-2012-2386 did not reproduce");
        words
      in
      ignore (run ());
      Test_trace.check_at_most "php-2012-2386 job words, second on its domain"
        200_000 (run ()))

(* With metrics on, a job charges its domain's allocation to the
   er_job_* counters. *)
let test_job_allocation_counters () =
  with_metrics true (fun () ->
      let total name =
        Er_metrics.Snapshot.counter_total (Er_metrics.snapshot ()) name
      in
      let minor = "er_job_minor_words_total"
      and promoted = "er_job_promoted_words_total"
      and major = "er_job_major_words_total" in
      let before n = (n, total n) in
      let b = List.map before [ minor; promoted; major ] in
      Er_core.Job.execute (Er_core.Job.create (Bug.request (bash ())));
      let moved n = total n - List.assoc n b in
      Alcotest.(check bool) "minor words moved" true (moved minor > 0);
      Alcotest.(check bool) "major words moved" true (moved major > 0);
      Alcotest.(check bool) "promoted words are part of the major words" true
        (moved promoted >= 0 && moved promoted <= moved major))

let suites =
  [
    ( "pipeline",
      [
        Alcotest.test_case "occurrences exclude skipped runs" `Slow
          test_occurrences_exclude_skipped_runs;
        Alcotest.test_case "budget escalates exactly at fixpoints" `Slow
          test_budget_escalates_at_fixpoint;
        Alcotest.test_case "every stage emits events per iteration" `Slow
          test_event_per_stage_per_iteration;
        Alcotest.test_case "iterations derive from the event stream" `Slow
          test_iterations_derived_from_events;
        Alcotest.test_case "per-stage accounting" `Slow test_stage_accounting;
        Alcotest.test_case "JSONL sink round-trips" `Slow
          test_jsonl_round_trip;
        Alcotest.test_case "selection sends no SMT query (Table 1)" `Slow
          test_selection_sends_no_query;
        Alcotest.test_case "a fresh interning space is small" `Quick
          test_space_allocation;
        Alcotest.test_case "a cold bash-108885 job allocates what it uses"
          `Quick test_job_allocation;
        Alcotest.test_case "a cold long-trace job shepherds only its input"
          `Quick test_long_trace_job_allocation;
        Alcotest.test_case "a php-2012-2386 job reuses its domain's SAT \
                            storage" `Quick test_php_job_reuses_sat_storage;
        Alcotest.test_case "job allocation counters move" `Quick
          test_job_allocation_counters;
      ] );
  ]
