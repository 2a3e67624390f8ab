(* End-to-end pipeline tests: production run under tracing, trace decode,
   shepherded symbolic execution, key data value selection, iteration,
   test-case generation and verification — on the paper's running example. *)

open Er_corpus

let run_fig3 () =
  let spec = Running_example.spec in
  Er_core.Pipeline.run ~config:spec.Bug.config ~base_prog:spec.Bug.program
    ~workload:spec.Bug.failing_workload ()

let cached_result : Er_core.Pipeline.result option ref = ref None

let result () =
  match !cached_result with
  | Some r -> r
  | None ->
      let r = run_fig3 () in
      cached_result := Some r;
      r

let test_reproduces () =
  let r = result () in
  match r.Er_core.Pipeline.status with
  | Er_core.Pipeline.Reproduced { verified; _ } ->
      (match verified with
       | Some v ->
           Alcotest.(check bool) "same failure" true v.Er_core.Verify.same_failure;
           Alcotest.(check bool) "same control flow" true
             v.Er_core.Verify.same_control_flow
       | None -> Alcotest.fail "verification missing")
  | Er_core.Pipeline.Gave_up g ->
      Alcotest.fail ("gave up: " ^ Er_core.Outcome.give_up_to_string g)

let test_iterates () =
  (* with the configured small budget, the first attempt must stall:
     control flow alone is not enough (section 5.2: 11/13 failures) *)
  let r = result () in
  Alcotest.(check bool) "needs more than one occurrence" true
    (r.Er_core.Pipeline.occurrences > 1);
  match r.Er_core.Pipeline.iterations with
  | first :: _ ->
      (match first.Er_core.Pipeline.outcome with
       | Er_core.Outcome.Stalled _ -> ()
       | Er_core.Outcome.Completed ->
           Alcotest.fail "first iteration should stall"
       | Er_core.Outcome.Diverged m -> Alcotest.fail ("diverged: " ^ m))
  | [] -> Alcotest.fail "no iterations recorded"

let test_recording_set_is_small () =
  let r = result () in
  let n = List.length r.Er_core.Pipeline.recording_points in
  Alcotest.(check bool) "recorded a handful of values" true (n >= 1 && n <= 8)

let test_testcase_fails_same_way () =
  let r = result () in
  match r.Er_core.Pipeline.status with
  | Er_core.Pipeline.Reproduced { testcase; _ } ->
      let prog = Er_ir.Prog.of_program Running_example.program in
      let res = Er_vm.Interp.run prog (Er_core.Testcase.to_inputs testcase) in
      (match res.Er_vm.Interp.outcome with
       | Er_vm.Interp.Failed f ->
           (match f.Er_vm.Failure.kind with
            | Er_vm.Failure.Abort_called _ -> ()
            | k ->
                Alcotest.fail
                  ("wrong failure kind: " ^ Er_vm.Failure.kind_to_string k))
       | Er_vm.Interp.Finished _ -> Alcotest.fail "generated input did not crash")
  | Er_core.Pipeline.Gave_up g ->
      Alcotest.fail ("gave up: " ^ Er_core.Outcome.give_up_to_string g)

(* --- incremental vs from-scratch differential --------------------------- *)

(* Checkpoint/resume must be invisible in everything but wall clock: the
   incremental and from-scratch pipelines have to produce identical
   occurrence streams, iteration trajectories, solver costs, recording
   sets and statuses on the whole corpus. *)

module P = Er_core.Pipeline
module E = Er_core.Events
module J = Er_core.Json

(* events rendered with wall clocks stripped; resume notices (which only
   the incremental tracer emits) and metrics snapshots (whose counters
   are process-global, so they differ between back-to-back runs) are
   excluded from the comparison *)
let normalized_events evs =
  let rec strip = function
    | J.Obj fields ->
        J.Obj
          (List.filter_map
             (fun (k, v) ->
                if String.equal k "elapsed" then None else Some (k, strip v))
             fields)
    | J.List l -> J.List (List.map strip l)
    | j -> j
  in
  List.filter_map
    (fun e ->
       match (e : E.event) with
       | E.Checkpoint_resumed _ | E.Metrics_snapshot _ -> None
       | e -> Some (J.to_string (strip (E.to_json_value e))))
    evs

let zeroed (it : P.iteration) =
  { it with
    P.trace_time = 0.; symex_time = 0.; selection_time = 0.;
    verify_time = 0. }

let same_status a b =
  match (a, b) with
  | ( P.Reproduced { testcase = t1; verified = v1; _ },
      P.Reproduced { testcase = t2; verified = v2; _ } ) ->
      t1 = t2 && v1 = v2
  | P.Gave_up g1, P.Gave_up g2 -> g1 = g2
  | _ -> false

(* run both modes, check observational identity, return the incremental
   result *)
let differential (s : Bug.spec) =
  let run ~incremental =
    P.run
      ~config:{ s.Bug.config with P.incremental }
      ~base_prog:s.Bug.program ~workload:s.Bug.failing_workload ()
  in
  let inc = run ~incremental:true in
  let scr = run ~incremental:false in
  let name = s.Bug.name in
  Alcotest.(check int) (name ^ ": runs") scr.P.runs inc.P.runs;
  Alcotest.(check int) (name ^ ": occurrences") scr.P.occurrences
    inc.P.occurrences;
  Alcotest.(check bool) (name ^ ": recording points") true
    (scr.P.recording_points = inc.P.recording_points);
  Alcotest.(check bool) (name ^ ": status") true
    (same_status scr.P.status inc.P.status);
  Alcotest.(check int) (name ^ ": iteration count")
    (List.length scr.P.iterations)
    (List.length inc.P.iterations);
  List.iter2
    (fun a b ->
       Alcotest.(check bool)
         (Printf.sprintf "%s: iteration %d identical" name a.P.occurrence)
         true
         (zeroed a = zeroed b))
    scr.P.iterations inc.P.iterations;
  let ea = normalized_events scr.P.events
  and eb = normalized_events inc.P.events in
  Alcotest.(check int) (name ^ ": event count") (List.length ea)
    (List.length eb);
  List.iter2
    (fun a b -> Alcotest.(check string) (name ^ ": event") a b)
    ea eb;
  Alcotest.(check int) (name ^ ": scratch never resumes") 0
    scr.P.ckpt.P.ck_resumes;
  inc

let test_incremental_matches_scratch_corpus () =
  let total_cost =
    List.fold_left
      (fun acc s ->
         let inc = differential s in
         acc
         + List.fold_left
             (fun a (it : P.iteration) -> a + it.P.solver_cost)
             0 inc.P.iterations)
      0 Er_corpus.Registry.table1
  in
  (* the committed trajectory's corpus-wide solver cost (BENCH totals) *)
  Alcotest.(check int) "Table 1 solver cost under incremental tracing"
    204_036 total_cost

let test_long_trace_resumes () =
  let inc = differential Er_corpus.Registry.long_trace in
  Alcotest.(check bool) "resumed at least one production run" true
    (inc.P.ckpt.P.ck_resumes > 0);
  Alcotest.(check bool) "resuming skipped shared-prefix instructions" true
    (inc.P.ckpt.P.ck_saved_instrs > 0);
  match inc.P.status with
  | P.Reproduced _ -> ()
  | P.Gave_up g ->
      Alcotest.fail ("long-trace gave up: " ^ Er_core.Outcome.give_up_to_string g)

let suites =
  [
    ( "end-to-end.fig3",
      [
        Alcotest.test_case "reproduces and verifies" `Slow test_reproduces;
        Alcotest.test_case "iterates via stalls" `Slow test_iterates;
        Alcotest.test_case "recording set small" `Slow test_recording_set_is_small;
        Alcotest.test_case "generated input crashes" `Slow test_testcase_fails_same_way;
      ] );
    ( "end-to-end.incremental",
      [
        Alcotest.test_case "incremental = from-scratch on the corpus" `Slow
          test_incremental_matches_scratch_corpus;
        Alcotest.test_case "long-trace family resumes from checkpoints" `Slow
          test_long_trace_resumes;
      ] );
  ]
