(* Quickstart: the paper's running example (Fig. 3) end to end.

   A 256-element array receives chained writes at input-derived indices
   and the program aborts when V[V[d]] == x.  We deploy it "in
   production" under always-on control-flow tracing, let the failure
   reoccur, and watch ER iterate: stall, select key data values, record
   them with ptwrite on the next occurrence, reproduce, verify.

   Run with:  dune exec examples/quickstart.exe
   (exits 1 unless the failure is reproduced and verified) *)

let () =
  let spec = Er_corpus.Registry.running_example in
  Printf.printf "program under test: the Fig. 3 running example\n";
  Printf.printf "%s\n"
    (Er_ir.Pretty.program_to_string spec.Er_corpus.Bug.program);
  (* a small solver budget makes the walkthrough show several iterations,
     like section 3.3.4 *)
  let config =
    Er_corpus.Bug.config_with ~solver_budget:1_500 ~gate_budget:600 ()
  in
  let r =
    Er_core.Pipeline.run ~config ~base_prog:spec.Er_corpus.Bug.program
      ~workload:spec.Er_corpus.Bug.failing_workload ()
  in
  List.iter
    (fun (it : Er_core.Pipeline.iteration) ->
       Printf.printf "occurrence %d: trace %d bytes (%d packets, %d ptwrites); "
         it.Er_core.Pipeline.occurrence it.Er_core.Pipeline.trace_bytes
         it.Er_core.Pipeline.trace_packets
         it.Er_core.Pipeline.ptwrites_recorded;
       match it.Er_core.Pipeline.outcome with
       | Er_core.Outcome.Completed ->
           Printf.printf "symbolic execution completed\n"
       | Er_core.Outcome.Stalled s ->
           Printf.printf
             "solver stalled (%s) -> key data value selection adds %d \
              point(s)\n"
             s.Er_core.Outcome.reason s.Er_core.Outcome.points_added
       | Er_core.Outcome.Diverged why -> Printf.printf "diverged: %s\n" why)
    r.Er_core.Pipeline.iterations;
  Printf.printf "\nrecording set converged to %d program points:\n"
    (List.length r.Er_core.Pipeline.recording_points);
  List.iter
    (fun p -> Printf.printf "  ptwrite after %s\n" (Er_ir.Types.point_to_string p))
    r.Er_core.Pipeline.recording_points;
  match r.Er_core.Pipeline.status with
  | Er_core.Pipeline.Gave_up g ->
      Printf.printf "\nER gave up: %s\n" (Er_core.Outcome.give_up_to_string g);
      exit 1
  | Er_core.Pipeline.Reproduced { testcase; verified; _ } ->
      Printf.printf "\ngenerated failure-inducing input:\n%s\n"
        (Fmt.str "%a" Er_core.Testcase.pp testcase);
      Printf.printf
        "(the original failing input was 1,0,2,0,2 — any satisfying input \
         reproduces the identical execution)\n";
      (match verified with
       | Some v ->
           Printf.printf
             "verification: same failure = %b, same control flow = %b\n"
             v.Er_core.Verify.same_failure v.Er_core.Verify.same_control_flow;
           if not v.Er_core.Verify.ok then exit 1
       | None -> exit 1)
