(* Aggregated test entry point: one Alcotest run over every suite. *)

let () =
  Alcotest.run "execution-reconstruction"
    (Test_smt.suites @ Test_ir.suites @ Test_trace.suites @ Test_vm.suites
     @ Test_select.suites @ Test_metrics.suites @ Test_baselines.suites
     @ Test_invariants.suites @ Test_end_to_end.suites @ Test_pipeline.suites
     @ Test_corpus.suites @ Test_fleet.suites @ Test_serve.suites
     @ Test_lower.suites @ Test_vm_state.suites @ Test_persist.suites
     @ Test_trajectory.suites)
