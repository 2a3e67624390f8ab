(* Reconstructing a multithreaded failure: the pbzip2-style use-after-free.

   The producer frees the shared FIFO while the consumer thread is still
   draining it.  The PT-like trace carries TIP/MTC chunk timestamps
   (section 3.4); shepherded symbolic execution replays the recorded
   chunk schedule, so the reconstruction pins both the inputs and the
   interleaving that exposed the race.

   Run with:  dune exec examples/concurrency_uaf.exe
   (exits 1 unless the failure is reproduced and verified) *)

let () =
  let spec = Er_corpus.Pbzip2.spec in
  (* show the race: the same input crashes under some schedules only *)
  let prog = Er_ir.Prog.of_program spec.Er_corpus.Bug.program in
  Printf.printf "schedule sensitivity of the pbzip2 miniature:\n";
  List.iter
    (fun seed ->
       let inputs, _ = spec.Er_corpus.Bug.failing_workload ~occurrence:1 in
       let config = { Er_vm.Interp.default_config with sched_seed = seed } in
       let r = Er_vm.Interp.run ~config prog inputs in
       Printf.printf "  seed %2d: %s\n" seed
         (match r.Er_vm.Interp.outcome with
          | Er_vm.Interp.Failed f ->
              Er_vm.Failure.kind_to_string f.Er_vm.Failure.kind
          | Er_vm.Interp.Finished _ -> "no failure"))
    [ 1; 2; 3; 4; 5 ];
  Printf.printf "\nrunning ER on the reoccurring crash...\n";
  let r =
    Er_core.Pipeline.run ~config:spec.Er_corpus.Bug.config
      ~base_prog:spec.Er_corpus.Bug.program
      ~workload:spec.Er_corpus.Bug.failing_workload ()
  in
  match r.Er_core.Pipeline.status with
  | Er_core.Pipeline.Gave_up g ->
      Printf.printf "gave up: %s\n" (Er_core.Outcome.give_up_to_string g);
      exit 1
  | Er_core.Pipeline.Reproduced { testcase; verified; _ } ->
      Printf.printf "reproduced after %d failure occurrence(s)\n"
        r.Er_core.Pipeline.occurrences;
      Printf.printf "generated input:\n%s\n"
        (Fmt.str "%a" Er_core.Testcase.pp testcase);
      (match verified with
       | Some v ->
           Printf.printf
             "re-execution under the recorded schedule: same failure = %b, \
              same control flow = %b\n"
             v.Er_core.Verify.same_failure v.Er_core.Verify.same_control_flow;
           if not v.Er_core.Verify.ok then exit 1
       | None -> exit 1)
