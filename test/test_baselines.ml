(* Tests for the baselines: rr-style record/replay fidelity and REPT-style
   recovery accuracy degradation. *)

let test_rr_record_replay () =
  (* recording a failing run and replaying the log reproduces the outcome
     exactly *)
  let s = Er_corpus.Registry.running_example in
  let prog = Er_ir.Prog.of_program s.Er_corpus.Bug.program in
  let inputs, seed = s.Er_corpus.Bug.failing_workload ~occurrence:1 in
  let r1, log = Er_baselines.Rr.record ~sched_seed:seed prog inputs in
  let r2 = Er_baselines.Rr.replay ~sched_seed:seed prog log in
  (match r1.Er_vm.Interp.outcome, r2.Er_vm.Interp.outcome with
   | Er_vm.Interp.Failed f1, Er_vm.Interp.Failed f2 ->
       Alcotest.(check bool) "same failure" true
         (Er_vm.Failure.same_failure f1 f2)
   | _ -> Alcotest.fail "record/replay outcome mismatch");
  Alcotest.(check int) "same instruction count" r1.Er_vm.Interp.instr_count
    r2.Er_vm.Interp.instr_count

let test_rr_log_nonempty () =
  let s = Er_corpus.Registry.running_example in
  let prog = Er_ir.Prog.of_program s.Er_corpus.Bug.program in
  let inputs, seed = s.Er_corpus.Bug.failing_workload ~occurrence:1 in
  let _r, log = Er_baselines.Rr.record ~sched_seed:seed prog inputs in
  Alcotest.(check bool) "inputs logged" true (log.Er_baselines.Rr.inputs <> []);
  Alcotest.(check bool) "stores logged" true (log.Er_baselines.Rr.undo <> []);
  Alcotest.(check bool) "bytes accounted" true (log.Er_baselines.Rr.bytes > 0)

let test_rept_degrades_with_window () =
  (* the REPT accuracy claim: correctness does not improve as the window
     (trace length analysed) grows, and strictly degrades somewhere *)
  match Er_corpus.Registry.find "libpng-2004-0597" with
  | None -> Alcotest.fail "corpus entry missing"
  | Some s ->
      let prog = Er_ir.Prog.of_program s.Er_corpus.Bug.program in
      let inputs, seed = s.Er_corpus.Bug.failing_workload ~occurrence:1 in
      let defs = Er_baselines.Rept.record ~sched_seed:seed prog inputs in
      let series =
        Er_baselines.Rept.accuracy_series ~prog ~defs
          ~windows:[ 50; 500; 5000 ]
      in
      let rate (_, (st : Er_baselines.Rept.stats)) =
        float_of_int st.Er_baselines.Rept.correct
        /. float_of_int (max 1 st.Er_baselines.Rept.total)
      in
      (match series with
       | [ a; _b; c ] ->
           Alcotest.(check bool) "accuracy does not improve with length" true
             (rate a >= rate c);
           Alcotest.(check bool) "long windows have incorrect values" true
             ((fun (_, st) -> st.Er_baselines.Rept.incorrect > 0) c)
       | _ -> Alcotest.fail "series length")

let test_rept_short_window_accurate () =
  (* near the crash REPT is mostly right — that is why it is useful for
     short traces (section 2.2) *)
  match Er_corpus.Registry.find "php-74194" with
  | None -> Alcotest.fail "corpus entry missing"
  | Some s ->
      let prog = Er_ir.Prog.of_program s.Er_corpus.Bug.program in
      let inputs, seed = s.Er_corpus.Bug.failing_workload ~occurrence:1 in
      let defs = Er_baselines.Rept.record ~sched_seed:seed prog inputs in
      let r = Er_baselines.Rept.recover ~prog ~defs ~window:30 in
      let st = Er_baselines.Rept.score r in
      Alcotest.(check bool) "mostly correct near the crash" true
        (float_of_int st.Er_baselines.Rept.correct
         /. float_of_int (max 1 st.Er_baselines.Rept.total)
         > 0.6)

let test_random_selection_weaker () =
  (* random recording of the same volume must not beat ER's selection on
     the bug that needs the most data *)
  match Er_corpus.Registry.find "php-74194" with
  | None -> Alcotest.fail "corpus entry missing"
  | Some s ->
      let er =
        Er_core.Pipeline.run ~config:s.Er_corpus.Bug.config
          ~base_prog:s.Er_corpus.Bug.program
          ~workload:s.Er_corpus.Bug.failing_workload ()
      in
      let er_occ = er.Er_core.Pipeline.occurrences in
      let _ok, rand_occ, _pts =
        Er_baselines.Random_select.reconstruct ~config:s.Er_corpus.Bug.config
          ~seed:137 ~base_prog:s.Er_corpus.Bug.program
          ~workload:s.Er_corpus.Bug.failing_workload ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "random (%d occ) not better than ER (%d occ)" rand_occ
           er_occ)
        true
        (rand_occ >= er_occ)

let suites =
  [
    ( "baselines",
      [
        Alcotest.test_case "rr record/replay fidelity" `Quick test_rr_record_replay;
        Alcotest.test_case "rr log contents" `Quick test_rr_log_nonempty;
        Alcotest.test_case "rept degrades with window" `Quick
          test_rept_degrades_with_window;
        Alcotest.test_case "rept accurate near crash" `Quick
          test_rept_short_window_accurate;
        Alcotest.test_case "random selection not better" `Slow
          test_random_selection_weaker;
      ] );
  ]
