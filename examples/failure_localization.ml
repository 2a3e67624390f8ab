(* The section 5.4 case study: ER gives production support to MIMIC-style
   invariant-based failure localization.

   Likely invariants are inferred offline from passing runs (existing
   tests); when the od-miniature fails in production, ER reconstructs a
   replayable execution, Daikon-style checking runs on the reconstruction,
   and the violated invariants point at the root cause — the same
   candidates as when using the original failing input directly.

   Run with:  dune exec examples/failure_localization.exe
   (exits 1 unless the failure is reproduced and verified) *)

let () =
  let spec = Er_corpus.Coreutils_od.spec in
  let prog = Er_ir.Prog.of_program spec.Er_corpus.Bug.program in
  let passing = List.init 4 Er_corpus.Coreutils_od.passing_inputs in
  Printf.printf "inferring likely invariants from %d passing od runs...\n"
    (List.length passing);
  let r =
    Er_core.Pipeline.run ~config:spec.Er_corpus.Bug.config
      ~base_prog:spec.Er_corpus.Bug.program
      ~workload:spec.Er_corpus.Bug.failing_workload ()
  in
  match r.Er_core.Pipeline.status with
  | Er_core.Pipeline.Gave_up g ->
      Printf.printf "reconstruction gave up: %s\n"
        (Er_core.Outcome.give_up_to_string g);
      exit 1
  | Er_core.Pipeline.Reproduced { verified = None; _ } ->
      Printf.printf "reconstruction was not verified\n";
      exit 1
  | Er_core.Pipeline.Reproduced { verified = Some v; _ }
    when not v.Er_core.Verify.ok ->
      Printf.printf "reconstruction did not verify: %s\n"
        v.Er_core.Verify.detail;
      exit 1
  | Er_core.Pipeline.Reproduced { testcase; _ } ->
      Printf.printf "failure reconstructed after %d occurrence(s)\n\n"
        r.Er_core.Pipeline.occurrences;
      let failing = Er_core.Testcase.to_inputs testcase in
      let report = Er_invariants.Localize.localize ~prog ~passing ~failing in
      Printf.printf "%s\n" (Fmt.str "%a" Er_invariants.Localize.pp_report report);
      (match report.Er_invariants.Localize.ranked_functions with
       | (top, _) :: _ ->
           Printf.printf
             "\ntop candidate: %s — the function whose offset accounting the \
              patch fixes\n"
             top
       | [] -> ())
