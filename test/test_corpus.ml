(* Corpus-wide properties: every Table 1 bug fails under its failing
   workload with the declared bug class, every performance workload runs
   to completion, and — the headline property — ER reconstructs every
   failure with a verified test case. *)

open Er_corpus

let kind_matches (s : Bug.spec) (k : Er_vm.Failure.kind) =
  match s.Bug.bug_type, k with
  | "integer overflow", Er_vm.Failure.Out_of_bounds _ -> true
  | "heap buffer overflow", Er_vm.Failure.Out_of_bounds _ -> true
  | "buffer overflow", Er_vm.Failure.Out_of_bounds _ -> true
  | "stack buffer overrun", Er_vm.Failure.Out_of_bounds _ -> true
  | "shared data corruption", Er_vm.Failure.Out_of_bounds _ -> true
  | "NULL pointer dereference", Er_vm.Failure.Null_deref -> true
  | "inconsistent data structure", Er_vm.Failure.Assert_failed _ -> true
  | "use-after-free", Er_vm.Failure.Use_after_free _ -> true
  (* a UAF race can also corrupt the structure's indices first and
     manifest as an out-of-bounds access under some interleavings *)
  | "use-after-free", Er_vm.Failure.Out_of_bounds _ -> true
  | _ -> false

let test_failing_workloads_fail () =
  List.iter
    (fun (s : Bug.spec) ->
       let prog = Er_ir.Prog.of_program s.Bug.program in
       let inputs, seed = s.Bug.failing_workload ~occurrence:1 in
       let config = { Er_vm.Interp.default_config with sched_seed = seed } in
       let r = Er_vm.Interp.run ~config prog inputs in
       match r.Er_vm.Interp.outcome with
       | Er_vm.Interp.Failed f ->
           if not (kind_matches s f.Er_vm.Failure.kind) then
             Alcotest.fail
               (Printf.sprintf "%s: declared %s but crashed with %s"
                  s.Bug.name s.Bug.bug_type
                  (Er_vm.Failure.kind_to_string f.Er_vm.Failure.kind))
       | Er_vm.Interp.Finished _ ->
           (* racy bugs may need another occurrence; require one within 8 *)
           let fired = ref false in
           for occ = 2 to 8 do
             if not !fired then begin
               let inputs, seed = s.Bug.failing_workload ~occurrence:occ in
               let config =
                 { Er_vm.Interp.default_config with sched_seed = seed }
               in
               match (Er_vm.Interp.run ~config prog inputs).Er_vm.Interp.outcome with
               | Er_vm.Interp.Failed _ -> fired := true
               | Er_vm.Interp.Finished _ -> ()
             end
           done;
           if not !fired then
             Alcotest.fail (s.Bug.name ^ ": failure never fired"))
    Registry.table1

let test_perf_workloads_finish () =
  List.iter
    (fun (s : Bug.spec) ->
       let prog = Er_ir.Prog.of_program s.Bug.program in
       let r = Er_vm.Interp.run prog (s.Bug.perf_inputs ()) in
       match r.Er_vm.Interp.outcome with
       | Er_vm.Interp.Finished _ -> ()
       | Er_vm.Interp.Failed f ->
           Alcotest.fail
             (Printf.sprintf "%s perf workload failed: %s" s.Bug.name
                (Er_vm.Failure.to_string f)))
    Registry.all

let test_reconstructs_all () =
  (* the Table 1 headline: every failure is reproduced and verifies *)
  List.iter
    (fun (s : Bug.spec) ->
       let r =
         Er_core.Pipeline.run ~config:s.Bug.config ~base_prog:s.Bug.program
           ~workload:s.Bug.failing_workload ()
       in
       match r.Er_core.Pipeline.status with
       | Er_core.Pipeline.Reproduced { verified = Some v; _ } ->
           if not v.Er_core.Verify.ok then
             Alcotest.fail
               (Printf.sprintf "%s: reproduced but not verified (%s)"
                  s.Bug.name v.Er_core.Verify.detail)
       | Er_core.Pipeline.Reproduced { verified = None; _ } -> ()
       | Er_core.Pipeline.Gave_up g ->
           Alcotest.fail
             (Printf.sprintf "%s: gave up (%s)" s.Bug.name
                (Er_core.Outcome.give_up_to_string g)))
    (Registry.table1 @ Registry.case_studies)

let test_occurrence_distribution () =
  (* shape of Table 1: at least one bug needs only one occurrence, most
     need more, and php-74194 needs the most *)
  let occs =
    List.map
      (fun (s : Bug.spec) ->
         let r =
           Er_core.Pipeline.run ~config:s.Bug.config ~base_prog:s.Bug.program
             ~workload:s.Bug.failing_workload ()
         in
         (s.Bug.name, r.Er_core.Pipeline.occurrences))
      Registry.table1
  in
  let single = List.filter (fun (_, o) -> o = 1) occs in
  let multi = List.filter (fun (_, o) -> o > 1) occs in
  Alcotest.(check bool) "some need only one occurrence" true (single <> []);
  Alcotest.(check bool) "most need reoccurrences" true
    (List.length multi > List.length single);
  let php74194 = List.assoc "php-74194" occs in
  Alcotest.(check bool) "php-74194 needs the most occurrences" true
    (List.for_all (fun (_, o) -> o <= php74194) occs)

let suites =
  [
    ( "corpus",
      [
        Alcotest.test_case "failing workloads fail as declared" `Quick
          test_failing_workloads_fail;
        Alcotest.test_case "perf workloads finish" `Quick
          test_perf_workloads_finish;
        Alcotest.test_case "ER reconstructs all bugs (verified)" `Slow
          test_reconstructs_all;
        Alcotest.test_case "occurrence distribution shape" `Slow
          test_occurrence_distribution;
      ] );
  ]
