(* Snapshot/revert bit-identity of the resumable engine (Vm_state).

   Pausing, snapshotting and reverting must commute with execution: after
   [snapshot; run-to-end; revert; run-to-end], the replayed suffix has to
   reproduce the first completion exactly — outcome, instruction count,
   outputs, encoder packet bytes, branch-outcome sequence and what it
   adds to the VM metric counters — and both must equal an uninterrupted
   straight-line run.  Checked on the running example and on the
   random-program generator shared with the lowered-VM differential. *)

module Prog = Er_ir.Prog
module Interp = Er_vm.Interp
module Vs = Er_vm.Vm_state

type obs = {
  ob_outcome : string;
  ob_instrs : int;
  ob_outputs : int64 list;
  ob_trace : string;          (* finished encoder packet bytes *)
  ob_bits : bool list;        (* conditional-branch outcome sequence *)
  ob_metrics : int list;      (* the thirteen VM counters, or a suffix's
                                 additions to them *)
}

let vm_metric_values () = List.map Er_metrics.counter_value Vs.vm_counters

let outcome_str = function
  | Vs.Finished None -> "finished"
  | Vs.Finished (Some v) -> Printf.sprintf "finished %Ld" v
  | Vs.Failed f -> "failed: " ^ Er_vm.Failure.to_string f

(* identical modulo the process-global metric counters (which only
   compare within one revert cycle, not across separate runs) *)
let same_core a b =
  String.equal a.ob_outcome b.ob_outcome
  && a.ob_instrs = b.ob_instrs
  && a.ob_outputs = b.ob_outputs
  && String.equal a.ob_trace b.ob_trace
  && a.ob_bits = b.ob_bits

let same_full a b = same_core a b && a.ob_metrics = b.ob_metrics

let check_same name a b =
  Alcotest.(check string) (name ^ ": outcome") a.ob_outcome b.ob_outcome;
  Alcotest.(check int) (name ^ ": instrs") a.ob_instrs b.ob_instrs;
  Alcotest.(check (list int64)) (name ^ ": outputs") a.ob_outputs b.ob_outputs;
  Alcotest.(check string) (name ^ ": packet bytes") a.ob_trace b.ob_trace;
  Alcotest.(check (list bool)) (name ^ ": branch bits") a.ob_bits b.ob_bits

(* fresh encoder + branch-bit recorder wired into a VM config.  The
   10 +/- 4 quantum puts [pause_at] boundaries every few instructions:
   under the default 60 +/- 24 the 38-instruction failing run of the
   running example finishes before its first boundary. *)
let tracing_config seed =
  let enc = Er_trace.Encoder.create () in
  Er_trace.Encoder.start enc;
  let bits = ref [] in
  let hooks =
    Interp.compose_hooks (Vs.recording_hooks enc)
      { Interp.no_hooks with
        Interp.on_branch = Some (fun b -> bits := b :: !bits) }
  in
  let config =
    { Interp.default_config with
      Interp.quantum = 10; quantum_jitter = 4; sched_seed = seed; hooks }
  in
  (config, enc, bits)

let obs_of enc bits (r : Vs.run_result) =
  {
    ob_outcome = outcome_str r.Vs.outcome;
    ob_instrs = r.Vs.instr_count;
    ob_outputs = r.Vs.outputs;
    ob_trace = Bytes.to_string (Er_trace.Encoder.finish enc);
    ob_bits = List.rev !bits;
    ob_metrics = vm_metric_values ();
  }

let run_straight program mk_inputs seed =
  let config, enc, bits = tracing_config seed in
  let r = Vs.run_program ~config (Prog.of_program program) (mk_inputs ()) in
  obs_of enc bits r

(* Pause at the first quantum boundary at clock >= k, snapshot the VM and
   the encoder, finish the run, then rewind both and replay the suffix.
   The process counters stay monotone across the revert, so each
   suffix's [ob_metrics] is what it added to them: the first completion
   against the snapshot, the replay against the first completion.
   [None] when the program finished before ever pausing. *)
let run_with_revert program mk_inputs seed k =
  let config, enc, bits = tracing_config seed in
  let prog = Prog.of_program program in
  let vm =
    Vs.create ~config ~plan:(Vs.empty_plan (Prog.lowered prog)) prog
      (mk_inputs ())
  in
  match Vs.run ~pause_at:k vm with
  | Some _ -> None
  | None ->
      let vck = Vs.snapshot vm in
      let eck = Er_trace.Encoder.checkpoint enc in
      let bits_at = !bits in
      let at_snapshot = vm_metric_values () in
      let first = obs_of enc bits (Vs.run_to_end vm) in
      Vs.revert vm vck;
      if not (Er_trace.Encoder.revert enc eck) then
        Alcotest.fail "encoder refused its own checkpoint";
      bits := bits_at;
      let second = obs_of enc bits (Vs.run_to_end vm) in
      let added since o =
        { o with ob_metrics = List.map2 ( - ) o.ob_metrics since }
      in
      Some (added at_snapshot first, added first.ob_metrics second)

(* the counter comparison only bites when the registry counts *)
let with_vm_metrics f =
  let reg = Er_metrics.default in
  let was = Er_metrics.enabled reg in
  Er_metrics.set_enabled reg true;
  Fun.protect ~finally:(fun () -> Er_metrics.set_enabled reg was) f

(* --- deterministic case: the running example --------------------------- *)

let test_fig3_revert_identical () =
  with_vm_metrics (fun () ->
      let spec = Er_corpus.Registry.running_example in
      let mk () =
        fst (spec.Er_corpus.Bug.failing_workload ~occurrence:1)
      in
      let _, seed = spec.Er_corpus.Bug.failing_workload ~occurrence:1 in
      let straight = run_straight spec.Er_corpus.Bug.program mk seed in
      List.iter
        (fun k ->
           match run_with_revert spec.Er_corpus.Bug.program mk seed k with
           | None -> Alcotest.failf "fig3 k=%d: finished before pausing" k
           | Some (first, second) ->
               let name = Printf.sprintf "fig3 k=%d" k in
               check_same (name ^ " replay") first second;
               Alcotest.(check (list int)) (name ^ " counters added")
                 first.ob_metrics second.ob_metrics;
               check_same (name ^ " vs straight") straight first)
        [ 1; 5; 20 ])

(* --- randomized property ------------------------------------------------ *)

let qcheck_snapshot_revert =
  QCheck2.Test.make
    ~name:"snapshot/revert replay is bit-identical on random programs"
    ~count:120 Test_lower.gen_prog_and_inputs
    (fun (program, input_vals, seed) ->
       with_vm_metrics (fun () ->
           let mk () = Er_vm.Inputs.make [ ("s", input_vals) ] in
           let straight = run_straight program mk seed in
           List.for_all
             (fun k ->
                match run_with_revert program mk seed k with
                | None -> true
                | Some (first, second) ->
                    same_full first second && same_core straight first)
             [ 1; 4; 15 ]))

(* --- the frame view: what `er_cli inspect` prints ------------------------ *)

(* main stores 42 in %base and calls bump(%base); bump copies its
   parameter into %a and then adds 1 to %a 199 times, so a pause inside
   bump at clock c has bump at ip c - 2 with %a = 42 + (c - 3) once
   written. *)
let bump_prog =
  let open Er_ir.Types in
  let i64 v = Imm (v, I64) in
  let block label instrs term = { label; instrs = Array.of_list instrs; term } in
  {
    globals = [];
    main = "main";
    funcs =
      [
        { fname = "main"; params = []; ret_ty = None;
          blocks =
            [ block "entry"
                [ Bin { dst = "%base"; op = Add; ty = I64; a = i64 40L; b = i64 2L };
                  Call { dst = Some "%r"; func = "bump"; args = [ Reg "%base" ] };
                  Output { v = Reg "%r" } ]
                (Ret None) ] };
        { fname = "bump"; params = [ ("%p", I64) ]; ret_ty = Some I64;
          blocks =
            [ block "entry"
                (Bin { dst = "%a"; op = Add; ty = I64; a = Reg "%p"; b = i64 0L }
                 :: List.init 199 (fun _ ->
                        Bin { dst = "%a"; op = Add; ty = I64; a = Reg "%a"; b = i64 1L }))
                (Ret (Some (Reg "%a"))) ] };
      ];
  }

let test_threads_view () =
  let vm = Vs.create (Prog.of_program bump_prog) (Er_vm.Inputs.make []) in
  let pause_inside_bump at =
    Alcotest.(check bool) "paused" true (Vs.run ~pause_at:at vm = None);
    let c = Vs.clock vm in
    Alcotest.(check bool) (Printf.sprintf "clock %d inside bump" c) true
      (c > 2 && c < 202);
    match Vs.threads vm with
    | [ { Vs.tv_tid = 0; tv_status = Vs.Runnable; tv_frames = [ bump; main ] } ] ->
        (* the frame as `er_cli inspect` prints it, on one line *)
        let show func block ip regs =
          Printf.sprintf "%s @ %s[%d]%s" func block ip
            (String.concat ""
               (List.map (fun (r, v) -> Printf.sprintf " %s=%Ld" r v) regs))
        in
        let frame (fv : Vs.frame_view) =
          show fv.Vs.fv_func fv.Vs.fv_block fv.Vs.fv_ip fv.Vs.fv_regs
        in
        let ip = c - 2 in
        Alcotest.(check string) "bump, innermost"
          (show "bump" "entry" ip
             [ ("%p", 42L); ("%a", if ip = 0 then 0L else Int64.of_int (41 + ip)) ])
          (frame bump);
        (* main's call has retired; %r is not yet written *)
        Alcotest.(check string) "main, the caller"
          (show "main" "entry" 2 [ ("%base", 42L); ("%r", 0L) ])
          (frame main);
        c
    | _ -> Alcotest.fail "expected one runnable thread with two frames"
  in
  let c1 = pause_inside_bump 1 in
  let c2 = pause_inside_bump (c1 + 1) in
  Alcotest.(check bool) "the second pause is later" true (c2 > c1);
  match Vs.run vm with
  | Some r -> Alcotest.(check (list int64)) "outputs" [ 241L ] r.Vs.outputs
  | None -> Alcotest.fail "run to the end paused"

let suites =
  [
    ( "vm-state",
      [
        Alcotest.test_case "fig3 snapshot/revert replay identical" `Quick
          test_fig3_revert_identical;
        QCheck_alcotest.to_alcotest qcheck_snapshot_revert;
        Alcotest.test_case "threads: frames and registers at a pause" `Quick
          test_threads_view;
      ] );
  ]
