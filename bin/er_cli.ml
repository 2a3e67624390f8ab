(* Command-line front end for the ER reproduction.

     er_cli list                    list corpus bugs
     er_cli reproduce <bug>         run the staged pipeline on one bug
                                    (--events FILE for a JSONL event log,
                                     --json for a machine-readable result)
     er_cli fleet                   run the whole corpus, print a per-bug,
                                    per-stage timing/solver-cost table
     er_cli report --events FILE    join a persisted event log (and an
                                    optional metrics snapshot) into a
                                    per-bug explainability report
     er_cli inspect <bug>           time-travel one production run: stop
                                    at a clock, dump registers/memory
     er_cli show <bug>              print a bug's EIR program
     er_cli parse <file.eir>        parse and validate a textual EIR file
     er_cli run <file.eir> k=v,...  run a textual EIR program concretely
     er_cli serve                   multi-tenant reconstruction daemon over
                                    a Unix-domain socket (JSONL protocol;
                                    a metrics frame returns the live
                                    registry in Prometheus text)
     er_cli loadgen                 replay the corpus as N concurrent
                                    clients against a running daemon and
                                    report throughput + latency

   Flag plumbing shared between subcommands lives in Cli_args. *)

open Cmdliner

let spec_arg = Cli_args.spec_arg

let list_cmd =
  let run () =
    Printf.printf "%-22s %-24s %-28s %s\n" "id" "models" "bug type" "MT";
    List.iter
      (fun (s : Er_corpus.Bug.spec) ->
         Printf.printf "%-22s %-24s %-28s %s\n" s.Er_corpus.Bug.name
           s.Er_corpus.Bug.models s.Er_corpus.Bug.bug_type
           (if s.Er_corpus.Bug.multithreaded then "Y" else "N"))
      Er_corpus.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bug corpus")
    Term.(const run $ const ())

let reproduce_cmd =
  let run spec verbose events_file json metrics trace_out cache_dir =
    let recorder = Option.is_some trace_out in
    let r =
      Cli_args.with_metrics ~recorder
        (Option.is_some metrics || recorder)
        (fun () ->
           let r =
             Cli_args.with_events_sink events_file
               (Cli_args.run_job ?cache_dir spec)
           in
           Option.iter Cli_args.write_trace_out trace_out;
           r)
    in
    if json then print_endline (Er_core.Pipeline.result_to_json r)
    else begin
      List.iter
        (fun (it : Er_core.Pipeline.iteration) ->
           Printf.printf "occurrence %d: %s (solver calls %d, graph %d nodes)\n"
             it.Er_core.Pipeline.occurrence
             (Fmt.str "%a" Er_core.Outcome.pp_step it.Er_core.Pipeline.outcome)
             it.Er_core.Pipeline.solver_calls it.Er_core.Pipeline.graph_nodes)
        r.Er_core.Pipeline.iterations;
      let ck = r.Er_core.Pipeline.ckpt in
      if ck.Er_core.Pipeline.ck_taken > 0 then
        Printf.printf
          "checkpoints: %d taken, %d resume(s), %d instrs saved, %d executed\n"
          ck.Er_core.Pipeline.ck_taken ck.Er_core.Pipeline.ck_resumes
          ck.Er_core.Pipeline.ck_saved_instrs
          ck.Er_core.Pipeline.ck_executed_instrs;
      match r.Er_core.Pipeline.status with
      | Er_core.Pipeline.Reproduced { testcase; verified; _ } ->
          Printf.printf "reproduced after %d failure occurrence(s)\n"
            r.Er_core.Pipeline.occurrences;
          if verbose then
            Printf.printf "test case:\n%s\n"
              (Fmt.str "%a" Er_core.Testcase.pp testcase);
          (match verified with
           | Some v ->
               Printf.printf "verified: same failure %b, same control flow %b\n"
                 v.Er_core.Verify.same_failure
                 v.Er_core.Verify.same_control_flow
           | None -> ())
      | Er_core.Pipeline.Gave_up g ->
          Printf.printf "gave up: %s\n" (Er_core.Outcome.give_up_to_string g)
    end;
    match metrics with
    | None -> ()
    | Some fmt -> Cli_args.render_metrics fmt stdout
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ]) in
  let events_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Write the pipeline's structured event stream as JSON Lines \
                to $(docv) (use - for stdout).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the final result (status, iterations, recording points) \
                as machine-readable JSON instead of the human summary.")
  in
  let metrics =
    Arg.(
      value
      & opt (some Cli_args.metrics_fmt) None
      & info [ "metrics" ] ~docv:"FMT"
          ~doc:"Enable the cross-layer metrics registry for this run and \
                print a snapshot afterwards; $(docv) is one of table, json \
                or prometheus.")
  in
  Cmd.v (Cmd.info "reproduce" ~doc:"Reconstruct one corpus failure")
    Term.(
      const run $ spec_arg $ verbose $ events_file $ json $ metrics
      $ Cli_args.trace_out_flag $ Cli_args.cache_dir_flag)

(* Fleet mode: the whole Table 1 corpus through the staged pipeline on a
   Domain pool ([-j N], default = recommended domain count), with an
   aggregated per-bug, per-stage summary.  Per-bug numbers are
   deterministic across [-j] settings (see Fleet); only wall clocks and
   worker placement vary, and [--json --normalize] strips exactly those,
   which is what the CI fleet-determinism gate diffs. *)
let fleet_cmd =
  let stage_times (r : Er_core.Pipeline.result) =
    List.fold_left
      (fun (tr, sy, se, ve) (it : Er_core.Pipeline.iteration) ->
         ( tr +. it.Er_core.Pipeline.trace_time,
           sy +. it.Er_core.Pipeline.symex_time,
           se +. it.Er_core.Pipeline.selection_time,
           ve +. it.Er_core.Pipeline.verify_time ))
      (0., 0., 0., 0.) r.Er_core.Pipeline.iterations
  in
  let print_table (report : Er_core.Fleet.report) =
    Printf.printf
      "%-22s %-8s %3s %8s %4s %4s %9s %9s %9s %9s %7s %12s %9s %6s %4s\n"
      "bug" "status" "wkr" "wall(s)" "occ" "runs" "trace(s)" "symex(s)"
      "select(s)" "verify(s)" "squery" "solver-cost" "cache" "ringOW" "pts";
    let totals = ref (0, 0, 0., 0., 0., 0., 0, 0, 0, 0) in
    let ck_totals = ref (0, 0, 0) in
    let reproduced = ref 0 in
    let crashed = ref 0 in
    let n = List.length report.Er_core.Fleet.rows in
    List.iter
      (fun (row : Er_core.Fleet.row) ->
         match row.Er_core.Fleet.row_outcome with
         | Er_core.Job.Crashed { exn; _ } ->
             incr crashed;
             Printf.printf "%-22s %-8s %3d %8.3f %s\n"
               row.Er_core.Fleet.row_name "CRASHED"
               row.Er_core.Fleet.row_worker row.Er_core.Fleet.row_wall exn
         | Er_core.Job.Cancelled _ -> assert false (* nothing cancels them *)
         | Er_core.Job.Finished r ->
             let tr, sy, se, ve = stage_times r in
             let calls, cost, hits, misses =
               List.fold_left
                 (fun (c, k, h, m) (it : Er_core.Pipeline.iteration) ->
                    ( c + it.Er_core.Pipeline.solver_calls,
                      k + it.Er_core.Pipeline.solver_cost,
                      h + it.Er_core.Pipeline.cache_hits,
                      m + it.Er_core.Pipeline.cache_misses ))
                 (0, 0, 0, 0) r.Er_core.Pipeline.iterations
             in
             let status =
               match r.Er_core.Pipeline.status with
               | Er_core.Pipeline.Reproduced { verified = Some v; _ } ->
                   incr reproduced;
                   if v.Er_core.Verify.ok then "ok" else "UNVERIF"
               | Er_core.Pipeline.Reproduced _ ->
                   incr reproduced;
                   "ok"
               | Er_core.Pipeline.Gave_up _ -> "GAVE-UP"
             in
             let o, ru, a, b, c, d, e, f, h, m = !totals in
             totals :=
               ( o + r.Er_core.Pipeline.occurrences,
                 ru + r.Er_core.Pipeline.runs, a +. tr, b +. sy, c +. se,
                 d +. ve, e + calls, f + cost, h + hits, m + misses );
             let ck = r.Er_core.Pipeline.ckpt in
             let ckt, ckr, cks = !ck_totals in
             ck_totals :=
               ( ckt + ck.Er_core.Pipeline.ck_taken,
                 ckr + ck.Er_core.Pipeline.ck_resumes,
                 cks + ck.Er_core.Pipeline.ck_saved_instrs );
             let ring_ow =
               List.fold_left
                 (fun a (it : Er_core.Pipeline.iteration) ->
                    a + it.Er_core.Pipeline.ring_overwritten)
                 0 r.Er_core.Pipeline.iterations
             in
             Printf.printf
               "%-22s %-8s %3d %8.3f %4d %4d %9.3f %9.3f %9.4f %9.3f %7d \
                %12d %9s %6d %4d\n"
               row.Er_core.Fleet.row_name status row.Er_core.Fleet.row_worker
               row.Er_core.Fleet.row_wall r.Er_core.Pipeline.occurrences
               r.Er_core.Pipeline.runs tr sy se ve calls cost
               (Printf.sprintf "%d/%d" hits (hits + misses))
               ring_ow
               (List.length r.Er_core.Pipeline.recording_points))
      report.Er_core.Fleet.rows;
    let o, ru, a, b, c, d, e, f, h, m = !totals in
    Printf.printf
      "%-22s %-8s %3s %8s %4d %4d %9.3f %9.3f %9.4f %9.3f %7d %12d %9s\n"
      "total"
      (Printf.sprintf "%d/%d" !reproduced n)
      "" "" o ru a b c d e f
      (Printf.sprintf "%d/%d" h (h + m));
    if !crashed > 0 then Printf.printf "crashed: %d\n" !crashed;
    (let ckt, ckr, cks = !ck_totals in
     if ckt > 0 then
       Printf.printf
         "fleet: checkpoints %d taken, %d resume(s), %d instrs saved\n" ckt
         ckr cks);
    Printf.printf "fleet: %d job(s), wall %.3fs, process cpu %.3fs\n"
      report.Er_core.Fleet.jobs report.Er_core.Fleet.wall
      report.Er_core.Fleet.cpu
  in
  let run jobs json normalize events_file metrics_out trace_out cache_dir =
    Cli_args.with_events_channel events_file (fun chan ->
        let sink_mutex = Mutex.create () in
        let sink_for name =
          match chan with
          | None -> Er_core.Events.null
          | Some oc -> Cli_args.tagged_jsonl_sink sink_mutex oc name
        in
        let handles =
          List.map
            (fun (s : Er_corpus.Bug.spec) ->
               Er_core.Job.create ~events:(sink_for s.Er_corpus.Bug.name)
                 (Er_corpus.Bug.request ?cache_dir s))
            Er_corpus.Registry.table1
        in
        let report = Er_core.Fleet.run ?jobs handles in
        if json then
          print_endline (Er_core.Fleet.report_to_json ~normalize report)
        else print_table report);
    Option.iter Cli_args.write_trace_out trace_out;
    match metrics_out with
    | None -> ()
    | Some "-" ->
        Cli_args.render_metrics `Json stdout;
        flush stdout
    | Some path ->
        let oc =
          try open_out path
          with Sys_error msg ->
            Printf.eprintf "er_cli: cannot open metrics file: %s\n" msg;
            exit 1
        in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Cli_args.render_metrics `Json oc)
  in
  let run jobs json normalize events_file metrics_out trace_out cache_dir =
    let recorder = Option.is_some trace_out in
    Cli_args.with_metrics ~recorder
      (Option.is_some metrics_out || recorder)
      (fun () ->
         run jobs json normalize events_file metrics_out trace_out cache_dir)
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Run bugs on $(docv) worker domains (default: the \
                recommended domain count of this machine).  Per-bug \
                results are identical for every $(docv).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the fleet report (per-bug results, worker placement, \
                wall clocks and process CPU) as machine-readable JSON \
                instead of the human table.")
  in
  let normalize =
    Arg.(
      value & flag
      & info [ "normalize" ]
          ~doc:"With $(b,--json): strip wall clocks, worker placement and \
                job count, leaving only the deterministic per-bug content. \
                Reports from different $(b,-j) settings must then be \
                byte-identical; CI diffs them.")
  in
  let events_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Append every bug's event stream as JSON Lines to $(docv) \
                (use - for stdout).  Each line carries a job field naming \
                the emitting bug (er_cli report splits on it); writes are \
                serialized across workers and flushed per line, but event \
                order between bugs depends on scheduling.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some Cli_args.metrics_file) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Enable the cross-layer metrics registry for the whole fleet \
                run and write the final snapshot as JSON to $(docv) (use - \
                for stdout).  A format name (table, json, prometheus) is \
                refused: it is not a file.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Run the whole bug corpus through the staged pipeline on a \
             domain pool")
    Term.(
      const run $ jobs $ json $ normalize $ events_file $ metrics_out
      $ Cli_args.trace_out_flag $ Cli_args.cache_dir_flag)

(* Post-hoc explainability: join a persisted JSONL event log (from
   [reproduce --events] or [fleet --events]) with an optional metrics
   snapshot (from [--metrics-out]) into a per-bug, per-stage report —
   the iteration waterfall, why iterations stalled or diverged, how
   effective the solver cache and the checkpoint/resume machinery were,
   and which bugs are outliers against the corpus medians.  Works
   entirely offline: the log round-trips through [Events.of_json], so a
   report can be regenerated long after the run. *)
let report_cmd =
  let module J = Er_core.Json in
  let module P = Er_core.Pipeline in
  let module E = Er_core.Events in
  let module O = Er_core.Outcome in
  let read_lines ic =
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  let load_lines = function
    | "-" -> read_lines stdin
    | path -> (
        match open_in path with
        | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_lines ic)
        | exception Sys_error msg ->
            Printf.eprintf "er_cli: cannot open events file: %s\n" msg;
            exit 1)
  in
  (* Split the log into per-bug streams by the fleet's ["job"] tag;
     untagged lines (a single-bug reproduce log) fall into one group. *)
  let group_by_job lines =
    let malformed = ref 0 in
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun line ->
         if String.trim line = "" then ()
         else
           match E.of_json line with
           | None -> incr malformed
           | Some e ->
               let job =
                 match
                   Option.bind (J.parse line) (fun j ->
                       Option.bind (J.member "job" j) J.to_str)
                 with
                 | Some j -> j
                 | None -> "(untagged)"
               in
               (match Hashtbl.find_opt tbl job with
                | Some r -> r := e :: !r
                | None ->
                    order := job :: !order;
                    Hashtbl.add tbl job (ref [ e ])))
      lines;
    ( List.rev_map (fun job -> (job, List.rev !(Hashtbl.find tbl job))) !order,
      !malformed )
  in
  let median = function
    | [] -> 0
    | xs ->
        let a = Array.of_list (List.sort compare xs) in
        let n = Array.length a in
        if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) + a.(n / 2)) / 2
  in
  (* Everything [iterations_of_events] cannot see: checkpoint resumes
     (deliberately excluded from iteration accounting), skipped runs,
     and the terminal status events. *)
  let fold_control evs =
    List.fold_left
      (fun (resumes, saved, skipped, status) (e : E.event) ->
         match e with
         | E.Checkpoint_resumed { at_clock; _ } ->
             (resumes + 1, saved + at_clock, skipped, status)
         | E.Run_skipped _ -> (resumes, saved, skipped + 1, status)
         | E.Reproduced { occurrence; _ } ->
             (resumes, saved, skipped, `Reproduced occurrence)
         | E.Gave_up { reason; _ } ->
             (resumes, saved, skipped, `Gave_up reason)
         | E.Pipeline_finished { runs; occurrences; reproduced } ->
             let status =
               match status with
               | `Unknown -> if reproduced then `Reproduced occurrences else status
               | s -> s
             in
             (resumes, saved, skipped, `Finished (runs, occurrences, status))
         | _ -> (resumes, saved, skipped, status))
      (0, 0, 0, `Unknown) evs
  in
  let status_string = function
    | `Unknown -> "incomplete log"
    | `Reproduced occ -> Printf.sprintf "reproduced after %d occurrence(s)" occ
    | `Gave_up reason -> "gave up: " ^ reason
    | `Finished (runs, occ, inner) -> (
        match inner with
        | `Reproduced _ ->
            Printf.sprintf "reproduced after %d occurrence(s), %d run(s)" occ
              runs
        | `Gave_up reason ->
            Printf.sprintf "gave up after %d occurrence(s), %d run(s): %s" occ
              runs reason
        | _ ->
            Printf.sprintf "finished: %d run(s), %d occurrence(s)" runs occ)
  in
  let stall_causes its =
    List.filter_map
      (fun (it : P.iteration) ->
         match it.P.outcome with
         | O.Stalled s ->
             Some
               (Printf.sprintf "occ %d: %s (chain=%d, obj=%dB, +%d points)"
                  it.P.occurrence s.O.reason s.O.longest_chain
                  s.O.largest_object_bytes s.O.points_added)
         | _ -> None)
      its
  in
  let divergence_causes its =
    List.filter_map
      (fun (it : P.iteration) ->
         match it.P.outcome with
         | O.Diverged reason ->
             Some (Printf.sprintf "occ %d: %s" it.P.occurrence reason)
         | _ -> None)
      its
  in
  let sum f its = List.fold_left (fun a it -> a + f it) 0 its in
  let sumf f its = List.fold_left (fun a it -> a +. f it) 0. its in
  let run events_file metrics_file json =
    let groups, malformed = group_by_job (load_lines events_file) in
    let snap =
      Option.map
        (fun path ->
           let contents =
             match open_in_bin path with
             | ic ->
                 Fun.protect
                   ~finally:(fun () -> close_in ic)
                   (fun () -> really_input_string ic (in_channel_length ic))
             | exception Sys_error msg ->
                 Printf.eprintf "er_cli: cannot open metrics file: %s\n" msg;
                 exit 1
           in
           match Er_metrics.Snapshot.of_json contents with
           | Some snap -> snap
           | None ->
               Printf.eprintf
                 "er_cli: %s is not a metrics snapshot (expected the JSON \
                  written by --metrics-out)\n"
                 path;
               exit 1)
        metrics_file
    in
    (* per-bug digests *)
    let digests =
      List.map
        (fun (bug, evs) ->
           let its = P.iterations_of_events evs in
           let resumes, saved, skipped, status = fold_control evs in
           let cost = sum (fun it -> it.P.solver_cost) its in
           let calls = sum (fun it -> it.P.solver_calls) its in
           let hits = sum (fun it -> it.P.cache_hits) its in
           let misses = sum (fun it -> it.P.cache_misses) its in
           let wall =
             sumf
               (fun it ->
                  it.P.trace_time +. it.P.symex_time +. it.P.selection_time
                  +. it.P.verify_time)
               its
           in
           ( bug, evs, its, resumes, saved, skipped, status, cost, calls,
             hits, misses, wall ))
        groups
    in
    let med_cost =
      median
        (List.map (fun (_, _, _, _, _, _, _, c, _, _, _, _) -> c) digests)
    in
    let med_occ =
      median
        (List.map
           (fun (_, _, its, _, _, _, _, _, _, _, _, _) -> List.length its)
           digests)
    in
    let outlier cost its =
      (med_cost > 0 && cost > 2 * med_cost)
      || (med_occ > 0 && List.length its > 2 * med_occ)
    in
    let attribution =
      match snap with
      | None -> []
      | Some snap ->
          List.filter_map
            (function
              | Er_metrics.Snapshot.Top { name; help; rows; _ } ->
                  Some (name, help, rows)
              | _ -> None)
            snap.Er_metrics.Snapshot.samples
    in
    if json then begin
      let bug_json
          ( bug, _evs, its, resumes, saved, skipped, status, cost, calls,
            hits, misses, wall ) =
        J.Obj
          [ ("bug", J.Str bug);
            ("status", J.Str (status_string status));
            ("iterations", J.List (List.map P.iteration_to_json its));
            ("stalls", J.List (List.map (fun s -> J.Str s) (stall_causes its)));
            ( "divergences",
              J.List (List.map (fun s -> J.Str s) (divergence_causes its)) );
            ("solver_cost", J.Int cost);
            ("solver_calls", J.Int calls);
            ( "cache",
              J.Obj [ ("hits", J.Int hits); ("misses", J.Int misses) ] );
            ( "checkpoints",
              J.Obj
                [ ("resumes", J.Int resumes); ("saved_instrs", J.Int saved);
                  ("runs_skipped", J.Int skipped) ] );
            ("stage_wall", J.Float wall);
            ("outlier", J.Bool (outlier cost its)) ]
      in
      let attribution_json (name, help, rows) =
        J.Obj
          [ ("name", J.Str name); ("help", J.Str help);
            ( "rows",
              J.List
                (List.map
                   (fun (key, cost, labels) ->
                      J.Obj
                        ([ ("key", J.Str key); ("cost", J.Int cost) ]
                         @
                         match labels with
                         | [] -> []
                         | ls ->
                             [ ( "labels",
                                 J.Obj
                                   (List.map (fun (k, v) -> (k, J.Str v)) ls)
                               ) ]))
                   rows) ) ]
      in
      print_endline
        (J.to_string
           (J.Obj
              [ ("bugs", J.List (List.map bug_json digests));
                ( "medians",
                  J.Obj
                    [ ("solver_cost", J.Int med_cost);
                      ("occurrences", J.Int med_occ) ] );
                ("malformed_lines", J.Int malformed);
                ("attribution", J.List (List.map attribution_json attribution))
              ]))
    end
    else begin
      Printf.printf "report: %d bug(s)%s\n" (List.length digests)
        (if malformed > 0 then
           Printf.sprintf ", %d malformed line(s) skipped" malformed
         else "");
      List.iter
        (fun ( bug, _evs, its, resumes, saved, skipped, status, cost, calls,
               hits, misses, wall ) ->
           Printf.printf "\n%s%s\n"
             (if bug = "(untagged)" then "pipeline" else "bug " ^ bug)
             (if outlier cost its then "   [OUTLIER vs corpus medians]"
              else "");
           Printf.printf "  status: %s\n" (status_string status);
           Printf.printf
             "  %-4s %-9s %9s %9s %9s %9s %7s %10s %7s %5s\n" "occ" "outcome"
             "trace(s)" "symex(s)" "select(s)" "verify(s)" "squery" "cost"
             "cache" "set";
           List.iter
             (fun (it : P.iteration) ->
                Printf.printf
                  "  %-4d %-9s %9.3f %9.3f %9.4f %9.3f %7d %10d %7s %5d\n"
                  it.P.occurrence
                  (match it.P.outcome with
                   | O.Completed -> "complete"
                   | O.Stalled _ -> "stalled"
                   | O.Diverged _ -> "diverged")
                  it.P.trace_time it.P.symex_time it.P.selection_time
                  it.P.verify_time it.P.solver_calls it.P.solver_cost
                  (Printf.sprintf "%d/%d" it.P.cache_hits
                     (it.P.cache_hits + it.P.cache_misses))
                  it.P.recording_set_size)
             its;
           List.iter (Printf.printf "  stall    %s\n") (stall_causes its);
           List.iter (Printf.printf "  diverged %s\n") (divergence_causes its);
           let total = hits + misses in
           if total > 0 then
             Printf.printf
               "  cache: %d/%d hit(s) (%.1f%%), solver cost %d over %d \
                call(s)\n"
               hits total
               (100. *. float_of_int hits /. float_of_int total)
               cost calls;
           if resumes > 0 || skipped > 0 then
             Printf.printf
               "  checkpoints: %d resume(s), %d instr(s) not re-executed, %d \
                run(s) skipped\n"
               resumes saved skipped;
           Printf.printf "  stage wall: %.3fs\n" wall)
        digests;
      Printf.printf "\ncorpus medians: solver cost %d, %d occurrence(s)\n"
        med_cost med_occ;
      (match
         List.filter_map
           (fun (bug, _, its, _, _, _, _, cost, _, _, _, _) ->
              if outlier cost its then
                Some (Printf.sprintf "%s (cost %d, %d occ)" bug cost
                        (List.length its))
              else None)
           digests
       with
       | [] -> ()
       | outliers ->
           Printf.printf "outliers (>2x median): %s\n"
             (String.concat ", " outliers));
      match attribution with
      | [] -> ()
      | tables ->
          Printf.printf "\nhot-spot attribution (from %s):\n"
            (Option.get metrics_file);
          List.iter
            (fun (name, help, rows) ->
               Printf.printf "  %s — %s\n" name help;
               List.iter
                 (fun (key, cost, labels) ->
                    Printf.printf "    %-40s %12d%s\n" key cost
                      (match labels with
                       | [] -> ""
                       | ls ->
                           "  ("
                           ^ String.concat ", "
                               (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
                           ^ ")"))
                 rows)
            tables
    end
  in
  let events_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"The JSON Lines event log to analyze, as written by \
                $(b,reproduce --events) or $(b,fleet --events) (use - for \
                stdin).")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"A metrics snapshot JSON (as written by \
                $(b,fleet --metrics-out)) to join into the report: its \
                top-K attribution tables (hottest SMT queries, hottest \
                lowered blocks, largest checkpoint savings) are appended.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as machine-readable JSON instead of the \
                human rendering.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Explain a persisted run: join an event log and a metrics \
             snapshot into a per-bug, per-stage report")
    Term.(const run $ events_file $ metrics_file $ json)

(* Time travel over one production run of a corpus bug: run the
   resumable engine to the first quantum boundary at or after --clock
   (or to the end) and dump the paused machine — per-thread call stacks
   with registers, plus a memory window. *)
let inspect_cmd =
  let module Vs = Er_vm.Vm_state in
  let run (spec : Er_corpus.Bug.spec) occurrence clock_opt mem_opt =
    let inputs, sched_seed =
      spec.Er_corpus.Bug.failing_workload ~occurrence
    in
    let prog = Er_ir.Prog.of_program spec.Er_corpus.Bug.program in
    let vm =
      Vs.create ~config:{ Er_vm.Interp.default_config with sched_seed } prog
        inputs
    in
    (match Vs.run ?pause_at:clock_opt vm with
     | None -> Printf.printf "paused at clock %d\n" (Vs.clock vm)
     | Some r ->
         Printf.printf "run: %s after %d instructions\n"
           (match r.Vs.outcome with
            | Vs.Finished _ -> "finished"
            | Vs.Failed f -> "FAILED — " ^ Er_vm.Failure.to_string f)
           r.Vs.instr_count);
    List.iter
      (fun (tv : Vs.thread_view) ->
         Printf.printf "thread %d: %s\n" tv.Vs.tv_tid
           (match tv.Vs.tv_status with
            | Vs.Runnable -> "runnable"
            | Vs.Blocked_lock l -> Printf.sprintf "blocked on lock %Ld" l
            | Vs.Waiting_join -> "waiting on join"
            | Vs.Done_t -> "done");
         List.iteri
           (fun i (fv : Vs.frame_view) ->
              Printf.printf "  #%d %s @ %s[%d]\n" i fv.Vs.fv_func
                fv.Vs.fv_block fv.Vs.fv_ip;
              List.iter
                (fun (reg, v) -> Printf.printf "      %-12s = %Ld\n" reg v)
                fv.Vs.fv_regs)
           tv.Vs.tv_frames)
      (Vs.threads vm);
    let mem = Vs.memory vm in
    match mem_opt with
    | None ->
        Printf.printf "memory: %d object(s)\n" (Er_vm.Memory.object_count mem);
        List.iter
          (fun (id, size, ty, freed) ->
             Printf.printf "  obj %d: %d x %s%s\n" id size
               (Er_ir.Types.ty_name ty)
               (if freed then " (freed)" else ""))
          (Er_vm.Memory.objects mem)
    | Some (obj, index, len) ->
        for i = index to index + len - 1 do
          match Er_vm.Memory.peek mem ~obj ~index:i with
          | Some v -> Printf.printf "  obj %d[%d] = %Ld\n" obj i v
          | None -> Printf.printf "  obj %d[%d] = <out of bounds>\n" obj i
        done
  in
  let occurrence =
    Arg.(
      value & opt int 1
      & info [ "occurrence" ] ~docv:"K"
          ~doc:"Inspect the run of the $(docv)-th failure occurrence's \
                workload (default 1).")
  in
  let clock =
    Arg.(
      value
      & opt (some int) None
      & info [ "clock" ] ~docv:"C"
          ~doc:"Stop at the first quantum boundary at or after clock \
                $(docv) (default: run to the end, the failure or exit).")
  in
  let mem_conv =
    Arg.conv
      ( (fun s ->
           match
             String.split_on_char ':' s |> List.map int_of_string_opt
           with
           | [ Some o ] -> Ok (o, 0, 8)
           | [ Some o; Some i ] -> Ok (o, i, 8)
           | [ Some o; Some i; Some l ] -> Ok (o, i, l)
           | _ -> Error (`Msg "expected OBJ[:INDEX[:LEN]]")),
        fun ppf (o, i, l) -> Fmt.pf ppf "%d:%d:%d" o i l )
  in
  let mem =
    Arg.(
      value
      & opt (some mem_conv) None
      & info [ "mem" ] ~docv:"OBJ[:INDEX[:LEN]]"
          ~doc:"Dump $(docv) cells of one memory object at the stopped \
                state (default: list all objects).")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Time-travel one production run: stop it at a clock and dump \
             registers and memory")
    Term.(const run $ spec_arg $ occurrence $ clock $ mem)

let show_cmd =
  let run spec =
    print_string (Er_ir.Pretty.program_to_string spec.Er_corpus.Bug.program)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a bug's EIR program")
    Term.(const run $ spec_arg)

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let parse_cmd =
  let run file =
    match Er_ir.Parser.parse_file file with
    | Ok p ->
        Printf.printf "parsed OK: %d globals, %d functions\n"
          (List.length p.Er_ir.Types.globals)
          (List.length p.Er_ir.Types.funcs)
    | Error e -> Printf.printf "parse error: %s\n" e
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and validate a textual EIR file")
    Term.(const run $ file_arg)

let run_cmd =
  let inputs_arg =
    Arg.(value & opt (some string) None & info [ "inputs" ] ~docv:"STREAM=v1:v2,...")
  in
  let run file inputs_str =
    match Er_ir.Parser.parse_file file with
    | Error e -> Printf.printf "parse error: %s\n" e
    | Ok p ->
        let inputs =
          match inputs_str with
          | None -> Er_vm.Inputs.make []
          | Some s ->
              let streams =
                String.split_on_char ',' s
                |> List.filter_map (fun part ->
                    match String.split_on_char '=' part with
                    | [ name; vals ] ->
                        Some
                          ( name,
                            String.split_on_char ':' vals
                            |> List.filter_map Int64.of_string_opt )
                    | _ -> None)
              in
              Er_vm.Inputs.make streams
        in
        let r = Er_vm.Interp.run (Er_ir.Prog.of_program p) inputs in
        (match r.Er_vm.Interp.outcome with
         | Er_vm.Interp.Finished v ->
             Printf.printf "finished%s after %d instructions\n"
               (match v with Some v -> Printf.sprintf " (ret %Ld)" v | None -> "")
               r.Er_vm.Interp.instr_count
         | Er_vm.Interp.Failed f ->
             Printf.printf "FAILED after %d instructions: %s\n"
               r.Er_vm.Interp.instr_count (Er_vm.Failure.to_string f));
        List.iteri
          (fun i v -> Printf.printf "output[%d] = %Ld\n" i v)
          r.Er_vm.Interp.outputs
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a textual EIR program concretely")
    Term.(const run $ file_arg $ inputs_arg)

(* The multi-tenant reconstruction daemon: corpus bugs served over a
   Unix-domain socket speaking the JSONL wire protocol, jobs multiplexed
   across a worker-domain pool with per-tenant fair queueing and
   bounded-queue backpressure.  The metrics registry is always on while
   serving — queue depth, job outcomes and latency histograms are the
   daemon's operational surface, which a client reads live with a
   metrics frame. *)
let serve_cmd =
  let run socket workers queue_limit cache_dir =
    let workers =
      match workers with
      | Some n -> n
      | None -> max 2 (Domain.recommended_domain_count () / 2)
    in
    Er_metrics.reset Er_metrics.default;
    Er_metrics.set_enabled Er_metrics.default true;
    let server =
      Er_core.Server.start
        ~config:
          { Er_core.Server.socket_path = socket; workers; queue_limit;
            cache_dir }
        ~resolver:Er_corpus.Registry.resolver ()
    in
    Printf.printf "er-serve: listening on %s (%d worker(s), queue %d%s)\n%!"
      socket workers queue_limit
      (match cache_dir with
       | Some d -> Printf.sprintf ", solver cache in %s" d
       | None -> "");
    Er_core.Server.wait server;
    Printf.printf "er-serve: drained, bye\n%!"
  in
  let workers =
    Cli_args.jobs_flag
      ~doc:"Execute jobs on $(docv) worker domains (default: half the \
            recommended domain count, at least 2)."
  in
  let queue_limit =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Reject submits (a 429-style frame) once $(docv) jobs are \
                queued across all tenants.")
  in
  let socket =
    Cli_args.socket_flag
      ~doc:"Listen on Unix-domain socket $(docv) (default er-serve.sock)."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-tenant reconstruction daemon (JSONL over a \
             Unix-domain socket; submit/status/cancel/result frames)")
    Term.(
      const run $ socket $ workers $ queue_limit $ Cli_args.cache_dir_flag)

(* Load generation against a running daemon: the 13-bug corpus replayed
   as N concurrent clients, measuring reconstructions/sec and latency
   percentiles — the numbers the BENCH serve section records. *)
let loadgen_cmd =
  let run socket clients rounds json =
    let bugs =
      List.map
        (fun (s : Er_corpus.Bug.spec) -> s.Er_corpus.Bug.name)
        Er_corpus.Registry.table1
    in
    let r = Er_core.Loadgen.run ~socket ~clients ~rounds ~bugs () in
    if json then
      print_endline (Er_core.Json.to_string (Er_core.Loadgen.to_json_value r))
    else begin
      Printf.printf
        "loadgen: %d client(s) x %d bug(s) x %d round(s): %d result(s) in \
         %.3fs (%.2f rec/s)\n"
        r.Er_core.Loadgen.lg_clients (List.length bugs) rounds
        r.Er_core.Loadgen.lg_jobs r.Er_core.Loadgen.lg_wall
        (Er_core.Loadgen.throughput r);
      Printf.printf "latency: p50 %.1fms, p99 %.1fms\n"
        (1000. *. Er_core.Loadgen.percentile 50. r.Er_core.Loadgen.lg_latencies)
        (1000. *. Er_core.Loadgen.percentile 99. r.Er_core.Loadgen.lg_latencies);
      if r.Er_core.Loadgen.lg_rejected > 0 then
        Printf.printf "backpressure: %d reject(s), all retried\n"
          r.Er_core.Loadgen.lg_rejected;
      if r.Er_core.Loadgen.lg_failed > 0 || r.Er_core.Loadgen.lg_errors > 0
      then
        Printf.printf "FAILURES: %d failed job(s), %d protocol error(s)\n"
          r.Er_core.Loadgen.lg_failed r.Er_core.Loadgen.lg_errors;
      Printf.printf "determinism: %s\n"
        (if Er_core.Loadgen.deterministic r then
           "all clients received identical per-bug results (solver cost \
            may drop on warm repeats)"
         else "VIOLATED — results differ between clients")
    end;
    if
      r.Er_core.Loadgen.lg_failed > 0
      || r.Er_core.Loadgen.lg_errors > 0
      || not (Er_core.Loadgen.deterministic r)
    then exit 1
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "n"; "clients" ] ~docv:"N"
          ~doc:"Run $(docv) concurrent client connections (default 4), one \
                tenant each.")
  in
  let rounds =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Each client submits the corpus $(docv) times (default 1).")
  in
  let socket =
    Cli_args.socket_flag ~doc:"Connect to the daemon at $(docv)."
  in
  let json =
    Cli_args.json_flag
      ~doc:"Emit throughput, latency percentiles and the determinism \
            verdict as machine-readable JSON."
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Replay the bug corpus as N concurrent clients against a \
             running daemon; report reconstructions/sec and p50/p99 \
             latency")
    Term.(const run $ socket $ clients $ rounds $ json)

let () =
  let info =
    Cmd.info "er_cli" ~version:"1.0"
      ~doc:"Execution Reconstruction (PLDI 2021) — OCaml reproduction"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; reproduce_cmd; fleet_cmd; report_cmd; inspect_cmd;
            show_cmd; parse_cmd; run_cmd; serve_cmd; loadgen_cmd ]))
