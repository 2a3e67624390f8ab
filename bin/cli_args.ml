(* Flag parsing and run plumbing shared across er_cli subcommands.

   [reproduce], [fleet], [serve] and [loadgen] all need the same spec
   lookup, events-sink wiring, metrics-registry toggling and flight-
   recorder drain; this module is the single copy.  Anything with a
   per-command doc string stays in er_cli.ml — only genuinely shared
   behavior lives here. *)

open Cmdliner

(* -- corpus lookup ------------------------------------------------- *)

let find_spec name =
  match Er_corpus.Registry.find_any name with
  | Some s -> Ok s
  | None ->
      Error
        (`Msg (Printf.sprintf "unknown bug %s (try: er_cli list)" name))

let bug_conv =
  Arg.conv
    ( (fun s -> find_spec s),
      fun ppf (s : Er_corpus.Bug.spec) -> Fmt.string ppf s.Er_corpus.Bug.name )

let spec_arg =
  Arg.(required & pos 0 (some bug_conv) None & info [] ~docv:"BUG")

(* -- events sinks -------------------------------------------------- *)

(* Run with a JSONL events sink on FILE ("-" for stdout). *)
let with_events_sink events_file f =
  match events_file with
  | None -> f Er_core.Events.null
  | Some "-" ->
      let r = f (Er_core.Events.jsonl stdout) in
      flush stdout;
      r
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Printf.eprintf "er_cli: cannot open events file: %s\n" msg;
          exit 1
      in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> f (Er_core.Events.jsonl oc))

(* Channel variant for callers that write the JSONL lines themselves
   (fleet tags each line with the emitting bug's name). *)
let with_events_channel events_file f =
  match events_file with
  | None -> f None
  | Some "-" ->
      let r = f (Some stdout) in
      flush stdout;
      r
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Printf.eprintf "er_cli: cannot open events file: %s\n" msg;
          exit 1
      in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (Some oc))

(* A fleet JSONL log is shared by every bug, so each line is tagged
   with a ["job"] field naming the bug that emitted it — that's what
   lets [er_cli report] split the log back into per-bug streams.
   [Events.of_json] ignores unknown fields, so tagged lines still
   round-trip as plain events.  One mutex serializes all workers'
   writes; each line is flushed as soon as it is written so a worker
   crash cannot lose the buffered tail of the log. *)
let tagged_jsonl_sink mutex oc job_name : Er_core.Events.sink =
  let module J = Er_core.Json in
  fun e ->
    let line =
      match Er_core.Events.to_json_value e with
      | J.Obj fields -> J.to_string (J.Obj (("job", J.Str job_name) :: fields))
      | j -> J.to_string j
    in
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
         output_string oc (line ^ "\n");
         flush oc)

(* -- job invocation ------------------------------------------------- *)

(* [reproduce] runs its bug as a job on the calling domain: a fresh
   interning space, the persistent solver store bound when the config
   names a cache directory, and the job's [bug:<name>] metrics span. *)
let run_job ?cache_dir (spec : Er_corpus.Bug.spec) events =
  let h =
    Er_core.Job.create ~events (Er_corpus.Bug.request ?cache_dir spec)
  in
  Er_core.Job.execute h;
  match Er_core.Job.await h with
  | Er_core.Job.Finished r | Er_core.Job.Cancelled (Some r) -> r
  | Er_core.Job.Crashed { exn; backtrace } ->
      Printf.eprintf "er_cli: reconstruction crashed: %s\n%s\n" exn backtrace;
      exit 1
  | Er_core.Job.Cancelled None -> assert false

(* -- shared flags -------------------------------------------------- *)

let metrics_formats =
  [ ("table", `Table); ("json", `Json); ("prometheus", `Prometheus) ]

let metrics_fmt : [ `Table | `Json | `Prometheus ] Arg.conv =
  Arg.enum metrics_formats

(* The file of [fleet --metrics-out FILE].  cmdliner completes an
   unambiguous option prefix, so [fleet --metrics prometheus] (the
   [reproduce] spelling) arrives here: a format name is refused rather
   than taken for a file to write the JSON snapshot into. *)
let metrics_file : string Arg.conv =
  Arg.conv
    ( (fun s ->
        if List.mem_assoc s metrics_formats then
          Error
            (`Msg
               (Printf.sprintf
                  "%s names a metrics format, not a file: --metrics-out FILE \
                   writes the JSON snapshot to FILE (- means stdout)"
                  s))
        else Ok s),
      Fmt.string )

(* Flight recorder plumbing shared by [reproduce --trace-out] and
   [fleet --trace-out]: the recorder keeps timestamped begin/end span
   records (per-domain rings) on top of the aggregate cells; after the
   run they drain as Chrome trace-event JSON — loadable in Perfetto or
   chrome://tracing, one track per worker domain, pipeline stages nested
   within each track. *)
let trace_out_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Arm the span flight recorder and write the run's timeline as \
              Chrome trace-event JSON (Perfetto-loadable) to $(docv) (use \
              - for stdout): one track per worker domain, pipeline stages \
              nested per track.")

(* Persistent solver knowledge, shared by [reproduce], [fleet] and
   [serve]: point repeated runs of the same job at one directory and
   each run replays the previous run's solver answers instead of
   re-searching.  Warm starts change cost only, never trajectories. *)
let cache_dir_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Persist solver knowledge (the journal of the job's solver \
              answers) under $(docv) and warm-start from it on the next \
              run of the same job.  Stores are versioned, fingerprinted \
              against the job config and checksummed; any mismatch falls \
              back to a cold start.")

let socket_flag ~doc =
  Arg.(
    value
    & opt string "er-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let json_flag ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let jobs_flag ~doc =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* -- metrics registry plumbing ------------------------------------- *)

(* The default registry is off unless a command asks for it, so
   instrumented hot paths cost one branch. *)
let with_metrics ?(recorder = false) enabled f =
  if not enabled then f ()
  else begin
    Er_metrics.reset Er_metrics.default;
    Er_metrics.set_enabled Er_metrics.default true;
    if recorder then Er_metrics.set_recorder true;
    Fun.protect
      ~finally:(fun () ->
        Er_metrics.set_enabled Er_metrics.default false;
        if recorder then Er_metrics.set_recorder false)
      f
  end

let write_trace_out path =
  let s = Er_metrics.trace_json () in
  let dropped = Er_metrics.recorder_dropped () in
  if dropped > 0 then
    Printf.eprintf
      "er_cli: flight recorder ring wrapped, %d oldest span(s) dropped\n"
      dropped;
  match path with
  | "-" ->
      print_string s;
      print_newline ()
  | path -> (
      match open_out path with
      | oc ->
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
               output_string oc s;
               output_char oc '\n')
      | exception Sys_error msg ->
          Printf.eprintf "er_cli: cannot open trace file: %s\n" msg;
          exit 1)

let render_metrics fmt oc =
  let snap = Er_metrics.snapshot () in
  match fmt with
  | `Table -> output_string oc (Er_metrics.Snapshot.to_table snap)
  | `Json ->
      output_string oc (Er_metrics.Snapshot.to_json snap);
      output_char oc '\n'
  | `Prometheus -> output_string oc (Er_metrics.Snapshot.to_prometheus snap)
