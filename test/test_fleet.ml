(* Tests for domain-parallel fleet execution (Er_core.Fleet) and the
   domain-safety work underneath it: the determinism contract between
   -j settings, per-bug crash isolation, each job's own event stream
   (persistent-store events included), and exact solver result-cache
   accounting when one shared cache is hammered from several domains. *)

module Fleet = Er_core.Fleet
module Job = Er_core.Job
module Pipeline = Er_core.Pipeline
module Events = Er_core.Events
module Json = Er_core.Json
module Bug = Er_corpus.Bug
module Registry = Er_corpus.Registry

(* A cheap corpus subset so the suite stays fast; names must exist. *)
let subset_names =
  [ "bash-108885"; "libpng-2004-0597"; "pbzip2"; "python-2018-1000030" ]

let subset () =
  List.map
    (fun n ->
       match Registry.find n with
       | Some s -> s
       | None -> Alcotest.failf "corpus bug %s disappeared" n)
    subset_names

let job_of_spec ?events ?cache_dir (s : Bug.spec) =
  Job.create ?events (Bug.request ?cache_dir s)

(* --- determinism: -j 1 and -j 4 agree byte for byte ----------------- *)

let test_determinism () =
  let norm jobs =
    let report = Fleet.run ~jobs (List.map job_of_spec (subset ())) in
    (* rows come back in submission order regardless of completion order *)
    Alcotest.(check (list string))
      "row order is submission order" subset_names
      (List.map (fun r -> r.Fleet.row_name) report.Fleet.rows);
    Fleet.report_to_json ~normalize:true report
  in
  let j1 = norm 1 and j4 = norm 4 in
  Alcotest.(check string) "normalized -j1 = -j4" j1 j4

(* --- crash isolation ------------------------------------------------ *)

(* A synthetic corpus bug whose workload raises while the pipeline is
   driving it: the fleet must report a structured [Crashed] row
   for it and still complete every other bug.  Every job also writes
   into one shared job-tagged JSONL log (the same shape [er_cli fleet
   --events] produces, line-serialized under one mutex), and the log
   must come out complete and parseable despite the mid-run crash. *)
let test_crash_isolation () =
  let log = Buffer.create 4096 in
  let log_mutex = Mutex.create () in
  let tagged_sink name : Events.sink =
    fun e ->
      let line =
        match Events.to_json_value e with
        | Json.Obj fields ->
            Json.to_string (Json.Obj (("job", Json.Str name) :: fields))
        | j -> Json.to_string j
      in
      Mutex.lock log_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock log_mutex)
        (fun () ->
           Buffer.add_string log line;
           Buffer.add_char log '\n')
  in
  let good =
    List.map
      (fun s -> job_of_spec ~events:(tagged_sink s.Bug.name) s)
      (subset ())
  in
  let sick = Registry.running_example in
  let crashing =
    Job.create ~events:(tagged_sink "synthetic-crasher")
      { (Bug.request sick) with
        Job.work =
          Job.Reconstruct
            { (Bug.source sick) with
              Job.src_name = "synthetic-crasher";
              src_workload =
                (fun ~occurrence:_ ->
                   failwith "synthetic mid-reconstruction fault") } }
  in
  (* crasher in the middle, so healthy jobs surround it in every deque *)
  let jobs =
    match good with a :: rest -> a :: crashing :: rest | [] -> [ crashing ]
  in
  let report = Fleet.run ~jobs:4 jobs in
  let crashed, finished =
    List.partition
      (fun r ->
         match r.Fleet.row_outcome with
         | Job.Crashed _ -> true
         | Job.Finished _ | Job.Cancelled _ -> false)
      report.Fleet.rows
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match crashed with
   | [ { Fleet.row_name = "synthetic-crasher"; row_outcome; _ } ] -> (
       match row_outcome with
       | Job.Crashed { exn; _ } ->
           Alcotest.(check bool) "exception text preserved" true
             (contains ~sub:"synthetic" exn)
       | Job.Finished _ | Job.Cancelled _ -> assert false)
   | rows ->
       Alcotest.failf "expected exactly the synthetic crash, got %d crashes"
         (List.length rows));
  Alcotest.(check int) "every other bug completed" (List.length good)
    (List.length finished);
  List.iter
    (fun r ->
       match r.Fleet.row_outcome with
       | Job.Finished res -> (
           match res.Pipeline.status with
           | Pipeline.Reproduced _ -> ()
           | Pipeline.Gave_up _ ->
               Alcotest.failf "%s should reproduce" r.Fleet.row_name)
       | Job.Crashed _ | Job.Cancelled _ -> assert false)
    finished;
  (* The event log survived the crash intact: every line parses back
     through [Events.of_json] with its job tag, every finished bug
     closed its stream with [Pipeline_finished], and the crasher got
     far enough to log something but never a finish marker. *)
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents log))
  in
  let parsed =
    List.map
      (fun line ->
         let job =
           match Json.parse line with
           | Some j -> (
               match Option.bind (Json.member "job" j) Json.to_str with
               | Some name -> name
               | None -> Alcotest.failf "event line missing job tag: %s" line)
           | None -> Alcotest.failf "event line is not JSON: %s" line
         in
         match Events.of_json line with
         | Some e -> (job, e)
         | None -> Alcotest.failf "event line does not round-trip: %s" line)
      lines
  in
  let is_finish = function Events.Pipeline_finished _ -> true | _ -> false in
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (r.Fleet.row_name ^ " logged pipeline_finished")
         true
         (List.exists
            (fun (job, e) -> job = r.Fleet.row_name && is_finish e)
            parsed))
    finished;
  let crasher_events =
    List.filter (fun (job, _) -> job = "synthetic-crasher") parsed
  in
  Alcotest.(check bool) "crasher emitted events before dying" true
    (crasher_events <> []);
  Alcotest.(check bool) "crasher never logged pipeline_finished" true
    (List.for_all (fun (_, e) -> not (is_finish e)) crasher_events)

(* --- each job's stream carries its persistent-store events ---------- *)

(* Two fleet passes over one cache directory, each job with its own
   buffer sink: the first pass finds no store and writes one, the second
   warm-starts from it and replays it without writing.  The store
   events are emitted by the job around its pipeline run, so they reach
   the sink only when the job itself owns it. *)
let test_cache_events_per_job () =
  let specs =
    List.filter
      (fun s -> List.mem s.Bug.name [ "bash-108885"; "pbzip2" ])
      (subset ())
  in
  let dir = Test_persist.fresh_dir () in
  let pass () =
    let streams = List.map (fun s -> (s, ref [])) specs in
    let report =
      Fleet.run ~jobs:2
        (List.map
           (fun (s, log) ->
              job_of_spec ~cache_dir:dir ~events:(fun e -> log := e :: !log) s)
           streams)
    in
    List.iter
      (fun r ->
         match r.Fleet.row_outcome with
         | Job.Finished _ -> ()
         | Job.Crashed { exn; _ } ->
             Alcotest.failf "%s crashed: %s" r.Fleet.row_name exn
         | Job.Cancelled _ -> Alcotest.failf "%s cancelled" r.Fleet.row_name)
      report.Fleet.rows;
    List.map
      (fun (s, log) ->
         ( s.Bug.name,
           List.filter_map
             (function
               | Events.Cache_status { state; _ } -> Some state | _ -> None)
             (List.rev !log) ))
      streams
  in
  let check label expected streams =
    List.iter
      (fun (name, states) ->
         Alcotest.(check (list string))
           (Printf.sprintf "%s, %s pass" name label)
           expected states)
      streams
  in
  check "first" [ "cold"; "flushed" ] (pass ());
  check "second" [ "warm"; "replayed" ] (pass ())

(* --- concurrent sessions in one shared interning space -------------- *)

(* Four domains share one interning space (hence its intern mutex) and
   fire sessions at it concurrently.  Exact accounting must survive:
   every nontrivial check is exactly one cache hit or one cache miss,
   both per session and in the atomic registry counters. *)
let concurrent_cache_prop picks =
  let sp = Er_smt.Expr.create_space () in
  let pool =
    Er_smt.Expr.with_space sp (fun () ->
        let x = Er_smt.Expr.bv_var "cc_x" ~width:16 in
        Array.init 8 (fun i ->
            Er_smt.Expr.eq
              (Er_smt.Expr.urem x
                 (Er_smt.Expr.const ~width:16 (Int64.of_int (i + 2))))
              (Er_smt.Expr.const ~width:16 1L)))
  in
  let workloads = Array.make 4 [] in
  List.iteri
    (fun i pick -> workloads.(i mod 4) <- pick :: workloads.(i mod 4))
    picks;
  let registry = Er_metrics.default in
  Er_metrics.reset registry;
  Er_metrics.set_enabled registry true;
  let stats =
    Fun.protect
      ~finally:(fun () -> Er_metrics.set_enabled registry false)
      (fun () ->
        let hammer w () =
          Er_smt.Expr.with_space sp (fun () ->
              let s = Er_smt.Solver.Session.create () in
              List.iter
                (fun pick ->
                   Er_smt.Solver.Session.push s pool.(pick);
                   ignore (Er_smt.Solver.Session.check s);
                   Er_smt.Solver.Session.pop s)
                w;
              Er_smt.Solver.Session.cache_stats s)
        in
        let domains =
          Array.map (fun w -> Domain.spawn (hammer w)) workloads
        in
        Array.to_list (Array.map Domain.join domains))
  in
  let queries = List.length picks in
  let hits =
    List.fold_left
      (fun a s -> a + s.Er_smt.Solver.Session.cache_hits)
      0 stats
  and misses =
    List.fold_left
      (fun a s -> a + s.Er_smt.Solver.Session.cache_misses)
      0 stats
  in
  let session_exact =
    List.for_all2
      (fun s w ->
         s.Er_smt.Solver.Session.cache_hits
         + s.Er_smt.Solver.Session.cache_misses
         = List.length w)
      stats (Array.to_list workloads)
  in
  (* the registry counters saw the same traffic, with no torn updates *)
  let snap = Er_metrics.snapshot ~registry () in
  let m_hits =
    Er_metrics.Snapshot.counter_total snap "er_smt_session_cache_hits_total"
  and m_misses =
    Er_metrics.Snapshot.counter_total snap "er_smt_session_cache_misses_total"
  in
  session_exact && hits + misses = queries
  && m_hits = hits && m_misses = misses

(* --- stage times are the job's own wall clock ------------------------ *)

(* Two jobs at a time, so every stage runs while another domain works:
   a stage clock that counted the whole process's CPU would charge each
   job for its neighbour's work, and its stages would outlast the job. *)
let test_stage_times_within_wall () =
  let names =
    [ "php-2012-2386"; "libpng-2004-0597"; "memcached-2019-11596";
      "python-2018-1000030" ]
  in
  let report =
    Fleet.run ~jobs:2
      (List.map
         (fun n ->
            match Registry.find n with
            | Some s -> job_of_spec s
            | None -> Alcotest.failf "corpus bug %s disappeared" n)
         names)
  in
  List.iter
    (fun (row : Fleet.row) ->
       match row.Fleet.row_outcome with
       | Job.Finished r ->
           let stages =
             List.fold_left
               (fun a (it : Pipeline.iteration) ->
                  a +. it.Pipeline.trace_time +. it.Pipeline.symex_time
                  +. it.Pipeline.selection_time +. it.Pipeline.verify_time)
               0. r.Pipeline.iterations
           in
           if stages > row.Fleet.row_wall then
             Alcotest.failf "%s: stages sum to %.4fs, the job took %.4fs"
               row.Fleet.row_name stages row.Fleet.row_wall
       | _ -> Alcotest.failf "%s did not finish" row.Fleet.row_name)
    report.Fleet.rows

let test_concurrent_cache =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15
       ~name:"4 domains, one shared space: hits+misses = queries"
       QCheck.(list_of_size Gen.(int_range 4 40) (int_range 0 7))
       concurrent_cache_prop)

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "-j1 and -j4 normalized reports identical" `Slow
          test_determinism;
        Alcotest.test_case "worker crash isolates to its row" `Slow
          test_crash_isolation;
        test_concurrent_cache;
        Alcotest.test_case "each job's stream logs its store events" `Slow
          test_cache_events_per_job;
        Alcotest.test_case "stage times fit in the job's wall time" `Slow
          test_stage_times_within_wall;
      ] );
  ]
