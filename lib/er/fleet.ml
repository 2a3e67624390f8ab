(* Domain-parallel fleet execution.

   ER's iterate-until-reproduced loop is embarrassingly parallel across
   failures: each corpus bug reconstructs independently.  This module is
   the batch face of the job API: it submits the {!Job.t} handles its
   caller created — each carrying its own request (budgets and
   [cache_dir] in one {!Job.Config.t}) and event sink — to a
   {!Scheduler} pool, awaits them in submission order and renders a
   wall-clock and process-CPU report.  Per-job crash isolation (an
   exception in one bug's reconstruction becomes a [Crashed] row, not a
   fleet abort) lives in {!Job.execute}.

   Determinism contract: [run ~jobs:8] produces the same per-bug
   iteration counts, solver costs and recorded-value sets as
   [run ~jobs:1].  Three mechanisms carry it:

     - every job body runs inside {!Er_smt.Expr.in_fresh_space} (see
       {!Job.execute}), so the interning order each bug observes — and
       the id-order-dependent solver trajectory downstream — is
       independent of what other domains intern concurrently;
     - each solver session owns its result cache ({!Er_smt.Solver}), so
       a bug's cache hits depend only on its own query sequence, never
       on which bugs happened to run before it;
     - handle completion is published by the job's own mutex/condvar
       (a happens-before edge on [await]), and rows are reported in
       submission order regardless of completion order.

   Only timing fields ([row_wall], [wall], [cpu]) and the executing
   worker index vary between runs; [report_to_json_value ~normalize:true]
   strips exactly those, which is what the CI fleet-determinism gate
   diffs. *)

type row = {
  row_name : string;
  row_outcome : Job.outcome;
  row_worker : int;  (* index of the worker that executed the job *)
  row_wall : float;  (* wall-clock seconds the job took *)
}

type report = {
  rows : row list;  (* submission order, not completion order *)
  jobs : int;       (* workers actually used *)
  wall : float;     (* fleet wall clock, spawn to last join *)
  cpu : float;      (* process user + system seconds across [run] *)
}

(* [Unix.times] covers every domain of the process. *)
let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------------------------------------------------------------- *)
(* Batch execution over the scheduler                                 *)
(* ---------------------------------------------------------------- *)

let run ?jobs (handles : Job.t list) : report =
  let requested =
    match jobs with Some n -> n | None -> Domain.recommended_domain_count ()
  in
  let nworkers = max 1 (min requested (List.length handles)) in
  let t0 = Unix.gettimeofday () and c0 = process_cpu () in
  let sched = Scheduler.create ~workers:nworkers () in
  List.iter
    (fun h ->
       (* the queue bound is a service concern; a batch run submits a
          known, finite corpus, so a refusal here is a programming
          error, not backpressure *)
       match Scheduler.submit sched h with
       | Ok () -> ()
       | Error _ -> invalid_arg "Fleet.run: scheduler refused a job")
    handles;
  let rows =
    List.map
      (fun h ->
         let row_outcome = Job.await h in
         {
           row_name = Job.name h;
           row_outcome;
           row_worker = (match Job.worker h with Some w -> w | None -> 0);
           row_wall = Job.wall h;
         })
      handles
  in
  Scheduler.shutdown sched;
  let wall = Unix.gettimeofday () -. t0 in
  { rows; jobs = nworkers; wall; cpu = process_cpu () -. c0 }

(* ---------------------------------------------------------------- *)
(* JSON rendering                                                    *)
(* ---------------------------------------------------------------- *)

(* Wall-clock fields inside a pipeline result; everything else in the
   result JSON is deterministic across [jobs] settings. *)
let time_fields =
  [ "total_symex_time"; "trace_time"; "symex_time"; "selection_time";
    "verify_time" ]

let rec normalize_json (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
              if List.mem k time_fields then (k, Json.Float 0.)
              else (k, normalize_json v))
           fields)
  | Json.List l -> Json.List (List.map normalize_json l)
  | j -> j

let row_to_json ~normalize (r : row) : Json.t =
  let open Json in
  let timing =
    if normalize then []
    else [ ("worker", Int r.row_worker); ("wall", Float r.row_wall) ]
  in
  let result res =
    let res_json = Pipeline.result_to_json_value res in
    ("result", if normalize then normalize_json res_json else res_json)
  in
  let fields =
    match r.row_outcome with
    | Job.Finished res -> [ ("outcome", Str "finished"); result res ]
    | Job.Crashed { exn; backtrace } ->
        ("outcome", Str "crashed") :: ("exn", Str exn)
        :: (if normalize then [] else [ ("backtrace", Str backtrace) ])
    | Job.Cancelled partial ->
        ("outcome", Str "cancelled")
        :: Option.to_list (Option.map result partial)
  in
  Obj ((("bug", Str r.row_name) :: fields) @ timing)

(* [~normalize:true] is the determinism view: per-bug content only, no
   wall clocks, no worker placement, no job count.  Two reports from the
   same corpus at different [-j] must render byte-identically. *)
let report_to_json_value ?(normalize = false) (r : report) : Json.t =
  let open Json in
  let rows = List (List.map (row_to_json ~normalize) r.rows) in
  if normalize then Obj [ ("rows", rows) ]
  else
    Obj
      [ ("jobs", Int r.jobs); ("wall", Float r.wall); ("cpu", Float r.cpu);
        ("rows", rows) ]

let report_to_json ?normalize r =
  Json.to_string (report_to_json_value ?normalize r)
