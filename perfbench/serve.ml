(* serve: the shipped daemon, fed by a separate load generator.

   [er_cli serve] runs in its own process with one worker per core.
   This process is the generator: it talks to the daemon over one
   connection per core (one tenant each).  The bug of each request is
   drawn from Table 1 in seeded blocks (every block of 13 holds each bug
   once), and exactly half of each bug's requests are warm: they name a
   cache dir whose solver journal set-up wrote, so the daemon replays it
   (Persist reads).  The other half name a fresh cache dir of their
   own, so the daemon solves cold and writes a new journal (Persist
   writes).  The split is fixed by the seed through per-request
   [cache_dir] overrides, never by timing.

   A run has three parts:
   - saturation: a closed loop keeping one request per worker in
     flight, so every worker is always busy and no request queues.  The
     gated figures come from here: at saturation the daemon's latency
     and throughput hold within a few percent from run to run on a
     shared 2-core host, while open-loop latency at a fixed rate is
     bimodal across runs (geometric mean 23-127 ms at 4.6 req/s),
     because a request's time depends on which others it overlaps and
     how the host schedules the daemon's domains then;
   - main step: an open-loop seeded Poisson schedule at a fixed rate
     below capacity, every request timed from its due time;
   - ramp: open-loop steps at higher fixed rates; each step starts once
     the previous one drained. *)

open Er_corpus
open Common
module Wire = Er_core.Wire
module J = Er_json

let daemon_exe = "_build/default/bin/er_cli.exe"
let workers = Domain.recommended_domain_count ()
let connections = workers

(* Arrival rates (requests/s).  The main rate keeps the daemon about a
   quarter busy on a 2-core machine (a request costs it about 90 ms of
   CPU at this mix), where a request rarely queues behind a cold
   php-2012-2386 job (about 0.55 s); higher rates make the tail a
   measure of arrival clumping rather than of the system.  The ramp
   climbs towards half the capacity. *)
let main_rate = 4.6
let ramp = [ 6.5; 9.0 ]

(* Sizes the saturation phase: about this many completions per second
   on a 2-core host at this commit. *)
let capacity_guess = 18.0

(* The latency limit a step's tail must meet for its rate to count as
   sustained (also stated in BENCHMARK.json's serve workload). *)
let limit_s = 2.5

(* The tail percentile of the saturation phase and of the latency
   limit: fixed so that it does not move with the sample count (the
   saturation phase has at least 104 requests, so ten lie beyond it). *)
let tail_pct = 90.

type request = {
  rid : string;
  bug : string;
  warm : bool;
  mutable due : float;  (** offset from the step start, seconds *)
  conn : int;
  mutable sent : float;
  mutable acked : float;
  mutable received : float;
  mutable exec : float;
  mutable payload : J.t option;
  mutable refused : bool;
  mutable failed : string option;
}

(* -- the daemon ---------------------------------------------------- *)

(* Daemons still running; killed and reaped at exit if the run ends
   without shutting them down (an exception, a failed check). *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* This run's scratch directory: per process, so that two runs in one
   checkout never share a socket path. *)
let dir = Printf.sprintf "_perfbench/serve-%d" (Unix.getpid ())

(* A daemon that sends nothing for this long while requests are
   outstanding has stalled: the run stops (exit 1, the daemon killed at
   exit) rather than wait on it. *)
let stall_s = 30.

let stalled () = failwith (Printf.sprintf "the daemon sent nothing for %.0f s" stall_s)

type daemon = {
  pid : int;
  socket : string;
  err_path : string;
  warm_dir : string;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let spawn k =
  if not (Sys.file_exists daemon_exe) then failwith (daemon_exe ^ " is not built");
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let socket = Printf.sprintf "%s/d%d.sock" dir k in
  (try Sys.remove socket with Sys_error _ -> ());
  let out_path = Printf.sprintf "%s/d%d.out" dir k
  and err_path = Printf.sprintf "%s/d%d.err" dir k in
  let out = Unix.openfile out_path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  and err = Unix.openfile err_path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  and null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* v=0x400: the runtime prints its GC totals when the daemon exits *)
  let env = Array.append [| "OCAMLRUNPARAM=v=0x400" |] (Unix.environment ()) in
  let pid =
    Unix.create_process_env daemon_exe
      [| daemon_exe; "serve"; "--socket"; socket; "-j"; string_of_int workers |]
      env null out err
  in
  List.iter Unix.close [ out; err; null ];
  live := pid :: !live;
  let t0 = Stats.now () in
  let rec wait () =
    match connect socket with
    | Some fd -> Unix.close fd
    | None ->
        if Stats.now () -. t0 > 30. then failwith "daemon socket never came up";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  let warm_dir = Printf.sprintf "%s/warm%d" dir k in
  rm_rf warm_dir;
  { pid; socket; err_path; warm_dir }

(* -- connections and the event loop -------------------------------- *)

type conn = { fd : Unix.file_descr; mutable inbuf : string }

let send_frame c frame =
  let s = Wire.client_to_line frame in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

let open_conns d =
  Array.init connections (fun _ ->
      match connect d.socket with
      | Some fd -> { fd; inbuf = "" }
      | None -> failwith "cannot connect to the daemon")

let close_conns conns = Array.iter (fun c -> Unix.close c.fd) conns

(* Read what the daemon sent on [c] and pass each complete frame to
   [handle]. *)
let read_frames c buf handle =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
      let lines, tail = Wire.split_lines (c.inbuf ^ Bytes.sub_string buf 0 n) in
      c.inbuf <- tail;
      List.iter (fun l -> Option.iter handle (Wire.server_of_line l)) lines

let unresolved r = r.received = 0. && r.failed = None && not r.refused

let submit_frame r ~cache_dir =
  Wire.Submit
    { id = r.rid; tenant = Printf.sprintf "t%d" r.conn; bug = r.bug;
      config = Some (J.Obj [ ("cache_dir", J.Str cache_dir) ]) }

(* Run one step and collect every frame until all requests are
   resolved; returns the step's start.  Open loop (no [window]): each
   request is sent at [start + due].  Closed loop ([window = w]): a
   request is sent as soon as fewer than [w] are in flight, and is due
   when sent. *)
let run_step ?window conns (reqs : request array) ~cache_dir =
  let by_id = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace by_id r.rid r) reqs;
  let n = Array.length reqs in
  let pending = ref n and next = ref 0 and in_flight = ref 0 in
  let start = Stats.now () +. 0.01 in
  let resolve r =
    if unresolved r then begin
      decr pending;
      decr in_flight
    end
  in
  let due_now () =
    !next < n
    &&
    match window with
    | None -> start +. reqs.(!next).due <= Stats.now ()
    | Some w -> !in_flight < w && Stats.now () >= start
  in
  let handle frame =
    let now = Stats.now () in
    let find id = Hashtbl.find_opt by_id id in
    match frame with
    | Wire.Accepted { id } -> Option.iter (fun r -> r.acked <- now) (find id)
    | Wire.Rejected { id; _ } ->
        Option.iter (fun r -> resolve r; r.refused <- true) (find id)
    | Wire.Job_result { id; result; wall; _ } ->
        Option.iter
          (fun r -> resolve r; r.received <- now; r.exec <- wall; r.payload <- Some result)
          (find id)
    | Wire.Job_failed { id; exn } ->
        Option.iter (fun r -> resolve r; r.failed <- Some exn) (find id)
    | Wire.Job_cancelled { id; _ } ->
        Option.iter (fun r -> resolve r; r.failed <- Some "cancelled") (find id)
    | Wire.Error { id = Some id; reason } ->
        Option.iter (fun r -> resolve r; r.failed <- Some reason) (find id)
    | _ -> ()
  in
  let buf = Bytes.create 65536 in
  let last_heard = ref (Stats.now ()) in
  while !pending > 0 && Stats.now () -. !last_heard < stall_s do
    while due_now () do
      let r = reqs.(!next) in
      r.sent <- Stats.now ();
      if window <> None then r.due <- r.sent -. start;
      send_frame conns.(r.conn) (submit_frame r ~cache_dir:(cache_dir r));
      incr in_flight;
      incr next
    done;
    let timeout =
      if !next < n && window = None then
        Float.max 0. (start +. reqs.(!next).due -. Stats.now ())
      else 0.5
    in
    let ready, _, _ =
      try Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if ready <> [] || (window = None && !next < n) then last_heard := Stats.now ();
    List.iter
      (fun fd -> read_frames (List.find (fun c -> c.fd = fd) (Array.to_list conns)) buf handle)
      ready
  done;
  if !pending > 0 then stalled ();
  start

(* Ask the daemon for its Prometheus exposition on a side connection. *)
let metrics d =
  match connect d.socket with
  | None -> ""
  | Some fd ->
      let c = { fd; inbuf = "" } and buf = Bytes.create 65536 and dump = ref None in
      send_frame c Wire.Metrics;
      let t0 = Stats.now () in
      while !dump = None do
        if Stats.now () -. t0 > stall_s then stalled ();
        match Unix.select [ fd ] [] [] 1. with
        | [], _, _ -> ()
        | _ ->
            read_frames c buf (function
              | Wire.Metrics_dump { prometheus } -> dump := Some prometheus
              | _ -> ())
      done;
      Unix.close fd;
      Option.get !dump

(* Sum of a Prometheus family's samples, labels ignored. *)
let prom_sum text name =
  List.fold_left
    (fun acc line ->
       let n = String.length name in
       if String.length line > n && String.sub line 0 n = name
          && (line.[n] = ' ' || line.[n] = '{')
       then
         match String.rindex_opt line ' ' with
         | Some i -> (
             try acc +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
             with Failure _ -> acc)
         | None -> acc
       else acc)
    0. (String.split_on_char '\n' text)

(* Ask the daemon to drain and exit; kill it if it has not exited
   within 10 s (nothing is outstanding by then). *)
let shutdown d =
  (match connect d.socket with
   | Some fd ->
       let c = { fd; inbuf = "" } in
       (try send_frame c Wire.Shutdown with Unix.Unix_error _ -> ());
       Unix.close fd
   | None -> Unix.kill d.pid Sys.sigterm);
  let t0 = Stats.now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Stats.now () -. t0 < 10. ->
        Unix.sleepf 0.02;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (( <> ) d.pid) !live

(* The GC totals the runtime printed at the daemon's exit. *)
let gc_report d =
  let text = try read_file d.err_path with Sys_error _ -> "" in
  let field name =
    List.find_map
      (fun line ->
         match String.split_on_char ':' line with
         | [ k; v ] when String.trim k = name -> float_of_string_opt (String.trim v)
         | _ -> None)
      (String.split_on_char '\n' text)
  in
  (field "minor_collections", field "major_collections", field "promoted_words")

(* -- schedule ------------------------------------------------------- *)

let bugs = Array.of_list (List.map (fun (s : Bug.spec) -> s.Bug.name) Registry.table1)

(* [n] requests at [rate]: bugs in seeded blocks of every Table 1 bug,
   half of each bug's requests warm, Poisson arrivals rescaled so the
   first and last fall exactly (n-1)/rate apart. *)
let schedule st ~step ~n ~rate =
  let nb = Array.length bugs in
  let draw =
    Array.concat
      (List.init ((n + nb - 1) / nb) (fun _ -> Array.of_list (shuffle st (Array.to_list bugs))))
  in
  let draw = Array.sub draw 0 n in
  let warm = Array.make n false in
  Array.iter
    (fun b ->
       let idx = List.filter (fun i -> draw.(i) = b) (List.init n Fun.id) in
       let idx = shuffle st idx in
       List.iteri (fun k i -> if k < (List.length idx + 1) / 2 then warm.(i) <- true) idx)
    bugs;
  let gaps = Array.init n (fun i -> if i = 0 then 0. else -.log (1. -. Random.State.float st 1.)) in
  let times = Array.make n 0. in
  for i = 1 to n - 1 do
    times.(i) <- times.(i - 1) +. gaps.(i)
  done;
  let scale = if n > 1 then float_of_int (n - 1) /. rate /. times.(n - 1) else 0. in
  Array.init n (fun i ->
      { rid = Printf.sprintf "s%d-%d" step i; bug = draw.(i); warm = warm.(i);
        due = times.(i) *. scale; conn = i mod connections; sent = 0.; acked = 0.;
        received = 0.; exec = 0.; payload = None; refused = false; failed = None })

(* -- payload checks ------------------------------------------------- *)

(* The fields a warm replay may legitimately change
   ([Loadgen.deterministic]'s masking). *)
let masked = [ "solver_cost"; "cache_hits"; "cache_misses" ]

let rec mask = function
  | J.Obj kvs ->
      J.Obj (List.map (fun (k, v) -> if List.mem k masked then (k, J.Int 0) else (k, mask v)) kvs)
  | J.List xs -> J.List (List.map mask xs)
  | j -> j

let payload_int p key = match J.member key p with Some (J.Int i) -> i | _ -> 0

let solver_cost p =
  match J.member "iterations" p with
  | Some (J.List its) ->
      List.fold_left (fun a it -> a + payload_int it "solver_cost") 0 its
  | _ -> 0

let batch_payloads () =
  List.map
    (fun (s : Bug.spec) ->
       let job =
         Er_core.Job.create
           { Er_core.Job.tenant = "batch";
             work =
               Er_core.Job.Reconstruct
                 { Er_core.Job.src_name = s.Bug.name; src_prog = s.Bug.program;
                   src_workload = s.Bug.failing_workload };
             config = Er_core.Job.Config.of_pipeline s.Bug.config }
       in
       Er_core.Job.execute job;
       match Er_core.Job.poll job with
       | Some (Er_core.Job.Finished r) ->
           let p = Er_core.Fleet.normalize_json (Er_core.Pipeline.result_to_json_value r) in
           (s.Bug.name, (J.to_string (mask p), solver_cost p))
       | _ -> (s.Bug.name, ("batch job failed", 0)))
    Registry.table1

let payload_ok p =
  match J.member "status" p with
  | Some st ->
      J.member "kind" st = Some (J.Str "reproduced")
      && (match J.member "verified" st with
          | Some v -> J.member "ok" v = Some (J.Bool true)
          | None -> false)
  | None -> false

(* -- one set-up ------------------------------------------------------ *)

(* Spawn the daemon and write every bug's journal into its warm dir:
   the journal pre-population is also the pass that warms the daemon's
   caches. *)
let setup k =
  let d = spawn k in
  let conns = open_conns d in
  let reqs =
    Array.mapi
      (fun i bug ->
         { rid = Printf.sprintf "w%d-%d" k i; bug; warm = true; due = 0.;
           conn = i mod connections; sent = 0.; acked = 0.; received = 0.; exec = 0.;
           payload = None; refused = false; failed = None })
      bugs
  in
  ignore (run_step conns reqs ~cache_dir:(fun _ -> d.warm_dir));
  close_conns conns;
  Array.iter
    (fun r ->
       check (r.failed = None && not r.refused)
         "set-up request %s (%s) failed" r.rid r.bug)
    reqs;
  d

(* -- the run --------------------------------------------------------- *)

type step_result = { rate : float; reqs : request array; start : float; wall : float }

let resolved r = r.payload <> None && r.failed = None && not r.refused

let times s r =
  Stats.request_times ~due:(s.start +. r.due) ~sent:r.sent ~acked:r.acked
    ~received:r.received ~exec:r.exec

(* Latency from the due time; a failed, refused or lost request counts
   as over any limit. *)
let latencies s =
  List.map
    (fun r -> if resolved r then (times s r).Stats.latency else infinity)
    (Array.to_list s.reqs)

let step_ok s =
  let l = latencies s in
  (* no growing backlog: the last request due is answered within the
     limit too *)
  let last = s.reqs.(Array.length s.reqs - 1) in
  Stats.percentile tail_pct l <= limit_s
  && resolved last && (times s last).Stats.latency <= limit_s

(* Offered rate as actually sent: the generator's send times, first to
   last. *)
let offered s =
  let n = Array.length s.reqs in
  float_of_int (n - 1) /. (s.reqs.(n - 1).sent -. s.reqs.(0).sent)

(* Requests of a step: whole blocks of 13, at least [min_blocks]. *)
let step_size ~min_blocks ~seconds ~rate =
  let nb = Array.length bugs in
  nb * max min_blocks (int_of_float (Float.round (seconds *. rate /. float_of_int nb)))

let request_spans s =
  Array.iteri
    (fun i r ->
       if resolved r then begin
         let due = s.start +. r.due in
         let tid = i + 2 in
         let parent =
           Spans.add ~job:r.rid ~tid "request" ~start:due ~stop:r.received
         in
         let child name a b =
           ignore (Spans.add ~parent ~job:r.rid ~tid name ~start:a ~stop:b)
         in
         child "loadgen.lag" due r.sent;
         child "server.ack" r.sent r.acked;
         child "sched.wait" r.acked (r.received -. r.exec);
         child "sched.exec" (r.received -. r.exec) r.received
       end)
    s.reqs

let run ~seed ~seconds ~traced : report =
  (* each set-up starts its own daemon; the first two are stopped *)
  let k = ref 0 in
  let d, setup_s =
    setup_three ~discard:shutdown (fun () ->
        incr k;
        setup !k)
  in
  let st = rng seed 5 in
  let cold_dir = Filename.concat dir "cold" in
  Sys.mkdir cold_dir 0o755;
  let cache_dir r = if r.warm then d.warm_dir else Filename.concat cold_dir r.rid in
  let conns = open_conns d in
  let step ?window ~id ~n ~rate () =
    let reqs = schedule st ~step:id ~n ~rate in
    let start = run_step ?window conns reqs ~cache_dir in
    let last = Array.fold_left (fun a r -> Float.max a r.received) start reqs in
    { rate; reqs; start; wall = last -. start }
  in
  let saturate ~id ~n = step ~window:workers ~id ~n ~rate:capacity_guess () in
  let sat_n share = step_size ~min_blocks:8 ~seconds:(share *. seconds) ~rate:capacity_guess in
  let main_n = step_size ~min_blocks:4 ~seconds:(0.4 *. seconds) ~rate:main_rate in
  reset_peak_rss (string_of_int d.pid);
  let cpu0 = proc_cpu_s d.pid in
  let plain, sat, main, ramp_steps, traced_cpu, m0, m1 =
    if not traced then begin
      let sat = saturate ~id:0 ~n:(sat_n 0.4) in
      let main = step ~id:1 ~n:main_n ~rate:main_rate () in
      let ramp_steps =
        List.mapi
          (fun i rate ->
             step ~id:(i + 2)
               ~n:(step_size ~min_blocks:2 ~seconds:(0.1 *. seconds) ~rate)
               ~rate ())
          ramp
      in
      (None, sat, main, ramp_steps, 0., "", "")
    end
    else begin
      let plain = saturate ~id:0 ~n:(sat_n 0.15) in
      let m0 = metrics d and c0 = proc_cpu_s d.pid in
      Spans.reset ();
      Spans.recording := true;
      let sat = saturate ~id:1 ~n:(sat_n 0.15) in
      let c1 = proc_cpu_s d.pid in
      let main = step ~id:2 ~n:main_n ~rate:main_rate () in
      request_spans sat;
      request_spans main;
      Spans.recording := false;
      (Some plain, sat, main, [], c1 -. c0, m0, metrics d)
    end
  in
  let cpu1 = proc_cpu_s d.pid in
  let rss = peak_rss_mb (string_of_int d.pid) in
  close_conns conns;
  shutdown d;
  let steps =
    (match plain with Some p -> [ p ] | None -> []) @ (sat :: main :: ramp_steps)
  in
  let all = List.concat_map (fun s -> Array.to_list s.reqs) steps in
  (* output checks: every payload a verified reproduction, equal to the
     batch payload of its bug once the warm-sensitive fields are masked *)
  let batch = batch_payloads () in
  List.iter
    (fun r ->
       match (r.payload, r.failed) with
       | _, Some why -> check false "%s (%s) failed: %s" r.rid r.bug why
       | _ when r.refused -> check false "%s (%s) was refused" r.rid r.bug
       | None, None -> check false "%s (%s): no result" r.rid r.bug
       | Some p, None ->
           check (payload_ok p) "%s (%s): payload is not a verified reproduction" r.rid
             r.bug;
           check
             (J.to_string (mask p) = fst (List.assoc r.bug batch))
             "%s (%s, %s): payload differs from the batch payload" r.rid r.bug
             (if r.warm then "warm" else "cold"))
    all;
  let sat_lat = latencies sat and main_lat = latencies main in
  let sat_tail = Stats.tail ~pct:tail_pct sat_lat and main_tail = Stats.tail main_lat in
  let sustained =
    List.fold_left
      (fun best s -> if step_ok s then Float.max best (offered s) else best)
      0. (main :: ramp_steps)
  in
  let done_ = List.filter resolved all in
  let n_ok = float_of_int (List.length done_) in
  let occ =
    List.fold_left (fun a r -> a + payload_int (Option.get r.payload) "occurrences") 0 done_
  in
  let cpu = cpu1 -. cpu0 in
  let throughput s = float_of_int (Array.length s.reqs) /. s.wall in
  Printf.printf "serve: %d workers, %d connections; latency limit %.1f s on p%g\n" workers
    connections limit_s tail_pct;
  Printf.printf "  saturation (%d in flight): %d requests, %.3f/s, gmean %.1f ms, p%g %.1f ms\n"
    workers (Array.length sat.reqs) (throughput sat)
    (1000. *. Stats.geomean sat_lat) tail_pct (1000. *. sat_tail.Stats.value);
  List.iter
    (fun s ->
       let l = latencies s in
       Printf.printf
         "  open loop %5.2f req/s (sent at %.3f/s): %3d requests, p50 %7.1f ms, p%g %7.1f ms, %s\n"
         s.rate (offered s) (Array.length s.reqs) (1000. *. Stats.median l) tail_pct
         (1000. *. Stats.percentile tail_pct l)
         (if step_ok s then "within limit" else "over limit"))
    (main :: ramp_steps);
  Printf.printf "  %-22s %9s %9s %9s %9s %9s\n" "bug" "warm ms" "cold ms" "warm cost"
    "cold cost" "batch";
  Array.iter
    (fun b ->
       let rs = List.filter (fun r -> r.bug = b && resolved r) all in
       let med warm = Stats.median (List.filter_map (fun r -> if r.warm = warm then Some (1000. *. r.exec) else None) rs) in
       let cost warm =
         match List.find_opt (fun r -> r.warm = warm) rs with
         | Some r -> solver_cost (Option.get r.payload)
         | None -> 0
       in
       Printf.printf "  %-22s %9.1f %9.1f %9d %9d %9d\n" b (med true) (med false)
         (cost true) (cost false) (snd (List.assoc b batch)))
    bugs;
  let named =
    [ ("latency_p50_ms", fmt_value (1000. *. Stats.median main_lat), "ms (open loop)");
      ("latency_tail_ms", fmt_value (1000. *. main_tail.Stats.value),
       "ms (open loop, " ^ Stats.tail_label main_tail ^ ")");
      ("sustained_rps", fmt_value sustained, "1/s");
      ("occurrences_per_repro", fmt_value (float_of_int occ /. n_ok), "count");
      ("cpu_s_per_repro", fmt_value (cpu /. n_ok), "s") ]
  in
  let gated =
    gated ~setup_s ~peak_rss_mb:rss
      ~op_gmean_ms:(1000. *. Stats.geomean sat_lat)
      ~op_tail_ms:(1000. *. sat_tail.Stats.value)
      ~ops_per_s:(throughput sat)
      ~cpu_ms_per_op:(1000. *. cpu /. n_ok)
  in
  let layers =
    match plain with
    | None -> []
    | Some plain ->
        let rs = List.filter resolved (Array.to_list main.reqs) in
        let ms f = List.map (fun r -> 1000. *. f r) rs in
        let p50 xs = Stats.median xs and p90 xs = Stats.percentile tail_pct xs in
        let t r = times main r in
        let ack = ms (fun r -> (t r).Stats.ack)
        and exec = ms (fun r -> r.exec)
        and wait = ms (fun r -> (t r).Stats.wait)
        and lag = ms (fun r -> (t r).Stats.lag) in
        let dm name = prom_sum m1 name -. prom_sum m0 name in
        let replays = dm "er_smt_warm_replays_total" in
        let solves = dm "er_smt_session_cache_misses_total" in
        let traced_reqs = Array.to_list sat.reqs @ rs in
        let warm = List.filter (fun r -> r.warm) traced_reqs
        and cold = List.filter (fun r -> not r.warm) traced_reqs in
        let journal_bytes =
          List.fold_left
            (fun a r ->
               let dir = Filename.concat cold_dir r.rid in
               a
               + (try
                    Array.fold_left
                      (fun a f -> a + (Unix.stat (Filename.concat dir f)).Unix.st_size)
                      0 (Sys.readdir dir)
                  with Sys_error _ | Unix.Unix_error _ -> 0))
            0 cold
        in
        let fallbacks =
          List.length
            (List.filter
               (fun r ->
                  let cold_cost = snd (List.assoc r.bug batch) in
                  r.payload <> None && cold_cost > 0
                  && solver_cost (Option.get r.payload) = cold_cost)
               warm)
        in
        let minor, major, promoted = gc_report d in
        let daemon_jobs = float_of_int (Array.length bugs + List.length all) in
        let per_job = function Some v -> v /. daemon_jobs | None -> nan in
        let blocks = float_of_int (List.length traced_reqs) /. float_of_int (Array.length bugs) in
        let sum_payload f =
          float_of_int
            (List.fold_left
               (fun a r -> match r.payload with Some p -> a + f p | None -> a)
               0 traced_reqs)
        in
        let ck k p = match J.member "checkpoints" p with Some c -> payload_int c k | None -> 0 in
        let self = Spans.by_layer !Spans.spans in
        let span_total = Stats.sum (List.map snd self) in
        Printf.printf "  self time per layer, traced requests (summed over requests):\n";
        List.iter
          (fun (name, t) ->
             Printf.printf "    %-12s %9.4f s %6.1f%%\n" name t (100. *. t /. span_total))
          self;
        [ m "server.ack_p50_ms" "ms" (p50 ack); m "server.ack_tail_ms" "ms" (p90 ack);
          m "server.refused" "count"
            (float_of_int (List.length (List.filter (fun r -> r.refused) all)));
          m "sched.exec_p50_ms" "ms" (p50 exec); m "sched.exec_tail_ms" "ms" (p90 exec);
          m "sched.wait_p50_ms" "ms" (p50 wait); m "sched.wait_tail_ms" "ms" (p90 wait);
          m "sched.worker_busy_share" "ratio"
            (Stats.sum (List.map (fun r -> r.exec) (Array.to_list sat.reqs))
             /. (float_of_int workers *. sat.wall));
          m "sched.cpu_per_wall" "ratio" (traced_cpu /. sat.wall);
          m "gc.minor_per_repro" "count" (per_job minor);
          m "gc.major_per_repro" "count" (per_job major);
          m "gc.promoted_mb" "MB"
            (per_job (Option.map (fun w -> w *. 8. /. 1048576.) promoted));
          m "loadgen.lag_ms" "ms" (p90 lag);
          m "persist.replay_share" "ratio"
            (if replays +. solves > 0. then replays /. (replays +. solves) else 0.);
          m "persist.saved_cost" "count"
            (dm "er_smt_warm_saved_cost_total" /. float_of_int (max 1 (List.length warm)));
          m "persist.journal_bytes" "B"
            (float_of_int journal_bytes /. float_of_int (max 1 (List.length cold)));
          m "persist.cold_fallbacks" "count" (float_of_int fallbacks);
          m "pipeline.occurrences" "count"
            (sum_payload (fun p -> payload_int p "occurrences") /. blocks);
          m "pipeline.runs" "count" (sum_payload (fun p -> payload_int p "runs") /. blocks);
          m "tracer.checkpoints" "count" (sum_payload (ck "taken") /. blocks);
          m "tracer.resumes" "count" (sum_payload (ck "resumes") /. blocks);
          m "tracer.saved_instrs" "count" (sum_payload (ck "saved_instrs") /. blocks);
          m "tracer.executed_instrs" "count" (sum_payload (ck "executed_instrs") /. blocks);
          m "bench.tracing_overhead_pct" "%"
            (100. *. (Stats.geomean (latencies sat) /. Stats.geomean (latencies plain) -. 1.)) ]
  in
  rm_rf dir;
  { attempted = List.length all; failed = !Common.fail_count; gated; named; layers }
