(* The er-serve daemon: a JSONL-over-socket front end to the scheduler.

   Architecture is a single select loop owning all sockets, with the
   {!Scheduler} pool doing the actual reconstructions on worker domains:

     - a Unix-domain listener accepts client connections speaking the
       {!Wire} protocol, one frame per line;
     - worker domains never touch a socket: job completion lands in a
       mutex-protected queue plus one byte down a self-pipe, and the
       loop — the only writer to any fd — wakes and pushes the result
       frame to whichever connection submitted the job;
     - a [Metrics] frame answers with the live {!Er_metrics} registry in
       Prometheus text, so a client can watch queue depth and job
       outcomes while reconstructions run.

   The bug-name resolver is injected: [er_core] sits below the corpus
   in the library graph, so the daemon maps submit frames to programs
   through a [string -> (Job.source * Job.Config.t) option] provided by
   the binary.  The resolved config is the per-bug default; a submit
   frame's ["config"] field overrides individual knobs on top of it
   ({!Job.Config.of_json_value} with [~base]).

   Determinism contract: the result payload of a [Job_result] frame is
   [Fleet.normalize_json] of the pipeline result — byte-identical to
   what a batch [er_cli fleet --json] run renders for the same bug,
   which is what the serve-vs-batch differential test pins. *)

type resolver = string -> (Job.source * Job.Config.t) option

type config = {
  socket_path : string;
  workers : int;
  queue_limit : int;
  cache_dir : string option;
      (* daemon-wide persistent solver store; a job keeps its own
         cache_dir if its submit frame set one *)
}

let default_config =
  { socket_path = "er-serve.sock"; workers = 2; queue_limit = 64;
    cache_dir = None }

(* -- per-connection state ------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;                    (* unterminated tail *)
  jobs : (string, Job.t) Hashtbl.t;          (* client id -> handle *)
  mutable closed : bool;
}

type t = {
  cfg : config;
  resolver : resolver;
  sched : Scheduler.t;
  listener : Unix.file_descr;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  done_mutex : Mutex.t;
  mutable done_queue : Job.t list;           (* completed, not yet reported *)
  mutable stop_requested : bool;             (* set by Shutdown/stop *)
  mutable loop_domain : unit Domain.t option;
}

(* -- small IO helpers ---------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
  in
  try go 0 with Unix.Unix_error _ -> ()  (* peer went away; reaped on read *)

let send conn frame = write_all conn.fd (Wire.server_to_line frame)

(* -- submit path --------------------------------------------------- *)

let normalized_result r = Fleet.normalize_json (Pipeline.result_to_json_value r)

let handle_submit t conn ~by_job ~id ~tenant ~bug ~config_override =
  if t.stop_requested then
    send conn (Wire.Rejected { id; code = 503; reason = "daemon is draining" })
  else
    match t.resolver bug with
    | None ->
        send conn (Wire.Error { id = Some id; reason = "unknown bug: " ^ bug })
    | Some (source, base_config) -> (
        let config =
          match config_override with
          | None -> Ok base_config
          | Some j -> Job.Config.of_json_value ~base:base_config j
        in
        match config with
        | Error why ->
            send conn
              (Wire.Error
                 { id = Some id; reason = "bad config override: " ^ why })
        | Ok config ->
            (* daemon-wide warm-start default, overridable per submit *)
            let config =
              match (config.Job.Config.cache_dir, t.cfg.cache_dir) with
              | None, Some _ ->
                  { config with Job.Config.cache_dir = t.cfg.cache_dir }
              | _ -> config
            in
            let job =
              Job.create
                { Job.tenant; work = Job.Reconstruct source; config }
            in
            (match Scheduler.submit t.sched job with
            | Ok () ->
                Hashtbl.replace conn.jobs id job;
                Hashtbl.replace by_job (Job.id job) (conn, id, bug, tenant);
                send conn (Wire.Accepted { id })
            | Error `Queue_full ->
                send conn
                  (Wire.Rejected { id; code = 429; reason = "queue full" })
            | Error `Stopping ->
                send conn
                  (Wire.Rejected
                     { id; code = 503; reason = "daemon is draining" })))

let handle_frame t conn ~by_job line =
  match Wire.client_of_line line with
  | None ->
      send conn (Wire.Error { id = None; reason = "malformed frame" })
  | Some (Wire.Submit { id; tenant; bug; config }) ->
      handle_submit t conn ~by_job ~id ~tenant ~bug ~config_override:config
  | Some (Wire.Status { id }) -> (
      match Hashtbl.find_opt conn.jobs id with
      | None -> send conn (Wire.Error { id = Some id; reason = "unknown id" })
      | Some job ->
          send conn
            (Wire.Job_status
               { id; state = Job.status_to_string (Job.status job) }))
  | Some (Wire.Cancel { id }) -> (
      match Hashtbl.find_opt conn.jobs id with
      | None -> send conn (Wire.Error { id = Some id; reason = "unknown id" })
      | Some job ->
          ignore (Job.cancel job);
          send conn
            (Wire.Job_status
               { id; state = Job.status_to_string (Job.status job) }))
  | Some Wire.Metrics ->
      let text =
        Er_metrics.Snapshot.to_prometheus (Er_metrics.snapshot ())
      in
      send conn (Wire.Metrics_dump { prometheus = text })
  | Some Wire.Shutdown ->
      send conn Wire.Shutting_down;
      t.stop_requested <- true

(* -- completion path ----------------------------------------------- *)

(* Runs on a worker domain: just queue and wake the loop. *)
let on_done t job =
  Mutex.lock t.done_mutex;
  t.done_queue <- job :: t.done_queue;
  Mutex.unlock t.done_mutex;
  ignore (try Unix.write_substring t.pipe_w "!" 0 1 with Unix.Unix_error _ -> 0)

let drain_completions t ~by_job =
  Mutex.lock t.done_mutex;
  let jobs = List.rev t.done_queue in
  t.done_queue <- [];
  Mutex.unlock t.done_mutex;
  List.iter
    (fun job ->
       match Hashtbl.find_opt by_job (Job.id job) with
       | None -> ()  (* connection gone; nobody to tell *)
       | Some (conn, id, bug, tenant) ->
           Hashtbl.remove by_job (Job.id job);
           if not conn.closed then (
             match Job.poll job with
             | Some (Job.Finished r) ->
                 send conn
                   (Wire.Job_result
                      { id; bug; tenant; result = normalized_result r;
                        wall = Job.wall job })
             | Some (Job.Crashed { exn; _ }) ->
                 send conn (Wire.Job_failed { id; exn })
             | Some (Job.Cancelled partial) ->
                 send conn
                   (Wire.Job_cancelled
                      { id; partial = Option.map normalized_result partial })
             | None -> assert false (* on_done fires after completion *)))
    jobs

let outstanding ~by_job = Hashtbl.length by_job

(* -- the loop ------------------------------------------------------ *)

let close_conn conns conn =
  conn.closed <- true;
  Hashtbl.remove conns conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let loop t =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let by_job : (int, conn * string * string * string) Hashtbl.t =
    Hashtbl.create 64
  in
  let running = ref true in
  while !running do
    let fds =
      t.listener :: t.pipe_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    let readable, _, _ =
      try Unix.select fds [] [] (-1.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
         if fd = t.listener then (
           match Unix.accept t.listener with
           | cfd, _ ->
               Hashtbl.replace conns cfd
                 { fd = cfd; inbuf = ""; jobs = Hashtbl.create 8;
                   closed = false }
           | exception Unix.Unix_error _ -> ())
         else if fd = t.pipe_r then (
           let buf = Bytes.create 64 in
           (try ignore (Unix.read t.pipe_r buf 0 64)
            with Unix.Unix_error _ -> ());
           drain_completions t ~by_job)
         else
           match Hashtbl.find_opt conns fd with
           | None -> ()
           | Some conn -> (
               let buf = Bytes.create 65536 in
               match Unix.read fd buf 0 65536 with
               | 0 -> close_conn conns conn
               | n ->
                   let lines, tail =
                     Wire.split_lines
                       (conn.inbuf ^ Bytes.sub_string buf 0 n)
                   in
                   conn.inbuf <- tail;
                   List.iter
                     (fun line ->
                        if String.trim line <> "" then
                          handle_frame t conn ~by_job line)
                     lines
               | exception Unix.Unix_error _ -> close_conn conns conn))
      readable;
    (* drain even when woken by client traffic: a completion byte can
       ride the same select round as the submit that caused it *)
    drain_completions t ~by_job;
    if t.stop_requested && outstanding ~by_job = 0 then running := false
  done;
  drain_completions t ~by_job;
  Hashtbl.iter (fun _ c -> send c Wire.Shutting_down) conns;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    conns

(* -- lifecycle ----------------------------------------------------- *)

let start ?(config = default_config) ~resolver () : t =
  (* a client may close between select rounds; without this a write to
     its dead socket raises SIGPIPE and kills the process instead of
     returning the EPIPE that [write_all] already absorbs *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  Unix.bind listener (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listener 64;
  let pipe_r, pipe_w = Unix.pipe () in
  let rec t =
    lazy
      {
        cfg = config;
        resolver;
        sched =
          Scheduler.create ~queue_limit:config.queue_limit
            ~on_done:(fun job -> on_done (Lazy.force t) job)
            ~workers:config.workers ();
        listener;
        pipe_r;
        pipe_w;
        done_mutex = Mutex.create ();
        done_queue = [];
        stop_requested = false;
        loop_domain = None;
      }
  in
  let t = Lazy.force t in
  t.loop_domain <- Some (Domain.spawn (fun () -> loop t));
  t

let stop t =
  t.stop_requested <- true;
  ignore (try Unix.write_substring t.pipe_w "!" 0 1 with Unix.Unix_error _ -> 0)

let wait t =
  (match t.loop_domain with Some d -> Domain.join d | None -> ());
  t.loop_domain <- None;
  Scheduler.shutdown t.sched;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.listener; t.pipe_r; t.pipe_w ];
  try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ()

(* -- client -------------------------------------------------------- *)

(* A small blocking client for the protocol: what [er_cli loadgen] and
   the tests speak.  One connection, pipelined sends, frame-at-a-time
   receive. *)
module Client = struct
  type t = {
    fd : Unix.file_descr;
    mutable inbuf : string;
    mutable pending : Wire.server_frame list;  (* decoded, undelivered *)
  }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; inbuf = ""; pending = [] }

  let send t frame = write_all t.fd (Wire.client_to_line frame)

  (* Next frame, blocking.  [None] on EOF; a malformed line from the
     server is a protocol bug, surfaced as [None] too. *)
  let rec recv t : Wire.server_frame option =
    match t.pending with
    | f :: rest ->
        t.pending <- rest;
        Some f
    | [] -> (
        let buf = Bytes.create 65536 in
        match Unix.read t.fd buf 0 65536 with
        | 0 -> None
        | n ->
            let lines, tail =
              Wire.split_lines (t.inbuf ^ Bytes.sub_string buf 0 n)
            in
            t.inbuf <- tail;
            t.pending <-
              List.filter_map Wire.server_of_line
                (List.filter (fun l -> String.trim l <> "") lines);
            recv t
        | exception Unix.Unix_error _ -> None)

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
