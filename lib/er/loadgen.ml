(* Load generation against an er-serve daemon.

   Replays a list of bug names as [clients] concurrent connections —
   one domain and one tenant per client — with pipelined submits, and
   measures what the service contract promises: reconstructions per
   second, per-job latency (submit to result receipt, including any
   backpressure delay), and determinism (every client must receive the
   byte-identical normalized result for the same bug).

   Shared by [er_cli loadgen] and the serve daemon test, so the verdict
   CI checks is the verdict the CLI reports. *)

type job_result = {
  jr_bug : string;
  jr_payload : string;       (* normalized result JSON, as a string *)
  jr_latency : float;        (* submit -> result receipt, seconds *)
}

type client_stats = {
  cs_results : job_result list;
  cs_failed : int;           (* Job_failed frames *)
  cs_cancelled : int;
  cs_rejected : int;         (* Rejected frames (job was retried) *)
  cs_errors : int;           (* protocol Error frames *)
}

type result = {
  lg_clients : int;
  lg_jobs : int;             (* results received across all clients *)
  lg_failed : int;
  lg_rejected : int;         (* total reject-then-retry events *)
  lg_errors : int;
  lg_wall : float;
  lg_latencies : float list; (* one per received result *)
  lg_results : (string * string) list;  (* (bug, payload) for every job *)
}

(* One client connection: submit [bugs] x [rounds] pipelined, then read
   frames until every job has resolved.  A [Rejected] frame (the
   daemon's 429 backpressure) triggers a resubmit after a short backoff;
   latency is measured from the *first* submit, so backpressure shows up
   in the tail percentiles, as it does for a real client. *)
let run_client ~socket ~tenant ~rounds ~bugs () : client_stats =
  let cl = Server.Client.connect socket in
  let submits = Hashtbl.create 64 in    (* id -> (bug, first submit time) *)
  let submit id bug =
    if not (Hashtbl.mem submits id) then
      Hashtbl.replace submits id (bug, Unix.gettimeofday ());
    Server.Client.send cl
      (Wire.Submit { id; tenant; bug; config = None })
  in
  List.iteri
    (fun r () ->
       List.iteri
         (fun i bug -> submit (Printf.sprintf "%s-r%d-j%d" tenant r i) bug)
         bugs)
    (List.init rounds (fun _ -> ()));
  let expected = rounds * List.length bugs in
  let stats =
    ref { cs_results = []; cs_failed = 0; cs_cancelled = 0; cs_rejected = 0;
          cs_errors = 0 }
  in
  let resolved = ref 0 in
  while !resolved < expected do
    match Server.Client.recv cl with
    | None -> resolved := expected  (* daemon went away; count what we have *)
    | Some frame -> (
        match frame with
        | Wire.Accepted _ -> ()
        | Wire.Rejected { id; _ } -> (
            stats := { !stats with cs_rejected = !stats.cs_rejected + 1 };
            match Hashtbl.find_opt submits id with
            | Some (bug, _) ->
                (* brief backoff, then try again under the same id *)
                Unix.sleepf 0.02;
                Server.Client.send cl
                  (Wire.Submit { id; tenant; bug; config = None })
            | None -> incr resolved)
        | Wire.Job_result { id; bug; result; _ } ->
            let latency =
              match Hashtbl.find_opt submits id with
              | Some (_, t0) -> Unix.gettimeofday () -. t0
              | None -> 0.
            in
            stats :=
              { !stats with
                cs_results =
                  { jr_bug = bug; jr_payload = Json.to_string result;
                    jr_latency = latency }
                  :: !stats.cs_results };
            incr resolved
        | Wire.Job_failed _ ->
            stats := { !stats with cs_failed = !stats.cs_failed + 1 };
            incr resolved
        | Wire.Job_cancelled _ ->
            stats := { !stats with cs_cancelled = !stats.cs_cancelled + 1 };
            incr resolved
        | Wire.Error _ ->
            stats := { !stats with cs_errors = !stats.cs_errors + 1 };
            incr resolved
        | Wire.Job_status _ | Wire.Metrics_dump _ -> ()
        | Wire.Shutting_down -> resolved := expected)
  done;
  Server.Client.close cl;
  !stats

let run ~socket ~clients ?(rounds = 1) ~bugs () : result =
  let clients = max 1 clients in
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            run_client ~socket
              ~tenant:(Printf.sprintf "tenant-%d" c)
              ~rounds ~bugs ()))
  in
  let per_client = List.map Domain.join domains in
  let wall = Unix.gettimeofday () -. t0 in
  let all_results = List.concat_map (fun s -> s.cs_results) per_client in
  {
    lg_clients = clients;
    lg_jobs = List.length all_results;
    lg_failed = List.fold_left (fun a s -> a + s.cs_failed) 0 per_client;
    lg_rejected = List.fold_left (fun a s -> a + s.cs_rejected) 0 per_client;
    lg_errors =
      List.fold_left
        (fun a s -> a + s.cs_errors + s.cs_cancelled)
        0 per_client;
    lg_wall = wall;
    lg_latencies = List.map (fun r -> r.jr_latency) all_results;
    lg_results = List.map (fun r -> (r.jr_bug, r.jr_payload)) all_results;
  }

let throughput r =
  if r.lg_wall > 0. then float_of_int r.lg_jobs /. r.lg_wall else 0.

(* Nearest-rank percentile over the observed latencies. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank =
        int_of_float (ceil (p /. 100. *. float_of_int n)) - 1
      in
      a.(max 0 (min (n - 1) rank))

(* Every client must have received the trajectory-identical payload for
   the same bug — the concurrency half of the determinism contract.
   When the daemon runs with a cache directory, a later submit of the
   same bug legitimately replays the persistent answer journal and
   reports lower solver cost, so the three fields persistence is
   allowed to change are masked before comparing; everything else must
   be byte-identical. *)
let persistence_fields = [ "solver_cost"; "cache_hits"; "cache_misses" ]

let trajectory_key payload =
  match Json.parse payload with
  | None -> payload
  | Some doc ->
      let rec mask = function
        | Json.Obj kvs ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                    if List.mem k persistence_fields then (k, Json.Int 0)
                    else (k, mask v))
                 kvs)
        | Json.List xs -> Json.List (List.map mask xs)
        | j -> j
      in
      Json.to_string (mask doc)

let deterministic r =
  let tbl = Hashtbl.create 16 in
  List.for_all
    (fun (bug, payload) ->
       let key = trajectory_key payload in
       match Hashtbl.find_opt tbl bug with
       | None ->
           Hashtbl.replace tbl bug key;
           true
       | Some p -> String.equal p key)
    r.lg_results

let to_json_value (r : result) : Json.t =
  let open Json in
  Obj
    [ ("clients", Int r.lg_clients);
      ("jobs", Int r.lg_jobs);
      ("failed", Int r.lg_failed);
      ("rejected", Int r.lg_rejected);
      ("errors", Int r.lg_errors);
      ("wall", Float r.lg_wall);
      ("throughput_rps", Float (throughput r));
      ("p50_ms", Float (1000. *. percentile 50. r.lg_latencies));
      ("p99_ms", Float (1000. *. percentile 99. r.lg_latencies));
      ("deterministic", Bool (deterministic r)) ]
