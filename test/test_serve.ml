(* Tests for the job-centric service stack: the wire protocol's strict
   codec, Job.Config JSON round-tripping, the scheduler's per-tenant
   fairness and bounded-queue backpressure, cooperative mid-iteration
   cancellation, and the serve-vs-batch determinism contract over a real
   socket. *)

module Job = Er_core.Job
module Scheduler = Er_core.Scheduler
module Server = Er_core.Server
module Loadgen = Er_core.Loadgen
module Wire = Er_core.Wire
module Pipeline = Er_core.Pipeline
module Fleet = Er_core.Fleet
module Json = Er_core.Json
module Bug = Er_corpus.Bug
module Registry = Er_corpus.Registry

(* --- wire protocol: encode/decode round-trip ------------------------ *)

let client_frames : Wire.client_frame list =
  [
    Wire.Submit { id = "t-1"; tenant = "alice"; bug = "pbzip2"; config = None };
    Wire.Submit
      {
        id = "t-2";
        tenant = "bob";
        bug = "php-74194";
        config = Some (Json.Obj [ ("solver_budget", Json.Int 5000) ]);
      };
    Wire.Status { id = "t-1" };
    Wire.Cancel { id = "t-2" };
    Wire.Metrics;
    Wire.Shutdown;
  ]

let server_frames : Wire.server_frame list =
  [
    Wire.Accepted { id = "t-1" };
    Wire.Rejected { id = "t-1"; code = 429; reason = "queue full" };
    Wire.Job_status { id = "t-1"; state = "running" };
    Wire.Job_result
      {
        id = "t-1";
        bug = "pbzip2";
        tenant = "alice";
        result = Json.Obj [ ("reproduced", Json.Bool true) ];
        wall = 1.25;
      };
    Wire.Job_failed { id = "t-2"; exn = "Failure(\"boom\")" };
    Wire.Job_cancelled { id = "t-3"; partial = None };
    Wire.Job_cancelled
      { id = "t-4"; partial = Some (Json.Obj [ ("occurrences", Json.Int 2) ]) };
    Wire.Metrics_dump { prometheus = "# HELP x\nx 1\n" };
    Wire.Error { id = Some "t-9"; reason = "unknown bug: nope" };
    Wire.Error { id = None; reason = "malformed frame" };
    Wire.Shutting_down;
  ]

let test_wire_roundtrip () =
  List.iter
    (fun f ->
       match Wire.client_of_line (Wire.client_to_line f) with
       | Some f' ->
           Alcotest.(check bool) "client frame round-trips" true (f = f')
       | None ->
           Alcotest.failf "client frame failed to decode: %s"
             (Wire.client_to_line f))
    client_frames;
  List.iter
    (fun f ->
       match Wire.server_of_line (Wire.server_to_line f) with
       | Some f' ->
           Alcotest.(check bool) "server frame round-trips" true (f = f')
       | None ->
           Alcotest.failf "server frame failed to decode: %s"
             (Wire.server_to_line f))
    server_frames

(* --- wire protocol: strict rejection of malformed frames ------------ *)

let test_wire_malformed () =
  let rejected l = Wire.client_of_line l = None in
  List.iter
    (fun (what, line) ->
       Alcotest.(check bool) ("rejects " ^ what) true (rejected line))
    [
      ("invalid JSON", "{not json");
      ("non-object", "[1,2,3]");
      ("missing type", {|{"id":"x"}|});
      ("unknown type", {|{"type":"gimme","id":"x"}|});
      ( "missing field",
        {|{"type":"submit","id":"x","tenant":"a"}|} (* no bug *) );
      ( "extra key",
        {|{"type":"status","id":"x","surprise":true}|} );
      ( "mistyped value",
        {|{"type":"submit","id":42,"tenant":"a","bug":"b"}|} );
    ];
  (* the server decoder is just as strict *)
  Alcotest.(check bool) "server rejects unknown type" true
    (Wire.server_of_line {|{"type":"accepted_v2","id":"x"}|} = None);
  Alcotest.(check bool) "server rejects extra key" true
    (Wire.server_of_line {|{"type":"shutting_down","why":"because"}|} = None);
  (* a partial buffer splits into complete lines plus the tail *)
  let lines, tail = Wire.split_lines "{\"a\":1}\n{\"b\":2}\n{\"c\"" in
  Alcotest.(check (list string)) "complete lines" [ "{\"a\":1}"; "{\"b\":2}" ]
    lines;
  Alcotest.(check string) "unterminated tail" "{\"c\"" tail

(* --- Job.Config: JSON round-trip and partial override --------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let config_gen : Job.Config.t QCheck.Gen.t =
  let open QCheck.Gen in
  let knob = int_range 1 1_000_000 in
  knob >>= fun max_occurrences ->
  knob >>= fun solver_budget ->
  knob >>= fun gate_budget ->
  opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
  >>= fun cache_dir ->
  return { Job.Config.max_occurrences; solver_budget; gate_budget; cache_dir }

let config_arb =
  QCheck.make ~print:(fun c -> Job.Config.to_json c) config_gen

let test_config_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"Job.Config JSON round-trips exactly"
       config_arb (fun c -> Job.Config.of_json (Job.Config.to_json c) = Ok c))

let test_config_override () =
  let base = Job.Config.default in
  (match
     Job.Config.of_json_value ~base
       (Json.Obj [ ("solver_budget", Json.Int 777) ])
   with
   | Ok c ->
       Alcotest.(check int) "overridden field" 777 c.Job.Config.solver_budget;
       Alcotest.(check bool) "other fields keep base" true
         ({ c with Job.Config.solver_budget = base.Job.Config.solver_budget }
          = base)
   | Error e -> Alcotest.failf "partial override rejected: %s" e);
  (* the empty override is the base config *)
  Alcotest.(check bool) "empty object = base" true
    (Job.Config.of_json_value ~base (Json.Obj []) = Ok base);
  (match Job.Config.to_json_value base with
   | Json.Obj kvs ->
       Alcotest.(check (list string)) "the config's keys"
         [ "max_occurrences"; "solver_budget"; "gate_budget"; "cache_dir" ]
         (List.map fst kvs)
   | _ -> Alcotest.fail "config JSON is not an object");
  (* strictness: an unknown key or a mistyped value rejects the whole
     document, and the reason names the first offending key *)
  let rejects what j ~naming =
    match Job.Config.of_json_value ~base j with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error reason ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" what reason naming)
          true (contains ~sub:naming reason)
  in
  rejects "unknown key" (Json.Obj [ ("solver_fuel", Json.Int 1) ])
    ~naming:"solver_fuel";
  rejects "mistyped value"
    (Json.Obj [ ("max_occurrences", Json.Int 9); ("cache_dir", Json.Int 1) ])
    ~naming:"cache_dir";
  rejects "first of two bad keys"
    (Json.Obj [ ("gate_budget", Json.Bool true); ("solver_fuel", Json.Int 1) ])
    ~naming:"gate_budget";
  rejects "non-object" (Json.List []) ~naming:"object"

(* --- a cheap pipeline result to hand to thunk jobs ------------------ *)

let cheap_result : Pipeline.result Lazy.t =
  lazy
    (let s = Registry.running_example in
     Pipeline.run ~config:s.Bug.config ~base_prog:s.Bug.program
       ~workload:s.Bug.failing_workload ())

let thunk_job ~tenant ~name run =
  Job.create
    {
      Job.tenant;
      work = Job.Thunk { name; run };
      config = Job.Config.default;
    }

let spin_until ?(timeout = 10.) pred =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout do
    Domain.cpu_relax ()
  done;
  pred ()

(* --- scheduler: per-tenant fair round-robin ------------------------- *)

(* One worker, one blocker occupying it while two tenants queue jobs at
   different depths; release, and the execution order must interleave
   the tenants one job per revolution instead of draining tenant [a]
   first. *)
let test_scheduler_fairness () =
  let r = Lazy.force cheap_result in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let order = ref [] in
  let order_mutex = Mutex.create () in
  let record name =
    Mutex.lock order_mutex;
    order := name :: !order;
    Mutex.unlock order_mutex
  in
  let sched = Scheduler.create ~workers:1 () in
  let blocker =
    thunk_job ~tenant:"z" ~name:"blocker" (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        r)
  in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "submit refused" in
  ok (Scheduler.submit sched blocker);
  Alcotest.(check bool) "blocker started" true
    (spin_until (fun () -> Atomic.get started));
  let submit tenant name =
    let j = thunk_job ~tenant ~name (fun () -> record name; r) in
    ok (Scheduler.submit sched j);
    j
  in
  (* explicit sequencing: list-element evaluation order is unspecified,
     and the expected interleaving depends on submit order *)
  let a1 = submit "a" "a1" in
  let a2 = submit "a" "a2" in
  let a3 = submit "a" "a3" in
  let b1 = submit "b" "b1" in
  let b2 = submit "b" "b2" in
  let jobs = [ a1; a2; a3; b1; b2 ] in
  Atomic.set release true;
  List.iter (fun j -> ignore (Job.await j)) jobs;
  Scheduler.shutdown sched;
  Alcotest.(check (list string)) "one job per tenant per revolution"
    [ "a1"; "b1"; "a2"; "b2"; "a3" ]
    (List.rev !order)

(* --- scheduler: bounded-queue backpressure -------------------------- *)

let test_scheduler_backpressure () =
  let r = Lazy.force cheap_result in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let sched = Scheduler.create ~workers:1 ~queue_limit:2 () in
  let blocker =
    thunk_job ~tenant:"z" ~name:"blocker" (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        r)
  in
  (match Scheduler.submit sched blocker with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "blocker refused");
  Alcotest.(check bool) "blocker started" true
    (spin_until (fun () -> Atomic.get started));
  (* worker is busy and the queue holds up to 2: two fit, the third is
     refused — the daemon's 429 *)
  let fill n = thunk_job ~tenant:"t" ~name:(Printf.sprintf "fill%d" n) (fun () -> r) in
  let j1 = fill 1 and j2 = fill 2 and j3 = fill 3 in
  Alcotest.(check bool) "first fits" true (Scheduler.submit sched j1 = Ok ());
  Alcotest.(check bool) "second fits" true (Scheduler.submit sched j2 = Ok ());
  Alcotest.(check bool) "third refused" true
    (Scheduler.submit sched j3 = Error `Queue_full);
  Atomic.set release true;
  ignore (Job.await j1);
  ignore (Job.await j2);
  Scheduler.shutdown sched;
  (* the refused job was never owned by the scheduler *)
  Alcotest.(check bool) "refused job still queued state" true
    (Job.status j3 = `Queued)

(* --- job: cancel while queued and cancel mid-iteration -------------- *)

let test_cancel_queued () =
  let r = Lazy.force cheap_result in
  let j = thunk_job ~tenant:"t" ~name:"idle" (fun () -> r) in
  Alcotest.(check bool) "cancel accepted" true (Job.cancel j);
  (match Job.await j with
   | Job.Cancelled None -> ()
   | _ -> Alcotest.fail "queued cancel must yield Cancelled None");
  Alcotest.(check bool) "status is cancelled" true (Job.status j = `Cancelled);
  (* an executor skips it rather than running it *)
  Job.execute j;
  Alcotest.(check bool) "execute after cancel is a no-op" true
    (Job.status j = `Cancelled);
  (* cancelling a completed job reports false *)
  Alcotest.(check bool) "second cancel refused" false (Job.cancel j)

(* The paper's running example needs more than one failure occurrence
   (test_end_to_end pins that), so gating its workload gives a window
   where the job is mid-reconstruction: cancel must land at the next
   occurrence boundary as [Gave_up Cancelled] with a partial result. *)
let test_cancel_mid_iteration () =
  let s = Registry.running_example in
  let in_workload = Atomic.make false in
  let release = Atomic.make false in
  let gated_workload ~occurrence =
    Atomic.set in_workload true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    s.Bug.failing_workload ~occurrence
  in
  let j =
    Job.create
      { (Bug.request s) with
        Job.work =
          Job.Reconstruct
            { (Bug.source s) with Job.src_workload = gated_workload } }
  in
  let d = Domain.spawn (fun () -> Job.execute j) in
  Alcotest.(check bool) "job reached its first production run" true
    (spin_until (fun () -> Atomic.get in_workload));
  Alcotest.(check bool) "cancel accepted while running" true (Job.cancel j);
  Atomic.set release true;
  Domain.join d;
  (match Job.await j with
   | Job.Cancelled (Some r) -> (
       match r.Pipeline.status with
       | Pipeline.Gave_up Er_core.Outcome.Cancelled -> ()
       | Pipeline.Gave_up g ->
           Alcotest.failf "wrong give-up reason: %s"
             (Er_core.Outcome.give_up_to_string g)
       | Pipeline.Reproduced _ ->
           Alcotest.fail "cancelled job must not report Reproduced")
   | Job.Cancelled None ->
       Alcotest.fail "mid-run cancel must carry the partial result"
   | Job.Finished _ | Job.Crashed _ ->
       Alcotest.fail "cancelled job must resolve as Cancelled");
  Alcotest.(check bool) "status is cancelled" true (Job.status j = `Cancelled)

(* --- serve vs batch: the determinism contract over a real socket ---- *)

(* Four concurrent tenants replay the whole Table 1 corpus against an
   in-process daemon; every client must receive, for every bug, the
   byte-identical normalized payload a batch pipeline run produces —
   and the batch side's corpus-wide solver cost is pinned to the
   committed trajectory, so the pin transfers to the daemon. *)
let test_serve_matches_batch () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "er-test-serve-%d.sock" (Unix.getpid ()))
  in
  let config =
    { Server.default_config with socket_path = socket; workers = 4 }
  in
  let srv = Server.start ~config ~resolver:Registry.resolver () in
  let bugs = List.map (fun (s : Bug.spec) -> s.Bug.name) Registry.table1 in
  let r = Loadgen.run ~socket ~clients:4 ~bugs () in
  Server.stop srv;
  Server.wait srv;
  Alcotest.(check int) "every submit resolved" (4 * List.length bugs)
    r.Loadgen.lg_jobs;
  Alcotest.(check int) "no job failed" 0 r.Loadgen.lg_failed;
  Alcotest.(check int) "no protocol errors" 0 r.Loadgen.lg_errors;
  Alcotest.(check bool) "clients agree per bug" true (Loadgen.deterministic r);
  (* batch reference: the same reconstruction in-process, normalized the
     same way the daemon normalizes result frames *)
  let batch_payloads, batch_cost =
    List.fold_left
      (fun (acc, cost) (s : Bug.spec) ->
         let res =
           Er_smt.Expr.in_fresh_space (fun () ->
               Pipeline.run ~config:s.Bug.config ~base_prog:s.Bug.program
                 ~workload:s.Bug.failing_workload ())
         in
         let payload =
           Json.to_string
             (Fleet.normalize_json (Pipeline.result_to_json_value res))
         in
         let c =
           List.fold_left
             (fun a (it : Pipeline.iteration) -> a + it.Pipeline.solver_cost)
             0 res.Pipeline.iterations
         in
         ((s.Bug.name, payload) :: acc, cost + c))
      ([], 0) Registry.table1
  in
  (* the committed trajectory's corpus-wide solver cost (BENCH totals):
     since every serve payload is byte-identical to its batch payload,
     the pin covers the daemon too *)
  Alcotest.(check int) "corpus solver cost matches committed trajectory"
    204_036 batch_cost;
  List.iter
    (fun (bug, served) ->
       match List.assoc_opt bug batch_payloads with
       | None -> Alcotest.failf "daemon served unknown bug %s" bug
       | Some batch ->
           Alcotest.(check string) (bug ^ ": serve = batch, byte for byte")
             batch served)
    r.Loadgen.lg_results

(* A daemon refuses a submit whose config override it cannot decode,
   and says which key it refused: a client still sending a knob the
   config no longer has learns why, and nothing is queued. *)
let test_serve_names_rejected_key () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "er-test-serve-key-%d.sock" (Unix.getpid ()))
  in
  let config =
    { Server.default_config with socket_path = socket; workers = 1 }
  in
  let srv = Server.start ~config ~resolver:Registry.resolver () in
  (* one submit per retired knob, on one connection *)
  let knobs =
    [ "portfolio"; "progress_every"; "max_steps"; "max_instrs";
      "max_call_depth"; "quantum"; "quantum_jitter"; "ring_bytes"; "verify";
      "incremental"; "checkpoint_interval" ]
  in
  let replies =
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        Server.wait srv)
      (fun () ->
        let c = Server.Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Server.Client.close c)
          (fun () ->
            List.map
              (fun knob ->
                 Server.Client.send c
                   (Wire.Submit
                      { id = knob; tenant = "t"; bug = "pbzip2";
                        config = Some (Json.Obj [ (knob, Json.Int 4) ]) });
                 (knob, Server.Client.recv c))
              knobs))
  in
  List.iter
    (fun (knob, reply) ->
       match reply with
       | Some (Wire.Error { id = Some id; reason }) when id = knob ->
           Alcotest.(check string)
             (Printf.sprintf "%s: the reason names the key" knob)
             ("bad config override: unknown config key " ^ knob)
             reason
       | Some f ->
           Alcotest.failf "%s: expected an error, got %s" knob
             (Wire.server_to_line f)
       | None -> Alcotest.fail "daemon closed the connection")
    replies

let suites =
  [
    ( "serve.wire",
      [
        Alcotest.test_case "frames round-trip both directions" `Quick
          test_wire_roundtrip;
        Alcotest.test_case "malformed frames are rejected" `Quick
          test_wire_malformed;
      ] );
    ( "serve.config",
      [
        test_config_roundtrip;
        Alcotest.test_case "partial override and strictness" `Quick
          test_config_override;
      ] );
    ( "serve.scheduler",
      [
        Alcotest.test_case "per-tenant round-robin is fair" `Slow
          test_scheduler_fairness;
        Alcotest.test_case "bounded queue refuses past the limit" `Slow
          test_scheduler_backpressure;
      ] );
    ( "serve.job",
      [
        Alcotest.test_case "cancel while queued" `Slow test_cancel_queued;
        Alcotest.test_case "cancel mid-iteration yields partial result" `Slow
          test_cancel_mid_iteration;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case
          "4 tenants over a socket match batch byte-for-byte" `Slow
          test_serve_matches_batch;
        Alcotest.test_case "a rejected override names its key" `Quick
          test_serve_names_rejected_key;
      ] );
  ]
