(* First-class reconstruction jobs.

   ER's deployment story is continuous: failures arrive one at a time
   from a fleet of production VMs, not as a batch corpus.  This module is
   the job-centric entry point everything else consumes — [er_cli
   reproduce], the batch {!Fleet} runner and the {!Server} daemon behind
   [er_cli serve] are all clients of the same request/handle API:

     - a {!request} names what to reconstruct (program + occurrence
       workload), who asked ({!request.tenant}) and under which budgets
       (one flattened {!Config.t} record with JSON round-trip, replacing
       the ad-hoc optional-argument threading of the old call sites);
     - {!create} turns a request into a handle; an executor (a scheduler
       worker, or the calling domain) drives it with {!execute};
     - the handle supports [status]/[poll]/[cancel]/[await] from any
       domain, with the usual typed {!Events} stream riding along.

   Determinism contract: {!execute} runs the pipeline inside
   {!Er_smt.Expr.in_fresh_space}, so a job's solver trajectory — and
   hence its normalized result JSON — depends only on its own request,
   never on which other jobs ran before or concurrently (the same
   mechanism fleet mode has always used). *)

(* ---------------------------------------------------------------- *)
(* Unified configuration                                             *)
(* ---------------------------------------------------------------- *)

module Config = struct
  (* Every serializable knob of a reconstruction, flattened into one
     record: the pipeline bounds, the symbolic executor budgets
     ({!Er_symex.Exec.config}) and the scalar VM limits
     ({!Er_vm.Interp.config}).  Deliberately excluded: [sched_seed]
     (the workload provides it per occurrence) and [hooks] (the tracer
     owns them) — the two fields that made the old per-call-site tuples
     unserializable. *)
  type t = {
    max_occurrences : int;       (* bound on production runs consumed *)
    solver_budget : int;         (* SAT work budget per query *)
    gate_budget : int;           (* bit-blasting budget for the run *)
    max_steps : int;             (* symex step bound *)
    progress_every : int;        (* Fig. 5 sampling period, in steps *)
    max_instrs : int;            (* concrete VM instruction bound *)
    max_call_depth : int;
    quantum : int;               (* scheduler quantum *)
    quantum_jitter : int;
    ring_bytes : int;            (* trace ring buffer size *)
    verify : bool;               (* re-execute the generated test case *)
    incremental : bool;          (* resume runs from CoW checkpoints *)
    checkpoint_interval : int;   (* instructions between checkpoints *)
    portfolio : int;             (* CDCL configs raced on a stall; 0 = off *)
    cache_dir : string option;   (* persistent solver-knowledge store *)
  }

  let of_pipeline (c : Pipeline.config) : t =
    {
      max_occurrences = c.Pipeline.max_occurrences;
      solver_budget = c.Pipeline.exec_config.Er_symex.Exec.solver_budget;
      gate_budget = c.Pipeline.exec_config.Er_symex.Exec.gate_budget;
      max_steps = c.Pipeline.exec_config.Er_symex.Exec.max_steps;
      progress_every = c.Pipeline.exec_config.Er_symex.Exec.progress_every;
      max_instrs = c.Pipeline.vm_config.Er_vm.Interp.max_instrs;
      max_call_depth = c.Pipeline.vm_config.Er_vm.Interp.max_call_depth;
      quantum = c.Pipeline.vm_config.Er_vm.Interp.quantum;
      quantum_jitter = c.Pipeline.vm_config.Er_vm.Interp.quantum_jitter;
      ring_bytes = c.Pipeline.ring_bytes;
      verify = c.Pipeline.verify;
      incremental = c.Pipeline.incremental;
      checkpoint_interval = c.Pipeline.checkpoint_interval;
      portfolio = c.Pipeline.exec_config.Er_symex.Exec.portfolio;
      cache_dir = None;
    }

  let to_pipeline (t : t) : Pipeline.config =
    {
      Pipeline.max_occurrences = t.max_occurrences;
      exec_config =
        {
          Er_symex.Exec.solver_budget = t.solver_budget;
          gate_budget = t.gate_budget;
          max_steps = t.max_steps;
          progress_every = t.progress_every;
          portfolio = t.portfolio;
        };
      vm_config =
        {
          Er_vm.Interp.default_config with
          Er_vm.Interp.max_instrs = t.max_instrs;
          max_call_depth = t.max_call_depth;
          quantum = t.quantum;
          quantum_jitter = t.quantum_jitter;
        };
      ring_bytes = t.ring_bytes;
      verify = t.verify;
      incremental = t.incremental;
      checkpoint_interval = t.checkpoint_interval;
    }

  let default = of_pipeline Pipeline.default_config

  (* JSON field table: one row per knob keeps the encoder, the strict
     decoder and the partial-override decoder in lockstep.  Adding a
     field here is the whole change. *)
  type field =
    | I of string * (t -> int) * (t -> int -> t)
    | B of string * (t -> bool) * (t -> bool -> t)
    | S of string * (t -> string option) * (t -> string option -> t)

  let fields =
    [
      I ("max_occurrences", (fun t -> t.max_occurrences),
         fun t v -> { t with max_occurrences = v });
      I ("solver_budget", (fun t -> t.solver_budget),
         fun t v -> { t with solver_budget = v });
      I ("gate_budget", (fun t -> t.gate_budget),
         fun t v -> { t with gate_budget = v });
      I ("max_steps", (fun t -> t.max_steps),
         fun t v -> { t with max_steps = v });
      I ("progress_every", (fun t -> t.progress_every),
         fun t v -> { t with progress_every = v });
      I ("max_instrs", (fun t -> t.max_instrs),
         fun t v -> { t with max_instrs = v });
      I ("max_call_depth", (fun t -> t.max_call_depth),
         fun t v -> { t with max_call_depth = v });
      I ("quantum", (fun t -> t.quantum), fun t v -> { t with quantum = v });
      I ("quantum_jitter", (fun t -> t.quantum_jitter),
         fun t v -> { t with quantum_jitter = v });
      I ("ring_bytes", (fun t -> t.ring_bytes),
         fun t v -> { t with ring_bytes = v });
      B ("verify", (fun t -> t.verify), fun t v -> { t with verify = v });
      B ("incremental", (fun t -> t.incremental),
         fun t v -> { t with incremental = v });
      I ("checkpoint_interval", (fun t -> t.checkpoint_interval),
         fun t v -> { t with checkpoint_interval = v });
      I ("portfolio", (fun t -> t.portfolio),
         fun t v -> { t with portfolio = v });
      S ("cache_dir", (fun t -> t.cache_dir),
         fun t v -> { t with cache_dir = v });
    ]

  let to_json_value (t : t) : Json.t =
    Json.Obj
      (List.map
         (function
           | I (k, get, _) -> (k, Json.Int (get t))
           | B (k, get, _) -> (k, Json.Bool (get t))
           | S (k, get, _) ->
               (k, match get t with Some s -> Json.Str s | None -> Json.Null))
         fields)

  let to_json t = Json.to_string (to_json_value t)

  (* Decode an object over [base]: present fields override, absent
     fields keep [base]'s value, and anything else — an unknown key, a
     mistyped value, a non-object — rejects the whole document.  With
     [~base:default] this is the submit-frame override decoder; a full
     object round-trips exactly ([of_json_value (to_json_value t) = Some
     t]). *)
  let of_json_value ?(base = default) (j : Json.t) : t option =
    match j with
    | Json.Obj kvs ->
        let known k =
          List.exists
            (function
              | I (k', _, _) | B (k', _, _) | S (k', _, _) -> String.equal k k')
            fields
        in
        if not (List.for_all (fun (k, _) -> known k) kvs) then None
        else
          List.fold_left
            (fun acc field ->
               Option.bind acc (fun t ->
                   let k =
                     match field with
                     | I (k, _, _) | B (k, _, _) | S (k, _, _) -> k
                   in
                   match (List.assoc_opt k kvs, field) with
                   | None, _ -> Some t
                   | Some (Json.Int v), I (_, _, set) -> Some (set t v)
                   | Some (Json.Bool v), B (_, _, set) -> Some (set t v)
                   | Some (Json.Str v), S (_, _, set) -> Some (set t (Some v))
                   | Some Json.Null, S (_, _, set) -> Some (set t None)
                   | Some _, _ -> None))
            (Some base) fields
    | _ -> None

  let of_json ?base (s : string) : t option =
    Option.bind (Json.parse s) (of_json_value ?base)

  (* Digest basis for the persistent solver store: every knob that could
     alter the solver query sequence — the whole config minus the cache
     location itself, so pointing the same job at a moved directory
     still warm-starts. *)
  let fingerprint (t : t) : string = to_json { t with cache_dir = None }
end

(* ---------------------------------------------------------------- *)
(* Requests                                                          *)
(* ---------------------------------------------------------------- *)

(* What to reconstruct: a base program plus the workload producing the
   inputs of each failure occurrence.  The daemon's resolver maps corpus
   bug names to sources; embedders can hand in anything. *)
type source = {
  src_name : string;
  src_prog : Er_ir.Types.program;
  src_workload : Pipeline.workload;
}

(* The job body.  [Reconstruct] is the first-class form — the pipeline
   runs under the request's config with cooperative cancellation.
   [Thunk] is the opaque-body form (a pre-bound closure, say a
   {!Pipeline.Make} instance with instrumented stages): it binds its own
   budgets, so only the config's [cache_dir] applies, and it can only be
   cancelled while still queued. *)
type work =
  | Reconstruct of source
  | Thunk of { name : string; run : unit -> Pipeline.result }

type request = {
  tenant : string;               (* fair-queueing identity *)
  work : work;
  config : Config.t;
}

(* ---------------------------------------------------------------- *)
(* Handles                                                           *)
(* ---------------------------------------------------------------- *)

type outcome =
  | Finished of Pipeline.result
  | Crashed of { exn : string; backtrace : string }
  | Cancelled of Pipeline.result option
      (* [Some r]: cancelled mid-run at an occurrence boundary, [r] is
         the partial result (status [Gave_up Cancelled]); [None]:
         cancelled while still queued, never executed *)

type state = Queued | Running | Done of outcome

type t = {
  id : int;                          (* process-unique *)
  request : request;
  events : Events.sink;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable state : state;
  cancelled : bool Atomic.t;         (* polled by the pipeline fold *)
  mutable worker : int option;       (* index of the executing worker *)
  mutable wall : float;              (* execution seconds, once done *)
}

let next_id = Atomic.make 0

let create ?(events = Events.null) (request : request) : t =
  {
    id = Atomic.fetch_and_add next_id 1;
    request;
    events;
    mutex = Mutex.create ();
    cond = Condition.create ();
    state = Queued;
    cancelled = Atomic.make false;
    worker = None;
    wall = 0.;
  }

let id t = t.id
let request t = t.request

let name t =
  match t.request.work with
  | Reconstruct s -> s.src_name
  | Thunk { name; _ } -> name

let tenant t = t.request.tenant

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

type status = [ `Queued | `Running | `Done | `Crashed | `Cancelled ]

let status t : status =
  locked t (fun () ->
      match t.state with
      | Queued -> `Queued
      | Running -> `Running
      | Done (Finished _) -> `Done
      | Done (Crashed _) -> `Crashed
      | Done (Cancelled _) -> `Cancelled)

let status_to_string : status -> string = function
  | `Queued -> "queued"
  | `Running -> "running"
  | `Done -> "done"
  | `Crashed -> "crashed"
  | `Cancelled -> "cancelled"

let poll t : outcome option =
  locked t (fun () ->
      match t.state with Done o -> Some o | Queued | Running -> None)

let await t : outcome =
  locked t (fun () ->
      let rec wait () =
        match t.state with
        | Done o -> o
        | Queued | Running ->
            Condition.wait t.cond t.mutex;
            wait ()
      in
      wait ())

(* Best-effort cancellation: a queued job completes immediately as
   [Cancelled None] (its executor will skip it); a running job is asked
   to stop — the pipeline checks the flag at each occurrence boundary
   and finishes with a partial result.  Returns [false] iff the job had
   already completed. *)
let cancel t : bool =
  locked t (fun () ->
      match t.state with
      | Done _ -> false
      | Queued ->
          Atomic.set t.cancelled true;
          t.state <- Done (Cancelled None);
          Condition.broadcast t.cond;
          true
      | Running ->
          Atomic.set t.cancelled true;
          true)

let worker t = locked t (fun () -> t.worker)
let wall t = locked t (fun () -> t.wall)

(* ---------------------------------------------------------------- *)
(* Execution                                                         *)
(* ---------------------------------------------------------------- *)

(* Run one job to completion on the calling domain, with per-job crash
   isolation (an exception becomes a [Crashed] outcome, not an executor
   abort) and a fresh interning space for the determinism contract.
   Idempotence: a job that is already [Done] — typically cancelled while
   queued — is skipped; executing a [Running] job is an API misuse and
   raises. *)
let execute ?(worker = 0) (t : t) : unit =
  let claimed =
    locked t (fun () ->
        match t.state with
        | Done _ -> false
        | Running -> invalid_arg "Job.execute: job is already running"
        | Queued ->
            t.state <- Running;
            t.worker <- Some worker;
            true)
  in
  if claimed then begin
    let t0 = Unix.gettimeofday () in
    let body () =
      match t.request.work with
      | Reconstruct s ->
          Pipeline.run
            ~config:(Config.to_pipeline t.request.config)
            ~events:t.events
            ~should_stop:(fun () -> Atomic.get t.cancelled)
            ~base_prog:s.src_prog ~workload:s.src_workload ()
      | Thunk { run; _ } -> run ()
    in
    (* Persistent solver knowledge: bind the job's store to its fresh
       interning space before any solving, flush on the way out (also on
       crash — everything recorded up to that point is valid knowledge).
       Warm replay cannot change the trajectory, so this wrapper is
       invisible to the determinism contract. *)
    let body_with_store () =
      match t.request.config.Config.cache_dir with
      | None -> body ()
      | Some dir ->
          let label = name t in
          let emit state entries detail =
            t.events (Events.Cache_status { label; state; entries; detail })
          in
          (match
             Er_smt.Persist.attach ~dir ~label
               ~fingerprint:(Config.fingerprint t.request.config)
           with
          | Er_smt.Persist.Loaded { entries; replayable_cost } ->
              emit "warm" entries
                (Printf.sprintf "replayable cost %d" replayable_cost)
          | Er_smt.Persist.Cold { reason = None } ->
              emit "cold" 0 "no store yet"
          | Er_smt.Persist.Cold { reason = Some r } -> emit "cold" 0 r);
          Fun.protect body ~finally:(fun () ->
              match Er_smt.Persist.detach_and_flush () with
              | None -> ()
              | Some fl ->
                  List.iter (fun w -> emit "warning" 0 w)
                    fl.Er_smt.Persist.fl_warnings;
                  if fl.Er_smt.Persist.fl_wrote then
                    emit "flushed" fl.Er_smt.Persist.fl_entries
                      (Printf.sprintf "%d appended, %d replayed, saved cost %d"
                         fl.Er_smt.Persist.fl_appended
                         fl.Er_smt.Persist.fl_replayed
                         fl.Er_smt.Persist.fl_saved_cost)
                  else
                    emit "replayed" fl.Er_smt.Persist.fl_entries
                      (Printf.sprintf "%d replayed, saved cost %d"
                         fl.Er_smt.Persist.fl_replayed
                         fl.Er_smt.Persist.fl_saved_cost))
    in
    let run () =
      Er_metrics.with_span ("bug:" ^ name t) (fun () ->
          Er_smt.Expr.in_fresh_space body_with_store)
    in
    let outcome =
      match run () with
      | r ->
          if
            Atomic.get t.cancelled
            && (match r.Pipeline.status with
                | Pipeline.Gave_up Outcome.Cancelled -> true
                | _ -> false)
          then Cancelled (Some r)
          else Finished r
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception e ->
          let backtrace = Printexc.get_backtrace () in
          Crashed { exn = Printexc.to_string e; backtrace }
    in
    locked t (fun () ->
        t.wall <- Unix.gettimeofday () -. t0;
        t.state <- Done outcome;
        Condition.broadcast t.cond)
  end
