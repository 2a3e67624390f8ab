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
  (* The serializable knobs of a reconstruction, flattened into one
     record: the occurrence bound, the symbolic executor's budgets
     ({!Er_symex.Exec.config}) and the solver store.  No VM limit is a
     knob: the traced run and its verifying replay must share one VM
     configuration, [Er_vm.Interp.default_config]. *)
  type t = {
    max_occurrences : int;       (* bound on production runs consumed *)
    solver_budget : int;         (* SAT work budget per query *)
    gate_budget : int;           (* bit-blasting budget for the run *)
    cache_dir : string option;   (* persistent solver-knowledge store *)
  }

  let of_pipeline (c : Pipeline.config) : t =
    {
      max_occurrences = c.Pipeline.max_occurrences;
      solver_budget = c.Pipeline.exec_config.Er_symex.Exec.solver_budget;
      gate_budget = c.Pipeline.exec_config.Er_symex.Exec.gate_budget;
      cache_dir = None;
    }

  let to_pipeline (t : t) : Pipeline.config =
    {
      Pipeline.default_config with
      max_occurrences = t.max_occurrences;
      exec_config =
        {
          Er_symex.Exec.solver_budget = t.solver_budget;
          gate_budget = t.gate_budget;
        };
    }

  let default = of_pipeline Pipeline.default_config

  (* JSON field table: one row per knob keeps the encoder, the strict
     decoder and the partial-override decoder in lockstep.  Adding a
     field here is the whole change. *)
  type field =
    | I of string * (t -> int) * (t -> int -> t)
    | S of string * (t -> string option) * (t -> string option -> t)

  let fields =
    [
      I ("max_occurrences", (fun t -> t.max_occurrences),
         fun t v -> { t with max_occurrences = v });
      I ("solver_budget", (fun t -> t.solver_budget),
         fun t v -> { t with solver_budget = v });
      I ("gate_budget", (fun t -> t.gate_budget),
         fun t v -> { t with gate_budget = v });
      S ("cache_dir", (fun t -> t.cache_dir),
         fun t v -> { t with cache_dir = v });
    ]

  let to_json_value (t : t) : Json.t =
    Json.Obj
      (List.map
         (function
           | I (k, get, _) -> (k, Json.Int (get t))
           | S (k, get, _) ->
               (k, match get t with Some s -> Json.Str s | None -> Json.Null))
         fields)

  let to_json t = Json.to_string (to_json_value t)

  (* Decode an object over [base]: present fields override, absent
     fields keep [base]'s value, and anything else — an unknown key, a
     mistyped value, a non-object — rejects the whole document with a
     reason naming the first offending key.  With [~base:default] this
     is the submit-frame override decoder; a full object round-trips
     exactly ([of_json_value (to_json_value t) = Ok t]). *)
  let of_json_value ?(base = default) (j : Json.t) : (t, string) result =
    let name = function I (k, _, _) | S (k, _, _) -> k in
    let set t (k, v) =
      match List.find_opt (fun f -> String.equal (name f) k) fields with
      | None -> Error ("unknown config key " ^ k)
      | Some field -> (
          match (v, field) with
          | Json.Int v, I (_, _, set) -> Ok (set t v)
          | Json.Str v, S (_, _, set) -> Ok (set t (Some v))
          | Json.Null, S (_, _, set) -> Ok (set t None)
          | _, I _ -> Error ("config key " ^ k ^ " wants an integer")
          | _, S _ -> Error ("config key " ^ k ^ " wants a string or null"))
    in
    match j with
    | Json.Obj kvs ->
        List.fold_left (fun acc kv -> Result.bind acc (fun t -> set t kv))
          (Ok base) kvs
    | _ -> Error "config override is not an object"

  let of_json ?base (s : string) : (t, string) result =
    match Json.parse s with
    | Some j -> of_json_value ?base j
    | None -> Error "config is not valid JSON"

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

module M = Er_metrics

let m_minor_words =
  M.counter ~help:"Words jobs allocated on the minor heap of their domain."
    "er_job_minor_words_total"

let m_promoted_words =
  M.counter
    ~help:"Minor-heap words promoted to the major heap while jobs ran."
    "er_job_promoted_words_total"

let m_major_words =
  M.counter
    ~help:"Words allocated on or promoted to the major heap while jobs ran."
    "er_job_major_words_total"

(* Charge [f]'s allocation to the job counters: deltas of the executing
   domain's GC counters, so jobs on other workers do not leak in.  The
   minor count comes from [Gc.minor_words]: the minor count of
   [Gc.counters] undercounts the unflushed part of the minor heap
   (OCaml 5.1 divides it by the word size twice), and a collection
   inside the job then adds it back in full. *)
let charging_allocation f =
  if not (M.enabled M.default) then f ()
  else begin
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    Fun.protect f ~finally:(fun () ->
        let minor = Gc.minor_words () and _, promoted, major = Gc.counters () in
        M.add m_minor_words (int_of_float (minor -. minor0));
        M.add m_promoted_words (int_of_float (promoted -. promoted0));
        M.add m_major_words (int_of_float (major -. major0)))
  end

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
    (* Persistent solver knowledge: attach the job's store on this
       domain before any solving, flush on the way out (also on crash —
       everything recorded up to that point is valid knowledge).  Warm
       replay cannot change the trajectory, so this wrapper is invisible
       to the determinism contract. *)
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
      M.with_span ("bug:" ^ name t) (fun () ->
          charging_allocation (fun () ->
              Er_smt.Expr.in_fresh_space body_with_store))
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
