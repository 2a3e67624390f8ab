(* The structured event bus of the staged pipeline.

   Every stage (tracer, shepherd, selector, verifier) emits typed events
   as it runs; sinks are pluggable — the null sink for silent runs, an
   in-memory buffer (the pipeline derives its per-iteration accounting
   records from it), and a JSONL writer for downstream tooling and
   [er_cli report].  Events round-trip through JSON
   ([of_json (to_json e) = Some e]) so a persisted stream can be
   re-analyzed offline. *)

(* JSON comes from the shared [Json] module ([Er_core.Json], backed by
   [Er_json]) — the same dialect the pipeline renderer, the metrics
   snapshots and the bench harness use. *)

(* ---------------------------------------------------------------- *)
(* Events                                                            *)
(* ---------------------------------------------------------------- *)

type stage = Trace | Symex | Select | Verify

type skip_reason = No_failure | Different_failure

type event =
  | Occurrence_started of { occurrence : int }
  | Run_skipped of { occurrence : int; reason : skip_reason }
  | Checkpoint_resumed of {
      occurrence : int;
      at_clock : int;    (* instructions of shared prefix not re-executed *)
    }
  | Trace_captured of {
      occurrence : int;
      bytes : int;
      packets : int;
      ptwrites : int;
      switches : int;
      vm_instrs : int;
      overwritten : int; (* ring bytes lost to wrap-around this capture *)
      elapsed : float;
    }
  | Decode_failed of { occurrence : int; error : string }
  | Symex_finished of {
      occurrence : int;
      steps : int;
      solver_calls : int;
      solver_cost : int;
      cache_hits : int;         (* solver result-cache hits of this run *)
      cache_misses : int;
      graph_nodes : int;
      outcome : [ `Complete | `Stalled | `Diverged ];
      elapsed : float;
    }
  | Diverged of { occurrence : int; reason : string }
  | Stall of {
      occurrence : int;
      reason : string;
      chain : int;              (* longest symbolic write chain *)
      object_bytes : int;       (* largest symbolic object *)
    }
  | Points_added of {
      occurrence : int;
      added : int;
      total : int;              (* recording set size after this iteration *)
      elapsed : float;
    }
  | Budget_escalated of {
      occurrence : int;
      solver_budget : int;
      gate_budget : int;
    }
  | Verified of {
      occurrence : int;
      ok : bool;
      same_failure : bool;
      same_control_flow : bool;
      elapsed : float;
    }
  | Reproduced of { occurrence : int; testcase_values : int }
  | Gave_up of { occurrence : int; reason : string }
  | Metrics_snapshot of {
      occurrence : int;
      snapshot : Er_metrics.Snapshot.t;
    }
  | Cache_status of {
      label : string;   (* job name = store file stem *)
      state : string;   (* "warm" | "cold" | "flushed" *)
      entries : int;    (* journal entries loaded / written *)
      detail : string;  (* cost replayable, rejection reason, ... *)
    }
  | Pipeline_finished of { runs : int; occurrences : int; reproduced : bool }

(* The stage that emitted an event; [None] for pipeline control events. *)
let stage_of = function
  | Occurrence_started _ -> None
  | Run_skipped _ | Checkpoint_resumed _ | Trace_captured _ | Decode_failed _ ->
      Some Trace
  | Symex_finished _ | Diverged _ -> Some Symex
  | Stall _ | Points_added _ | Budget_escalated _ -> Some Select
  | Verified _ -> Some Verify
  | Reproduced _ | Gave_up _ | Metrics_snapshot _ | Cache_status _
  | Pipeline_finished _ ->
      None

(* ---------------------------------------------------------------- *)
(* JSON encoding / decoding                                          *)
(* ---------------------------------------------------------------- *)

let to_json_value (e : event) : Json.t =
  let open Json in
  let obj name fields = Obj (("event", Str name) :: fields) in
  match e with
  | Occurrence_started { occurrence } ->
      obj "occurrence_started" [ ("occurrence", Int occurrence) ]
  | Run_skipped { occurrence; reason } ->
      obj "run_skipped"
        [ ("occurrence", Int occurrence);
          ( "reason",
            Str
              (match reason with
               | No_failure -> "no_failure"
               | Different_failure -> "different_failure") ) ]
  | Checkpoint_resumed { occurrence; at_clock } ->
      obj "checkpoint_resumed"
        [ ("occurrence", Int occurrence); ("at_clock", Int at_clock) ]
  | Trace_captured { occurrence; bytes; packets; ptwrites; switches; vm_instrs; overwritten; elapsed } ->
      obj "trace_captured"
        [ ("occurrence", Int occurrence); ("bytes", Int bytes);
          ("packets", Int packets); ("ptwrites", Int ptwrites);
          ("switches", Int switches); ("vm_instrs", Int vm_instrs);
          ("overwritten", Int overwritten); ("elapsed", Float elapsed) ]
  | Decode_failed { occurrence; error } ->
      obj "decode_failed" [ ("occurrence", Int occurrence); ("error", Str error) ]
  | Symex_finished { occurrence; steps; solver_calls; solver_cost; cache_hits; cache_misses; graph_nodes; outcome; elapsed } ->
      obj "symex_finished"
        [ ("occurrence", Int occurrence); ("steps", Int steps);
          ("solver_calls", Int solver_calls); ("solver_cost", Int solver_cost);
          ("cache_hits", Int cache_hits); ("cache_misses", Int cache_misses);
          ("graph_nodes", Int graph_nodes);
          ( "outcome",
            Str
              (match outcome with
               | `Complete -> "complete"
               | `Stalled -> "stalled"
               | `Diverged -> "diverged") );
          ("elapsed", Float elapsed) ]
  | Diverged { occurrence; reason } ->
      obj "diverged" [ ("occurrence", Int occurrence); ("reason", Str reason) ]
  | Stall { occurrence; reason; chain; object_bytes } ->
      obj "stall"
        [ ("occurrence", Int occurrence); ("reason", Str reason);
          ("chain", Int chain); ("object_bytes", Int object_bytes) ]
  | Points_added { occurrence; added; total; elapsed } ->
      obj "points_added"
        [ ("occurrence", Int occurrence); ("added", Int added);
          ("total", Int total); ("elapsed", Float elapsed) ]
  | Budget_escalated { occurrence; solver_budget; gate_budget } ->
      obj "budget_escalated"
        [ ("occurrence", Int occurrence); ("solver_budget", Int solver_budget);
          ("gate_budget", Int gate_budget) ]
  | Verified { occurrence; ok; same_failure; same_control_flow; elapsed } ->
      obj "verified"
        [ ("occurrence", Int occurrence); ("ok", Bool ok);
          ("same_failure", Bool same_failure);
          ("same_control_flow", Bool same_control_flow);
          ("elapsed", Float elapsed) ]
  | Reproduced { occurrence; testcase_values } ->
      obj "reproduced"
        [ ("occurrence", Int occurrence); ("testcase_values", Int testcase_values) ]
  | Gave_up { occurrence; reason } ->
      obj "gave_up" [ ("occurrence", Int occurrence); ("reason", Str reason) ]
  | Metrics_snapshot { occurrence; snapshot } ->
      obj "metrics_snapshot"
        [ ("occurrence", Int occurrence);
          ("snapshot", Er_metrics.Snapshot.to_json_value snapshot) ]
  | Cache_status { label; state; entries; detail } ->
      obj "cache_status"
        [ ("label", Str label); ("state", Str state);
          ("entries", Int entries); ("detail", Str detail) ]
  | Pipeline_finished { runs; occurrences; reproduced } ->
      obj "pipeline_finished"
        [ ("runs", Int runs); ("occurrences", Int occurrences);
          ("reproduced", Bool reproduced) ]

let to_json e = Json.to_string (to_json_value e)

let of_json (line : string) : event option =
  match Json.parse line with
  | Some (Json.Obj fields) -> (
      let str k = match List.assoc_opt k fields with Some (Json.Str s) -> Some s | _ -> None in
      let int k = match List.assoc_opt k fields with Some (Json.Int i) -> Some i | _ -> None in
      let flt k =
        match List.assoc_opt k fields with
        | Some (Json.Float f) -> Some f
        | Some (Json.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      let boolean k = match List.assoc_opt k fields with Some (Json.Bool b) -> Some b | _ -> None in
      let ( let* ) = Option.bind in
      match str "event" with
      | Some "occurrence_started" ->
          let* occurrence = int "occurrence" in
          Some (Occurrence_started { occurrence })
      | Some "run_skipped" ->
          let* occurrence = int "occurrence" in
          let* reason =
            match str "reason" with
            | Some "no_failure" -> Some No_failure
            | Some "different_failure" -> Some Different_failure
            | _ -> None
          in
          Some (Run_skipped { occurrence; reason })
      | Some "checkpoint_resumed" ->
          let* occurrence = int "occurrence" in
          let* at_clock = int "at_clock" in
          Some (Checkpoint_resumed { occurrence; at_clock })
      | Some "trace_captured" ->
          let* occurrence = int "occurrence" in
          let* bytes = int "bytes" in
          let* packets = int "packets" in
          let* ptwrites = int "ptwrites" in
          let* switches = int "switches" in
          let* vm_instrs = int "vm_instrs" in
          let* overwritten = int "overwritten" in
          let* elapsed = flt "elapsed" in
          Some (Trace_captured { occurrence; bytes; packets; ptwrites; switches; vm_instrs; overwritten; elapsed })
      | Some "decode_failed" ->
          let* occurrence = int "occurrence" in
          let* error = str "error" in
          Some (Decode_failed { occurrence; error })
      | Some "symex_finished" ->
          let* occurrence = int "occurrence" in
          let* steps = int "steps" in
          let* solver_calls = int "solver_calls" in
          let* solver_cost = int "solver_cost" in
          (* absent in pre-session streams: treat as zero traffic *)
          let cache_hits = Option.value (int "cache_hits") ~default:0 in
          let cache_misses = Option.value (int "cache_misses") ~default:0 in
          let* graph_nodes = int "graph_nodes" in
          let* outcome =
            match str "outcome" with
            | Some "complete" -> Some `Complete
            | Some "stalled" -> Some `Stalled
            | Some "diverged" -> Some `Diverged
            | _ -> None
          in
          let* elapsed = flt "elapsed" in
          Some (Symex_finished { occurrence; steps; solver_calls; solver_cost; cache_hits; cache_misses; graph_nodes; outcome; elapsed })
      | Some "diverged" ->
          let* occurrence = int "occurrence" in
          let* reason = str "reason" in
          Some (Diverged { occurrence; reason })
      | Some "stall" ->
          let* occurrence = int "occurrence" in
          let* reason = str "reason" in
          let* chain = int "chain" in
          let* object_bytes = int "object_bytes" in
          Some (Stall { occurrence; reason; chain; object_bytes })
      | Some "points_added" ->
          let* occurrence = int "occurrence" in
          let* added = int "added" in
          let* total = int "total" in
          let* elapsed = flt "elapsed" in
          Some (Points_added { occurrence; added; total; elapsed })
      | Some "budget_escalated" ->
          let* occurrence = int "occurrence" in
          let* solver_budget = int "solver_budget" in
          let* gate_budget = int "gate_budget" in
          Some (Budget_escalated { occurrence; solver_budget; gate_budget })
      | Some "verified" ->
          let* occurrence = int "occurrence" in
          let* ok = boolean "ok" in
          let* same_failure = boolean "same_failure" in
          let* same_control_flow = boolean "same_control_flow" in
          let* elapsed = flt "elapsed" in
          Some (Verified { occurrence; ok; same_failure; same_control_flow; elapsed })
      | Some "reproduced" ->
          let* occurrence = int "occurrence" in
          let* testcase_values = int "testcase_values" in
          Some (Reproduced { occurrence; testcase_values })
      | Some "gave_up" ->
          let* occurrence = int "occurrence" in
          let* reason = str "reason" in
          Some (Gave_up { occurrence; reason })
      | Some "metrics_snapshot" ->
          let* occurrence = int "occurrence" in
          let* snapshot =
            Option.bind
              (List.assoc_opt "snapshot" fields)
              Er_metrics.Snapshot.of_json_value
          in
          Some (Metrics_snapshot { occurrence; snapshot })
      | Some "cache_status" ->
          let* label = str "label" in
          let* state = str "state" in
          let* entries = int "entries" in
          let* detail = str "detail" in
          Some (Cache_status { label; state; entries; detail })
      | Some "pipeline_finished" ->
          let* runs = int "runs" in
          let* occurrences = int "occurrences" in
          let* reproduced = boolean "reproduced" in
          Some (Pipeline_finished { runs; occurrences; reproduced })
      | _ -> None)
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Sinks                                                             *)
(* ---------------------------------------------------------------- *)

type sink = event -> unit

let null : sink = fun _ -> ()

let tee (a : sink) (b : sink) : sink = fun e -> a e; b e

(* In-memory buffer: returns the sink and a function reading the events
   collected so far, in emission order.  Single-domain by construction:
   each pipeline run owns its buffer. *)
let buffer () : sink * (unit -> event list) =
  let evs = ref [] in
  ((fun e -> evs := e :: !evs), fun () -> List.rev !evs)

(* One [output_string] per event: the line (payload + newline) is built
   in full first, so even an unserialized stderr/O_APPEND stream gets
   whole lines.  Flushed per line: a worker crash mid-reconstruction
   must not lose the buffered tail of the log — the events up to the
   crash are exactly what a post-mortem needs.  Concurrent writers to
   the same channel must still hold a common lock — channel buffers are
   not domain-safe. *)
let jsonl oc : sink =
 fun e ->
  output_string oc (to_json e ^ "\n");
  flush oc
