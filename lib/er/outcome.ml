(* Structured outcomes for the staged ER pipeline.

   Each iteration and each reconstruction says *why* it stopped as a
   variant, so downstream tooling — the fleet aggregator, the JSONL event
   sink, tests — can act on the reason; the string renderings below are
   for human-facing output only. *)

type stall = {
  reason : string;              (* the executor's stall description *)
  longest_chain : int;          (* bottleneck: longest symbolic write chain *)
  largest_object_bytes : int;   (* bottleneck: largest symbolic object *)
  points_added : int;           (* recording points gained by selection *)
}

(* Per-iteration outcome of shepherded symbolic execution + selection. *)
type step =
  | Completed
  | Stalled of stall            (* solver/gate budget exhausted mid-path *)
  | Diverged of string          (* execution left the recorded trace *)

(* Terminal reason the whole reconstruction stopped without a test case. *)
type give_up =
  | Decode_error of string      (* the shipped trace snapshot was corrupt *)
  | Max_occurrences of int      (* occurrence budget exhausted *)
  | Cancelled                   (* the owning job was cancelled mid-flight *)

let give_up_to_string = function
  | Decode_error e -> "trace decode failed: " ^ e
  | Max_occurrences _ -> "max occurrences exhausted"
  | Cancelled -> "cancelled"

let pp_step ppf = function
  | Completed -> Fmt.string ppf "complete"
  | Stalled s ->
      Fmt.pf ppf "stalled — %s; +%d points (chain=%d, obj=%dB)" s.reason
        s.points_added s.longest_chain s.largest_object_bytes
  | Diverged m -> Fmt.pf ppf "diverged — %s" m
