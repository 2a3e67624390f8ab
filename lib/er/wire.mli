(** The er-serve wire protocol: JSONL frames over a stream socket.

    One JSON object per line, a ["type"] tag per frame.  [Submit]
    carries a client-chosen correlation id echoed by every response
    about that job, so clients can pipeline submits and match streaming
    results.  Decoding is strict: unknown types, missing fields,
    mistyped values and extra keys all reject the frame. *)

type client_frame =
  | Submit of {
      id : string;               (** client-chosen correlation id *)
      tenant : string;
      bug : string;              (** resolver key, e.g. a corpus bug name *)
      config : Json.t option;    (** partial {!Job.Config} override *)
    }
  | Status of { id : string }
  | Cancel of { id : string }
  | Metrics                      (** ask for a Prometheus exposition dump *)
  | Shutdown                     (** drain and stop the daemon *)

type server_frame =
  | Accepted of { id : string }
  | Rejected of { id : string; code : int; reason : string }
      (** backpressure: queue full (429) or draining (503) *)
  | Job_status of { id : string; state : string }
  | Job_result of {
      id : string;
      bug : string;
      tenant : string;
      result : Json.t;           (** normalized pipeline result *)
      wall : float;
    }
  | Job_failed of { id : string; exn : string }
  | Job_cancelled of { id : string; partial : Json.t option }
  | Metrics_dump of { prometheus : string }
  | Error of { id : string option; reason : string }
      (** protocol-level failure: malformed frame, unknown bug,
          unknown id, bad config override *)
  | Shutting_down

val client_to_line : client_frame -> string
(** Encoded frame with trailing newline. *)

val server_to_line : server_frame -> string
val client_of_line : string -> client_frame option
val server_of_line : string -> server_frame option

val split_lines : string -> string list * string
(** Split a receive buffer into complete lines plus the unterminated
    tail. *)
