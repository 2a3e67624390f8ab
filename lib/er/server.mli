(** The er-serve daemon: a JSONL-over-socket front end to the scheduler.

    A single select loop owns every socket; {!Scheduler} worker domains
    run the reconstructions and signal completion through a self-pipe,
    so the loop is the only writer to any connection.  Result payloads
    are normalized with {!Fleet.normalize_json} — byte-identical to what
    a batch [er_cli fleet --json] renders for the same bug.

    The bug-name resolver is injected because [er_core] sits below the
    corpus in the library graph: the binary maps submit-frame bug names
    to programs. *)

type resolver = string -> (Job.source * Job.Config.t) option
(** Resolve a submit frame's bug name to a source and its per-bug base
    config; a frame's ["config"] field overrides on top of it. *)

type config = {
  socket_path : string;
  workers : int;
  queue_limit : int;
  cache_dir : string option;
      (** daemon-wide persistent solver-knowledge store: applied to
          every job whose submit frame did not set its own [cache_dir],
          so repeat submissions of a bug warm-start across daemon
          restarts *)
}

val default_config : config

type t

val start : ?config:config -> resolver:resolver -> unit -> t
(** Bind the sockets, spawn the worker pool and the select loop, return
    immediately. *)

val stop : t -> unit
(** Ask the daemon to drain: no new submits are accepted, outstanding
    jobs complete and deliver their frames, then the loop exits.  The
    [Shutdown] wire frame does the same from a client. *)

val wait : t -> unit
(** Block until the loop has exited, then join the worker pool and
    release the sockets. *)

(** A small blocking client for the protocol: what [er_cli loadgen] and
    the tests speak. *)
module Client : sig
  type t

  val connect : string -> t
  (** Connect to a daemon's Unix-domain socket path. *)

  val send : t -> Wire.client_frame -> unit

  val recv : t -> Wire.server_frame option
  (** Next frame, blocking; [None] on EOF. *)

  val close : t -> unit
end
