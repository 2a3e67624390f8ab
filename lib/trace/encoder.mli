(** The runtime side of hardware-style tracing: accumulates branch
    outcomes into TNT packets and streams packets into the ring buffer —
    the per-instruction work whose cost is the online monitoring overhead
    of Fig. 6.  Every packet path — branch, ptwrite, thread switch,
    sync — writes its bytes straight into the ring and allocates
    nothing; the byte stream is exactly [Packet.append_bytes] of the
    packet sequence. *)

type stats = {
  mutable branches : int;
  mutable ptwrites : int;
  mutable switches : int;
  mutable packets : int;
  mutable bytes : int;
}

type t

(** [create ~ring_bytes ()] sizes the trace ring buffer; ER provisions it
    for the largest expected failing execution (the paper uses 64 MB). *)
val create : ?ring_bytes:int -> unit -> t

(** Emit the PSB sync packet; must precede all events. *)
val start : t -> unit

(** One conditional-branch outcome. *)
val branch : t -> bool -> unit

(** Chunk boundary: TIP (thread id) + MTC (low 16 clock bits). *)
val thread_switch : t -> tid:int -> clock:int -> unit

(** A traced data value (ptwrite instrumentation or allocation size). *)
val ptwrite : t -> int64 -> unit

(** Flush pending TNT bits and snapshot the ring contents — what the ER
    runtime ships to the analysis engine when the failure fires. *)
val finish : t -> Bytes.t

(** {1 Checkpoint / revert}

    A checkpoint records the ring position, the pending (unflushed) TNT
    bits and the cumulative stats; {!revert} resumes the packet stream
    bit-identically mid-capture.  Reverting fails (returns [false]) when
    post-checkpoint writes wrapped into bytes that were live at the
    checkpoint, or when the ring had already overflowed. *)

type checkpoint

val checkpoint : t -> checkpoint
val can_revert : t -> checkpoint -> bool
val revert : t -> checkpoint -> bool

(** Full reset for a from-scratch capture reusing the same buffer. *)
val reset : t -> unit

val overflowed : t -> bool

(** Ring bytes lost to wrap-around so far (0 unless [overflowed]). *)
val overwritten : t -> int

(** Times the ring head wrapped back to offset 0. *)
val wraps : t -> int

val stats : t -> stats
val bytes_emitted : t -> int
