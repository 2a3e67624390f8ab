(* The runtime side of tracing: accumulates conditional-branch outcomes
   into TNT packets and streams packets into the ring buffer, exactly the
   work a PT-enabled CPU does on the program's behalf.  The interpreter
   calls [branch]/[thread_switch]/[ptwrite] from its hot loop, so the cost
   of this module is the online monitoring overhead that Fig. 6 measures.
   Every packet is written straight into the ring as raw bytes — the
   layout of [Packet.append_bytes], which stays the test oracle — so no
   path allocates. *)

module M = Er_metrics

(* Pre-registered handles on the process registry; every record below is
   one branch when metrics are off. *)
let m_branches =
  M.counter ~help:"Conditional-branch outcomes traced."
    "er_trace_branches_total"

let packet_counter ty =
  M.counter
    ~labels:[ ("type", ty) ]
    ~help:"Trace packets emitted, by packet type." "er_trace_packets_total"

let byte_counter ty =
  M.counter
    ~labels:[ ("type", ty) ]
    ~help:"Trace bytes emitted, by packet type." "er_trace_bytes_total"

let m_pk_psb = packet_counter "psb"
and m_pk_tnt = packet_counter "tnt"
and m_pk_tip = packet_counter "tip"
and m_pk_ptw = packet_counter "ptw"
and m_pk_mtc = packet_counter "mtc"

let m_by_psb = byte_counter "psb"
and m_by_tnt = byte_counter "tnt"
and m_by_tip = byte_counter "tip"
and m_by_ptw = byte_counter "ptw"
and m_by_mtc = byte_counter "mtc"

let m_ring_overwritten =
  M.counter ~help:"Ring-buffer bytes lost to wrap-around."
    "er_trace_ring_overwritten_bytes_total"

let m_ring_ovf =
  M.counter ~help:"Captures that ended with an overflowed (lossy) ring."
    "er_trace_ring_ovf_total"

let m_compression =
  M.gauge
    ~help:"Branch outcomes encoded per trace byte in the last capture."
    "er_trace_compression_ratio"

type stats = {
  mutable branches : int;
  mutable ptwrites : int;
  mutable switches : int;
  mutable packets : int;
  mutable bytes : int;
}

type t = {
  ring : Ring.t;
  (* TNT bits awaiting flush, accumulated as an int exactly like the
     hardware packet generator: oldest branch at the highest bit. *)
  mutable pending_bits : int;
  mutable pending_n : int;
  stats : stats;
}

let create ?(ring_bytes = 1 lsl 22) () =
  {
    ring = Ring.create ring_bytes;
    pending_bits = 0;
    pending_n = 0;
    stats = { branches = 0; ptwrites = 0; switches = 0; packets = 0; bytes = 0 };
  }

(* Account one emitted packet of [size] bytes ([Packet.size]). *)
let[@inline] counted t pk by size =
  t.stats.packets <- t.stats.packets + 1;
  t.stats.bytes <- t.stats.bytes + size;
  M.inc pk;
  M.add by size

(* The low [n] bytes of [v], least significant first. *)
let write_le ring v n =
  for i = 0 to n - 1 do
    Ring.write_byte ring (v lsr (8 * i))
  done

let flush_tnt t =
  if t.pending_n > 0 then begin
    let n = t.pending_n in
    (* byte layout of Packet.encode_tnt: marker bit 0, outcomes at bits
       1..n (newest at bit 1), stop bit at n+1 *)
    let byte = 1 lor (t.pending_bits lsl 1) lor (1 lsl (n + 1)) in
    Ring.write_byte t.ring byte;
    counted t m_pk_tnt m_by_tnt 1;
    t.pending_bits <- 0;
    t.pending_n <- 0
  end

let start t =
  Ring.write_byte t.ring Packet.op_psb;
  counted t m_pk_psb m_by_psb 1

let branch t taken =
  t.stats.branches <- t.stats.branches + 1;
  M.inc m_branches;
  t.pending_bits <- (t.pending_bits lsl 1) lor (if taken then 1 else 0);
  t.pending_n <- t.pending_n + 1;
  if t.pending_n = Packet.max_tnt_bits then flush_tnt t

(* TIP (opcode + 4-byte thread id) then MTC (opcode + the clock's low
   16 bits), both little-endian. *)
let thread_switch t ~tid ~clock =
  flush_tnt t;
  t.stats.switches <- t.stats.switches + 1;
  Ring.write_byte t.ring Packet.op_tip;
  write_le t.ring tid 4;
  counted t m_pk_tip m_by_tip 5;
  Ring.write_byte t.ring Packet.op_mtc;
  write_le t.ring clock 2;
  counted t m_pk_mtc m_by_mtc 3

let ptwrite t v =
  flush_tnt t;
  t.stats.ptwrites <- t.stats.ptwrites + 1;
  Ring.write_op64 t.ring Packet.op_ptw v;
  counted t m_pk_ptw m_by_ptw 9

(* Finish tracing and snapshot the buffer (what the ER runtime ships to
   the analysis engine when the failure fires). *)
let finish t =
  flush_tnt t;
  if M.enabled M.default then begin
    M.add m_ring_overwritten (Ring.overwritten t.ring);
    if Ring.overflowed t.ring then M.inc m_ring_ovf;
    if t.stats.bytes > 0 then
      M.set m_compression
        (float_of_int t.stats.branches /. float_of_int t.stats.bytes)
  end;
  Ring.contents t.ring

(* --- checkpoint / revert ----------------------------------------------- *)

(* A checkpoint records the ring position plus the pending (unflushed)
   TNT bits and the cumulative stats, so a resumed capture continues the
   packet stream bit-identically to the run the checkpoint was taken
   from — mid-TNT-packet included. *)

type checkpoint = {
  ck_ring : Ring.checkpoint;
  ck_pending_bits : int;
  ck_pending_n : int;
  ck_stats : stats;                (* a copy, not an alias *)
}

let m_ck_taken =
  M.counter ~help:"Encoder checkpoints taken."
    "er_trace_encoder_checkpoints_total"

let m_ck_reverted =
  M.counter ~help:"Encoder reverts that resumed the packet stream."
    "er_trace_encoder_reverts_total"

let m_ck_refused =
  M.counter
    ~help:"Encoder reverts refused (ring wrapped over checkpoint bytes)."
    "er_trace_encoder_reverts_refused_total"

let checkpoint t =
  M.inc m_ck_taken;
  {
    ck_ring = Ring.checkpoint t.ring;
    ck_pending_bits = t.pending_bits;
    ck_pending_n = t.pending_n;
    ck_stats = { t.stats with branches = t.stats.branches };
  }

let can_revert t ck = Ring.can_revert t.ring ck.ck_ring

(* [false] when post-checkpoint writes wrapped into the bytes that were
   live at the checkpoint — the stream can no longer be reconstructed. *)
let revert t ck =
  let ok =
    Ring.revert t.ring ck.ck_ring
    && begin
      t.pending_bits <- ck.ck_pending_bits;
      t.pending_n <- ck.ck_pending_n;
      t.stats.branches <- ck.ck_stats.branches;
      t.stats.ptwrites <- ck.ck_stats.ptwrites;
      t.stats.switches <- ck.ck_stats.switches;
      t.stats.packets <- ck.ck_stats.packets;
      t.stats.bytes <- ck.ck_stats.bytes;
      true
    end
  in
  if ok then M.inc m_ck_reverted else M.inc m_ck_refused;
  ok

(* Full reset: a from-scratch capture reusing the same buffer. *)
let reset t =
  Ring.clear t.ring;
  t.pending_bits <- 0;
  t.pending_n <- 0;
  t.stats.branches <- 0;
  t.stats.ptwrites <- 0;
  t.stats.switches <- 0;
  t.stats.packets <- 0;
  t.stats.bytes <- 0

let overflowed t = Ring.overflowed t.ring
let overwritten t = Ring.overwritten t.ring
let wraps t = Ring.wraps t.ring
let stats t = t.stats
let bytes_emitted t = t.stats.bytes
