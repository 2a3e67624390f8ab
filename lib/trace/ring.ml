(* The trace ring buffer the OS driver hands to the hardware: a byte
   buffer of fixed capacity that silently overwrites its oldest contents.
   ER configures the capacity large enough to hold the whole failing
   execution (the paper uses 64 MB); the decoder detects and reports loss
   when it was not.

   The capacity is fixed; the storage behind it is not.  It starts as
   one small chunk and doubles, clamped to the capacity, whenever the
   head reaches its end, so a job whose trace is a few KB never touches
   the rest of a multi-megabyte ring.  Growth happens only before the
   first wrap (a ring wraps only once its storage spans the whole
   capacity), so every allocated byte below the head is live and a grow
   is a prefix copy.  Everything observable — the bytes, [written],
   [wraps], [overwritten], checkpoints and reverts — is exactly what a
   preallocated ring of the same capacity gives. *)

type t = {
  mutable data : Bytes.t;
  mutable limit : int;    (* [Bytes.length data], the write path's one bound *)
  capacity : int;
  mutable head : int;     (* next write position *)
  mutable written : int;  (* total bytes ever written *)
  mutable wraps : int;    (* times the head wrapped back to 0 *)
}

(* Storage a fresh ring starts with: enough for a Table 1 trace. *)
let first_chunk = 4096

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  let limit = min capacity first_chunk in
  { data = Bytes.create limit; limit; capacity; head = 0; written = 0;
    wraps = 0 }

let capacity t = t.capacity
let overflowed t = t.written > t.capacity

(* Bytes lost to wrap-around: everything written beyond one capacity's
   worth has clobbered the oldest data.  The ring stays silent about it
   on the write path (as the hardware does) — observers ask after the
   fact. *)
let overwritten t = max 0 (t.written - t.capacity)
let wraps t = t.wraps

(* The head reached the end of the storage: wrap when the storage is the
   whole capacity, otherwise double it (clamped to the capacity). *)
let end_of_storage t =
  if t.limit = t.capacity then begin
    t.head <- 0;
    t.wraps <- t.wraps + 1
  end
  else begin
    let limit = min t.capacity (2 * t.limit) in
    let data = Bytes.create limit in
    Bytes.blit t.data 0 data 0 t.limit;
    t.data <- data;
    t.limit <- limit
  end

let write_byte t b =
  Bytes.unsafe_set t.data t.head (Char.unsafe_chr (b land 0xFF));
  t.head <- t.head + 1;
  if t.head = t.limit then end_of_storage t;
  t.written <- t.written + 1

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* One opcode byte followed by [v] as eight little-endian bytes: the
   PTW packet.  When all nine bytes end before the end of the storage
   this is a byte store plus one unboxed 64-bit store
   ([%caml_bytes_set64u] is native-endian, so big-endian hosts swap
   first); a packet that would reach the end of the storage — the wrap
   point or a growth point — goes byte by byte.  Either way the
   [written]/[wraps]/[head] accounting is exactly nine [write_byte]s. *)
let write_op64 t op v =
  let h = t.head in
  if h + 9 < t.limit then begin
    Bytes.unsafe_set t.data h (Char.unsafe_chr (op land 0xFF));
    set64u t.data (h + 1) (if Sys.big_endian then bswap64 v else v);
    t.head <- h + 9;
    t.written <- t.written + 9
  end
  else begin
    write_byte t op;
    for i = 0 to 7 do
      write_byte t (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done
  end

(* Snapshot the live contents, oldest byte first.  Without overflow they
   start at offset 0 and run for [written] bytes — not [head], which is
   already back at 0 when the writes exactly filled the ring. *)
let contents t =
  if not (overflowed t) then Bytes.sub t.data 0 t.written
  else begin
    let out = Bytes.create t.capacity in
    let tail = t.capacity - t.head in
    Bytes.blit t.data t.head out 0 tail;
    Bytes.blit t.data 0 out tail t.head;
    out
  end

(* Keeps the storage grown so far: a reused ring does not regrow. *)
let clear t =
  t.head <- 0;
  t.written <- 0;
  t.wraps <- 0

(* --- checkpoint / revert ----------------------------------------------- *)

(* A checkpoint is just the write position: reverting only has to move
   the head back, *provided* the bytes that were live at the checkpoint
   have not been clobbered by post-checkpoint writes wrapping into them.
   [can_revert] is that validity test; an overflowed-at-checkpoint ring
   never reverts (its whole buffer was live).  Storage never shrinks, so
   a revert across a growth keeps the grown storage. *)

type checkpoint = { ck_head : int; ck_written : int; ck_wraps : int }

let checkpoint t = { ck_head = t.head; ck_written = t.written; ck_wraps = t.wraps }

let can_revert t ck =
  let since = t.written - ck.ck_written in
  since >= 0
  && (if ck.ck_written >= t.capacity then since = 0
      else since <= t.capacity - ck.ck_head)

let revert t ck =
  if can_revert t ck then begin
    t.head <- ck.ck_head;
    t.written <- ck.ck_written;
    t.wraps <- ck.ck_wraps;
    true
  end
  else false
