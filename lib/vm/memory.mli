(** Concrete memory: typed objects addressed by (object id, cell index),
    with pointers packed into int64 register values as
    [obj << 32 | index].  Object id 0 is the null object, so the null
    pointer is the integer 0.  Bounds, liveness and access-width checks
    implement the fail-stop crash detection of the runtime.

    Cells live in fixed-size pages under a copy-on-write discipline:
    {!snapshot} captures the page-pointer tables (shallow) plus the
    scalar counters, and the first store into a page after a snapshot
    copies that page.  Structural changes (alloc/free/stack release) are
    journaled so {!revert} can undo them.  Any number of checkpoints may
    be live at once; a checkpoint stays valid across repeated reverts. *)

open Er_ir.Types

type t

(** A point-in-time capture of the whole store, cheap to take (shallow
    page pointers) and to hold (unchanged pages are shared). *)
type checkpoint

val create : unit -> t

(** {1 Pointer packing} *)

val ptr : obj:int -> index:int -> int64
val ptr_obj : int64 -> int
(** The cell index is a signed 32-bit offset so negative GEPs behave
    like C. *)

val ptr_index : int64 -> int
val null : int64

(** {1 Allocation and access} *)

val alloc : t -> elt_ty:ty -> size:int -> heap:bool -> int64 option
val free : t -> int64 -> (unit, Failure.kind) result

(** Free a stack object when its frame returns (dangling pointers to it
    then fault as use-after-free). *)
val release_stack : t -> int -> unit

val load : t -> int64 -> ty:ty -> (int64, Failure.kind) result

(** [store t p ~ty v] returns [(object id, index, old value)] on
    success. *)
val store : t -> int64 -> ty:ty -> int64 -> (int * int * int64, Failure.kind) result

(** {1 Exception-based access}

    Identical checks in the identical order as {!load}/{!store} — null,
    invalid pointer, use-after-free, out-of-bounds, access type — but
    faults raise {!Fault} and successes return bare values, so the VM's
    threaded fast path pays no per-access allocation. *)

exception Fault of Failure.kind

val load_exn : t -> int64 -> ty:ty -> int64
val store_exn : t -> int64 -> ty:ty -> int64 -> unit

(** {1 Inspection} *)

(** Raw cell read for post-mortem inspection: no liveness or type
    checks; [None] only when the address names no allocated cell. *)
val peek : t -> obj:int -> index:int -> int64 option

val peak_cells : t -> int
val object_count : t -> int

(** All objects as [(id, size, element type, freed)] rows in id order. *)
val objects : t -> (int * int * ty * bool) list

(** {1 Snapshot / revert} *)

val snapshot : t -> checkpoint

(** Restore the store to the snapshot: undo the journal (drop later
    allocations, un-free later frees), reinstall the saved page tables,
    restore the counters.  Raises [Invalid_argument] if the checkpoint's
    journal position is ahead of the store's (divergent history). *)
val revert : t -> checkpoint -> unit
