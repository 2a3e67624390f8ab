(* Concrete memory: a store of typed objects addressed by (object id,
   cell index), with pointers packed into int64 register values as
   [obj << 32 | index].  Object id 0 is the null object, so the null
   pointer is the integer 0.  Bounds, liveness and access-width checks
   implement the fail-stop crash detection of the runtime.

   Cells are stored in fixed-size pages under a copy-on-write discipline
   so the whole store can be snapshotted in O(live pages' pointers):
   [snapshot] records shallow page-pointer tables plus the scalar
   counters and bumps a generation; the first store into a page whose
   generation is stale copies the page first.  Structural changes
   (allocation, free, stack release) go through an operation journal so
   [revert] can undo them; data writes need no journal entries — the
   checkpoint's page pointers still reference the pre-write pages.
   Checkpoints stay valid across repeated reverts and across later
   snapshots. *)

open Er_ir.Types

(* 256 cells (2 KiB) per page: small enough that CoW copies stay cheap,
   large enough that the two-level indirection stays off profile. *)
let page_bits = 8
let page_cells = 1 lsl page_bits
let page_mask = page_cells - 1

(* Unchecked native-endian 64-bit bytes access: compiler primitives (the
   same ones behind [Bytes.get_int64_ne]), compiled to a single unboxed
   move.  Offsets are in cells; callers guarantee bounds via the ordered
   checks of the access paths. *)
external b64_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] pget (page : Bytes.t) off = b64_get page (off lsl 3)
let[@inline] pset (page : Bytes.t) off v = b64_set page (off lsl 3) v

type obj = {
  o_id : int;
  o_elt_ty : ty;
  o_size : int;
  (* int64 cells stored as raw bytes, cell [i] at byte offset [8*i]: a
     store is one unboxed write with no box allocation and no
     caml_modify barrier, a load feeds unboxed int64 arithmetic
     directly, and neither pays a C call.  Access only through
     [pget]/[pset]. *)
  mutable o_pages : Bytes.t array;
  o_pgen : int array;              (* per-page generation of last copy *)
  o_heap : bool;
  mutable o_freed : bool;
}

(* Undo log for structural mutations since a checkpoint. *)
type journal_entry =
  | J_alloc of int                 (* object id to drop on revert *)
  | J_free of int                  (* object id to un-free on revert *)

type t = {
  objects : (int, obj) Hashtbl.t;
  mutable next_id : int;
  mutable live_cells : int;
  mutable peak_cells : int;
  mutable gen : int;               (* bumped at snapshot and revert *)
  mutable journal : journal_entry list;
  mutable journal_len : int;
  (* direct-mapped lookup cache for the exn access path, indexed by
     [id land cache_mask]: hot loops touch a handful of objects
     (induction cell, a global table or two, the current heap record)
     and a field compare beats a Hashtbl probe.  Cached records are the
     live ones (free/un-free mutate them in place), so only [revert] —
     which can remove ids from [objects] and then reuse them — must
     invalidate. *)
  cache : obj array;
}

type checkpoint = {
  ck_next_id : int;
  ck_live_cells : int;
  ck_peak_cells : int;
  ck_journal_len : int;
  (* shallow page-pointer tables of every un-freed object at snapshot
     time; freed objects are immutable (stores fault) so theirs need no
     copy *)
  ck_pages : (int * Bytes.t array) list;
}

(* Never stored in [objects] (ids start at 1), so a cache slot primed
   with it can't produce a false hit: a null pointer (id 0) finds
   [o_id = 0] but always fails the bounds check ([o_size = 0]) and
   resolves through the slow path's precedence-ordered checks. *)
let cache_empty =
  { o_id = 0; o_elt_ty = I64; o_size = 0; o_pages = [||]; o_pgen = [||];
    o_heap = false; o_freed = true }

let cache_slots = 16
let cache_mask = cache_slots - 1

let create () =
  { objects = Hashtbl.create 64; next_id = 1; live_cells = 0; peak_cells = 0;
    gen = 0; journal = []; journal_len = 0;
    cache = Array.make cache_slots cache_empty }

(* --- pointer packing -------------------------------------------------- *)

let ptr ~obj ~index =
  Int64.logor
    (Int64.shift_left (Int64.of_int obj) 32)
    (Int64.logand (Int64.of_int index) 0xFFFFFFFFL)

let ptr_obj (p : int64) = Int64.to_int (Int64.shift_right_logical p 32)

(* index is a signed 32-bit offset so that negative GEPs behave like C *)
let ptr_index (p : int64) = Int64.to_int (Int64.of_int32 (Int64.to_int32 p))

let null = 0L
let is_null p = Int64.equal p 0L

(* --- allocation ------------------------------------------------------- *)

let max_object_cells = 1 lsl 24

(* Structural changes before the first snapshot can never need undoing
   (no checkpoint precedes them), so the journal only starts recording
   once [gen] has been bumped. *)
let journal_push t e =
  if t.gen > 0 then begin
    t.journal <- e :: t.journal;
    t.journal_len <- t.journal_len + 1
  end

let alloc t ~elt_ty ~size ~heap =
  if size < 0 || size > max_object_cells then None
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let cells = max size 1 in
    let npages = (cells + page_mask) lsr page_bits in
    let o =
      { o_id = id; o_elt_ty = elt_ty; o_size = size;
        (* pages are sized exactly — only the last one is partial, and
           in-page offsets never reach past it, so small allocas don't
           pay for a full page *)
        o_pages =
          Array.init npages (fun pg ->
              Bytes.make ((min page_cells (cells - (pg lsl page_bits))) lsl 3)
                '\000');
        o_pgen = Array.make npages t.gen;
        o_heap = heap; o_freed = false }
    in
    Hashtbl.replace t.objects id o;
    journal_push t (J_alloc id);
    t.live_cells <- t.live_cells + size;
    if t.live_cells > t.peak_cells then t.peak_cells <- t.live_cells;
    Some (ptr ~obj:id ~index:0)
  end

let find t id = Hashtbl.find_opt t.objects id

let free t p : (unit, Failure.kind) result =
  if is_null p then Error Failure.Null_deref
  else
    match find t (ptr_obj p) with
    | None -> Error Failure.Invalid_pointer
    | Some o ->
        if o.o_freed then Error (Failure.Double_free { obj = o.o_id })
        else if not o.o_heap then Error Failure.Invalid_pointer
        else begin
          o.o_freed <- true;
          journal_push t (J_free o.o_id);
          t.live_cells <- t.live_cells - o.o_size;
          Ok ()
        end

(* Free a stack object when its frame returns (dangling pointers to it
   then fault as use-after-free). *)
let release_stack t id =
  match find t id with
  | Some o when not o.o_freed ->
      o.o_freed <- true;
      journal_push t (J_free id);
      t.live_cells <- t.live_cells - o.o_size
  | Some _ | None -> ()

(* --- access ------------------------------------------------------------ *)

let check_access t p ~ty : (obj * int, Failure.kind) result =
  if is_null p then Error Failure.Null_deref
  else
    match find t (ptr_obj p) with
    | None -> Error Failure.Invalid_pointer
    | Some o ->
        if o.o_freed then Error (Failure.Use_after_free { obj = o.o_id })
        else begin
          let index = ptr_index p in
          if index < 0 || index >= o.o_size then
            Error (Failure.Out_of_bounds { obj = o.o_id; index; size = o.o_size })
          else if o.o_elt_ty <> ty then
            Error
              (Failure.Access_type_error
                 (Printf.sprintf "object of %s accessed as %s"
                    (ty_name o.o_elt_ty) (ty_name ty)))
          else Ok (o, index)
        end

let load t p ~ty : (int64, Failure.kind) result =
  match check_access t p ~ty with
  | Error e -> Error e
  | Ok (o, index) ->
      (* in bounds by check_access + exact page sizing *)
      Ok
        (pget
           (Array.unsafe_get o.o_pages (index lsr page_bits))
           (index land page_mask))

let store t p ~ty v : (int * int * int64, Failure.kind) result =
  match check_access t p ~ty with
  | Error e -> Error e
  | Ok (o, index) ->
      let pg = index lsr page_bits and off = index land page_mask in
      let page = Array.unsafe_get o.o_pages pg in
      let page =
        (* first write into this page since the last snapshot/revert:
           copy, so checkpoints keep referencing the old page *)
        if Array.unsafe_get o.o_pgen pg = t.gen then page
        else begin
          let fresh = Bytes.copy page in
          Array.unsafe_set o.o_pages pg fresh;
          Array.unsafe_set o.o_pgen pg t.gen;
          fresh
        end
      in
      let old = pget page off in
      pset page off v;
      Ok (o.o_id, index, old)

(* --- exception-based access --------------------------------------------- *)

(* [load]/[store] allocate a result (and a tuple) per access, which
   dominates the threaded dispatcher's memory-op cost.  The [_exn]
   variants perform the identical checks in the identical order —
   null, then invalid pointer, then use-after-free, then bounds, then
   access type — but report faults by exception and return bare values,
   so the hot path is allocation-free.  The hooked/reference paths keep
   the [result] API ([store]'s old-value triple feeds [on_store]). *)

exception Fault of Failure.kind

(* All [ty] constructors are nullary, so physical equality is structural
   equality without the caml_equal call. *)
let[@inline] ty_eq (a : ty) (b : ty) = a == b

(* Out-of-line path: cache miss, or a fast check failed.  Re-runs the
   full precedence-ordered checks (so a sentinel hit on an empty slot,
   a genuinely faulty access, and a mere miss all resolve correctly) and
   refills the object's slot on success. *)
let slow_checked t p ~ty : obj =
  if is_null p then raise (Fault Failure.Null_deref);
  let o =
    match Hashtbl.find t.objects (ptr_obj p) with
    | o -> o
    | exception Not_found -> raise (Fault Failure.Invalid_pointer)
  in
  if o.o_freed then raise (Fault (Failure.Use_after_free { obj = o.o_id }));
  let index = ptr_index p in
  if index < 0 || index >= o.o_size then
    raise (Fault (Failure.Out_of_bounds { obj = o.o_id; index; size = o.o_size }));
  if not (ty_eq o.o_elt_ty ty) then
    raise
      (Fault
         (Failure.Access_type_error
            (Printf.sprintf "object of %s accessed as %s"
               (ty_name o.o_elt_ty) (ty_name ty))));
  Array.unsafe_set t.cache (o.o_id land cache_mask) o;
  o

(* Small enough to inline into the VM's access closures: on a cache hit
   all checks are register compares; everything else falls out of
   line. *)
let[@inline] checked_obj t p ~ty : obj =
  let id = ptr_obj p in
  let o = Array.unsafe_get t.cache (id land cache_mask) in
  if o.o_id = id then begin
    let index = ptr_index p in
    if
      o.o_freed || index < 0 || index >= o.o_size
      || not (ty_eq o.o_elt_ty ty)
    then slow_checked t p ~ty
    else o
  end
  else slow_checked t p ~ty

let[@inline] load_exn t p ~ty : int64 =
  let o = checked_obj t p ~ty in
  let index = ptr_index p in
  (* in bounds by checked_obj + exact page sizing *)
  pget
    (Array.unsafe_get o.o_pages (index lsr page_bits))
    (index land page_mask)

let[@inline] store_exn t p ~ty v : unit =
  let o = checked_obj t p ~ty in
  let index = ptr_index p in
  let pg = index lsr page_bits and off = index land page_mask in
  let page = Array.unsafe_get o.o_pages pg in
  let page =
    if Array.unsafe_get o.o_pgen pg = t.gen then page
    else begin
      let fresh = Bytes.copy page in
      Array.unsafe_set o.o_pages pg fresh;
      Array.unsafe_set o.o_pgen pg t.gen;
      fresh
    end
  in
  pset page off v

(* Raw cell read for post-mortem inspection: no liveness or type checks,
   [None] only when the address is outside any object. *)
let peek t ~obj ~index =
  match find t obj with
  | Some o when index >= 0 && index < o.o_size ->
      Some (pget o.o_pages.(index lsr page_bits) (index land page_mask))
  | Some _ | None -> None

let peak_cells t = t.peak_cells
let object_count t = Hashtbl.length t.objects

let objects t =
  Hashtbl.fold
    (fun id o acc -> (id, o.o_size, o.o_elt_ty, o.o_freed) :: acc)
    t.objects []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

(* --- snapshot / revert -------------------------------------------------- *)

let snapshot t : checkpoint =
  let pages =
    Hashtbl.fold
      (fun id o acc ->
         if o.o_freed then acc else (id, Array.copy o.o_pages) :: acc)
      t.objects []
  in
  t.gen <- t.gen + 1;
  {
    ck_next_id = t.next_id;
    ck_live_cells = t.live_cells;
    ck_peak_cells = t.peak_cells;
    ck_journal_len = t.journal_len;
    ck_pages = pages;
  }

let revert t (ck : checkpoint) =
  if ck.ck_journal_len > t.journal_len then
    invalid_arg "Memory.revert: checkpoint from a divergent history";
  (* undo structural changes, newest first *)
  while t.journal_len > ck.ck_journal_len do
    (match t.journal with
     | [] -> assert false
     | e :: rest ->
         (match e with
          | J_alloc id -> Hashtbl.remove t.objects id
          | J_free id -> (
              match find t id with
              | Some o -> o.o_freed <- false
              | None -> ()));
         t.journal <- rest);
    t.journal_len <- t.journal_len - 1
  done;
  (* restore page tables; re-copy the pointer arrays so the checkpoint
     survives further mutation and can be reverted to again *)
  List.iter
    (fun (id, pages) ->
       match find t id with
       | Some o -> o.o_pages <- Array.copy pages
       | None -> ())
    ck.ck_pages;
  t.next_id <- ck.ck_next_id;
  t.live_cells <- ck.ck_live_cells;
  t.peak_cells <- ck.ck_peak_cells;
  (* stale every page generation so the next store copies first: the
     restored pages are shared with the checkpoint *)
  t.gen <- t.gen + 1;
  (* ids removed above may be re-allocated to new records *)
  Array.fill t.cache 0 cache_slots cache_empty
