(* Hash-consed term DAG for the ER constraint language.

   Every term is interned, so structural equality is physical equality and
   each node has a unique integer id.  Smart constructors perform
   constant folding and the local rewrites that a solver front-end such as
   STP would apply (read-over-write at equal/distinct constant indices,
   neutral elements, ite collapsing, ...).

   Interning is organized into {e spaces} so that independent failure
   reconstructions — the unit of work of fleet mode — are bit-for-bit
   deterministic regardless of how many domains run concurrently:

   - each space owns its own intern table, guarded by a mutex, so a
     space shared between domains stays consistent;
   - ids come from one process-wide atomic counter, so they are unique
     across *all* spaces (two distinct terms never share an id, which
     keeps id-keyed caches and id-deduplicated traversals sound even
     when terms from different spaces meet);
   - within one space, the *relative* order of two ids depends only on
     the interning order of that space's client.  A fleet worker that
     runs a bug inside a fresh space therefore reproduces the exact
     id ordering — and hence the exact equality orientation, blasting
     structure and solver trajectory — of a sequential run, no matter
     what the other domains are interning in their own spaces.

   The default space is created at module init (it owns [tru], [fls] and
   everything a non-fleet caller builds); [in_fresh_space] scopes a
   computation to a brand-new empty space on the current domain. *)

type unop =
  | Neg                              (* two's complement negation *)
  | Lognot                           (* bitwise complement *)

type binop =
  | Add | Sub | Mul | Udiv | Urem
  | And | Or | Xor
  | Shl | Lshr | Ashr

type cmpop = Eq | Ult | Ule | Slt | Sle

type node =
  | Const of int64                          (* value, truncated to width *)
  | Var of string                           (* symbolic input *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | Ite of t * t * t
  | Extract of { hi : int; lo : int; arg : t }
  | Concat of t * t                         (* high-part, low-part *)
  | Read of { arr : t; idx : t }
  | Write of { arr : t; idx : t; value : t }
  | Const_array of int64                    (* every element = default *)

and t = { node : node; ty : Ty.t; id : int; hkey : int }

let node e = e.node
let ty e = e.ty
let id e = e.id

let width e = Ty.width e.ty

let equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Stdlib.compare a.id b.id
let hash (a : t) = a.hkey

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* A term's [hkey] is its intern hash folded to 30 bits. *)
let hkey_mask = (1 lsl 30) - 1

(* The intern hash: integer mixing of the node's tag, operator, child
   ids, constant and sort, folded to 30 bits.  It builds nothing, so
   looking up a term that already exists allocates only the caller's
   node.  The hash decides where a term sits in its space's table, never
   its id: ids are assigned in interning order. *)
let mix h x = (h lxor x) * 0x100000001b3

let unop_tag = function Neg -> 0 | Lognot -> 1

let binop_tag = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Udiv -> 3 | Urem -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Shl -> 8 | Lshr -> 9 | Ashr -> 10

let cmpop_tag = function Eq -> 0 | Ult -> 1 | Ule -> 2 | Slt -> 3 | Sle -> 4

let mix_int64 h v =
  mix (mix h (Int64.to_int v)) (Int64.to_int (Int64.shift_right_logical v 32))

let hash_node ty n =
  let h =
    match n with
    | Const v -> mix_int64 1 v
    | Var s -> mix 2 (Hashtbl.hash s)
    | Unop (op, a) -> mix (mix 3 (unop_tag op)) a.id
    | Binop (op, a, b) -> mix (mix (mix 4 (binop_tag op)) a.id) b.id
    | Cmp (op, a, b) -> mix (mix (mix 5 (cmpop_tag op)) a.id) b.id
    | Ite (c, a, b) -> mix (mix (mix 6 c.id) a.id) b.id
    | Extract { hi; lo; arg } -> mix (mix (mix 7 hi) lo) arg.id
    | Concat (a, b) -> mix (mix 8 a.id) b.id
    | Read { arr; idx } -> mix (mix 9 arr.id) idx.id
    | Write { arr; idx; value } -> mix (mix (mix 10 arr.id) idx.id) value.id
    | Const_array v -> mix_int64 11 v
  in
  let h =
    match ty with
    | Ty.Bv w -> mix h w
    | Ty.Arr { idx; elt } -> mix (mix h (64 + idx)) elt
  in
  (* fold the high bits down, so the table index (the low bits) depends
     on every input *)
  let h = (h lxor (h lsr 32)) * 0xd6e8feb86659fd9 in
  (h lxor (h lsr 32)) land hkey_mask

let node_equal na nb =
  match na, nb with
  | Const a, Const b -> Int64.equal a b
  | Var a, Var b -> String.equal a b
  | Unop (o1, a1), Unop (o2, a2) -> o1 = o2 && a1 == a2
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
  | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
  | Extract e1, Extract e2 -> e1.hi = e2.hi && e1.lo = e2.lo && e1.arg == e2.arg
  | Concat (a1, b1), Concat (a2, b2) -> a1 == a2 && b1 == b2
  | Read r1, Read r2 -> r1.arr == r2.arr && r1.idx == r2.idx
  | Write w1, Write w2 ->
      w1.arr == w2.arr && w1.idx == w2.idx && w1.value == w2.value
  | Const_array a, Const_array b -> Int64.equal a b
  | ( ( Const _ | Var _ | Unop _ | Binop _ | Cmp _ | Ite _ | Extract _
      | Concat _ | Read _ | Write _ | Const_array _ ),
      _ ) ->
      false

(* Ids are unique across every space for the lifetime of the process. *)
let next_id = Atomic.make 0

(* A space's hash-cons table is open-addressed: a key array and a term
   array, probed linearly and kept at most half full.  Interning on a
   large table is bound by memory latency (symex interns a term or two
   per step), and a probe reads the dense key array first and
   dereferences a term only on a hash match — one or two cache misses
   per lookup, where a chained table pays for the bucket, the chain cell
   and the term.  A slot's key is the term's [hkey]; -1 marks an empty
   slot.  A space starts small and doubles when half full: a job interns
   hundreds to a few thousand terms, and a term's id comes from the
   global counter, not from its slot, so the table's size never shows in
   the interning order. *)
type space = {
  sp_mutex : Mutex.t;
  mutable sp_keys : int array;
  mutable sp_terms : t array;
  mutable sp_count : int;          (* terms interned *)
}

let initial_slots = 1_024
let empty_slot = { node = Const_array 0L; ty = Ty.bool; id = -1; hkey = -1 }

let create_space () =
  {
    sp_mutex = Mutex.create ();
    sp_keys = Array.make initial_slots (-1);
    sp_terms = Array.make initial_slots empty_slot;
    sp_count = 0;
  }

(* The first empty slot of the probe sequence starting at [i]. *)
let rec free_slot keys i =
  if Array.unsafe_get keys i = -1 then i
  else free_slot keys ((i + 1) land (Array.length keys - 1))

let grow sp =
  let old_keys = sp.sp_keys and old_terms = sp.sp_terms in
  let n = 2 * Array.length old_keys in
  let keys = Array.make n (-1) and terms = Array.make n empty_slot in
  Array.iteri
    (fun j k ->
       if k <> -1 then begin
         let i = free_slot keys (k land (n - 1)) in
         keys.(i) <- k;
         terms.(i) <- old_terms.(j)
       end)
    old_keys;
  sp.sp_keys <- keys;
  sp.sp_terms <- terms

(* The space terms are interned into, per domain.  Every domain starts
   in the shared default space; fleet workers switch to a fresh space
   per task via [with_space] / [in_fresh_space]. *)
let default_space = create_space ()
let current : space Domain.DLS.key = Domain.DLS.new_key (fun () -> default_space)

let with_space sp f =
  let prev = Domain.DLS.get current in
  Domain.DLS.set current sp;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current prev) f

let in_fresh_space f = with_space (create_space ()) f

let intern ty n =
  let sp = Domain.DLS.get current in
  let hkey = hash_node ty n in
  Mutex.lock sp.sp_mutex;
  let keys = sp.sp_keys in
  let mask = Array.length keys - 1 in
  let rec probe i =
    let k = Array.unsafe_get keys i in
    if k = -1 then begin
      let e = { node = n; ty; id = Atomic.fetch_and_add next_id 1; hkey } in
      Array.unsafe_set keys i hkey;
      Array.unsafe_set sp.sp_terms i e;
      sp.sp_count <- sp.sp_count + 1;
      if 2 * sp.sp_count > Array.length keys then grow sp;
      e
    end
    else if k = hkey then begin
      let e = Array.unsafe_get sp.sp_terms i in
      if node_equal e.node n && Ty.equal e.ty ty then e
      else probe ((i + 1) land mask)
    end
    else probe ((i + 1) land mask)
  in
  let e = probe (hkey land mask) in
  Mutex.unlock sp.sp_mutex;
  e

(* Number of distinct terms ever created (across all spaces); used by
   the offline-overhead experiment of section 5.3. *)
let live_nodes () = Atomic.get next_id

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let const ~width v = intern (Ty.bv width) (Const (Ty.truncate width v))
let bool_ b = const ~width:1 (if b then 1L else 0L)
let tru = bool_ true
let fls = bool_ false

let var name ty = intern ty (Var name)
let bv_var name ~width = var name (Ty.bv width)
let arr_var name ~idx ~elt = var name (Ty.arr ~idx ~elt)
let const_array ~idx ~elt default =
  intern (Ty.arr ~idx ~elt) (Const_array (Ty.truncate elt default))

let is_const e = match e.node with Const _ -> true | _ -> false

let to_const e = match e.node with Const v -> Some v | _ -> None

let is_true e = match e.node with Const 1L when width e = 1 -> true | _ -> false
let is_false e = match e.node with Const 0L when width e = 1 -> true | _ -> false

let elt_width e =
  match e.ty with
  | Ty.Arr { elt; _ } -> elt
  | Ty.Bv _ -> invalid_arg "Expr.elt_width: not an array"

let idx_width e =
  match e.ty with
  | Ty.Arr { idx; _ } -> idx
  | Ty.Bv _ -> invalid_arg "Expr.idx_width: not an array"

(* --- concrete semantics of the operators (shared with Model.eval) --- *)

let eval_unop op w a =
  let open Int64 in
  match op with
  | Neg -> Ty.truncate w (neg a)
  | Lognot -> Ty.truncate w (lognot a)

let eval_binop op w a b =
  let open Int64 in
  match op with
  | Add -> Ty.truncate w (add a b)
  | Sub -> Ty.truncate w (sub a b)
  | Mul -> Ty.truncate w (mul a b)
  | Udiv -> if equal b 0L then Ty.mask w else Ty.truncate w (unsigned_div a b)
  | Urem -> if equal b 0L then a else Ty.truncate w (unsigned_rem a b)
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl ->
      let s = to_int (Ty.truncate w b) in
      if s >= w then 0L else Ty.truncate w (shift_left a s)
  | Lshr ->
      let s = to_int (Ty.truncate w b) in
      if s >= w then 0L else shift_right_logical a s
  | Ashr ->
      let s = to_int (Ty.truncate w b) in
      let sa = Ty.sign_extend w a in
      if s >= 63 then Ty.truncate w (shift_right sa 63)
      else Ty.truncate w (shift_right sa s)

let eval_cmp op w a b =
  let sa = Ty.sign_extend w a and sb = Ty.sign_extend w b in
  match op with
  | Eq -> Int64.equal a b
  | Ult -> Int64.unsigned_compare a b < 0
  | Ule -> Int64.unsigned_compare a b <= 0
  | Slt -> Int64.compare sa sb < 0
  | Sle -> Int64.compare sa sb <= 0

(* --- bitvector operations with folding ------------------------------ *)

let unop op a =
  let w = width a in
  match a.node with
  | Const va -> const ~width:w (eval_unop op w va)
  | _ -> intern a.ty (Unop (op, a))

let check_same_width name a b =
  if width a <> width b then
    invalid_arg (Printf.sprintf "Expr.%s: width mismatch (%d vs %d)"
                   name (width a) (width b))

let rec binop op a b =
  check_same_width "binop" a b;
  let w = width a in
  match a.node, b.node with
  | Const va, Const vb -> const ~width:w (eval_binop op w va vb)
  | _ -> (
      match op with
      | Add -> (
          match a.node, b.node with
          | Const 0L, _ -> b
          | _, Const 0L -> a
          (* (x + c1) + c2  ==>  x + (c1+c2): keeps address arithmetic flat *)
          | Binop (Add, x, { node = Const c1; _ }), Const c2 ->
              binop Add x (const ~width:w (Int64.add c1 c2))
          | Const _, _ -> intern a.ty (Binop (Add, b, a))
          | _ -> intern a.ty (Binop (Add, a, b)))
      | Sub ->
          if a == b then const ~width:w 0L
          else if is_const_zero b then a
          else intern a.ty (Binop (Sub, a, b))
      | Mul -> (
          match a.node, b.node with
          | Const 0L, _ -> a
          | _, Const 0L -> b
          | Const 1L, _ -> b
          | _, Const 1L -> a
          | Const _, _ -> intern a.ty (Binop (Mul, b, a))
          | _ -> intern a.ty (Binop (Mul, a, b)))
      | And -> (
          match a.node, b.node with
          | Const 0L, _ -> a
          | _, Const 0L -> b
          | Const m, _ when Int64.equal m (Ty.mask w) -> b
          | _, Const m when Int64.equal m (Ty.mask w) -> a
          | _ when a == b -> a
          | _ -> intern a.ty (Binop (And, a, b)))
      | Or -> (
          match a.node, b.node with
          | Const 0L, _ -> b
          | _, Const 0L -> a
          | Const m, _ when Int64.equal m (Ty.mask w) -> a
          | _, Const m when Int64.equal m (Ty.mask w) -> b
          | _ when a == b -> a
          | _ -> intern a.ty (Binop (Or, a, b)))
      | Xor ->
          if a == b then const ~width:w 0L
          else if is_const_zero a then b
          else if is_const_zero b then a
          else intern a.ty (Binop (Xor, a, b))
      | Shl | Lshr | Ashr ->
          if is_const_zero b then a else intern a.ty (Binop (op, a, b))
      | Udiv ->
          (match b.node with
           | Const 1L -> a
           | _ -> intern a.ty (Binop (op, a, b)))
      | Urem -> intern a.ty (Binop (op, a, b)))

and is_const_zero e = match e.node with Const 0L -> true | _ -> false

let add a b = binop Add a b
let sub a b = binop Sub a b
let mul a b = binop Mul a b
let udiv a b = binop Udiv a b
let urem a b = binop Urem a b
let logand_ a b = binop And a b
let logor_ a b = binop Or a b
let logxor_ a b = binop Xor a b
let shl a b = binop Shl a b
let lshr a b = binop Lshr a b
let ashr a b = binop Ashr a b
let neg a = unop Neg a
let lognot_ a = unop Lognot a

let cmp op a b =
  check_same_width "cmp" a b;
  let w = width a in
  match a.node, b.node with
  | Const va, Const vb -> bool_ (eval_cmp op w va vb)
  | _ ->
      if a == b then
        bool_ (match op with Eq | Ule | Sle -> true | Ult | Slt -> false)
      else
        (* orient equality by id so that [eq a b] and [eq b a] intern to the
           same node *)
        let a, b =
          match op with Eq when a.id > b.id -> b, a | _ -> a, b
        in
        intern Ty.bool (Cmp (op, a, b))

let eq a b = cmp Eq a b
let ult a b = cmp Ult a b
let ule a b = cmp Ule a b
let slt a b = cmp Slt a b
let sle a b = cmp Sle a b

let not_ a =
  if width a <> 1 then invalid_arg "Expr.not_: not a boolean";
  match a.node with
  | Const v -> bool_ (Int64.equal v 0L)
  | Unop (Lognot, inner) -> inner
  | _ -> unop Lognot a

let ne a b = not_ (eq a b)
let ugt a b = ult b a
let uge a b = ule b a
let sgt a b = slt b a
let sge a b = sle b a

let and_ a b =
  if is_true a then b
  else if is_true b then a
  else if is_false a || is_false b then fls
  else logand_ a b

let or_ a b =
  if is_false a then b
  else if is_false b then a
  else if is_true a || is_true b then tru
  else logor_ a b

let implies a b = or_ (not_ a) b

let ite c a b =
  if width c <> 1 then invalid_arg "Expr.ite: condition not boolean";
  if not (Ty.equal a.ty b.ty) then invalid_arg "Expr.ite: branch sort mismatch";
  if is_true c then a
  else if is_false c then b
  else if a == b then a
  else
    match a.node, b.node with
    (* ite c 1 0 = c ; ite c 0 1 = not c (boolean-valued ite) *)
    | Const 1L, Const 0L when Ty.equal a.ty Ty.bool -> c
    | Const 0L, Const 1L when Ty.equal a.ty Ty.bool -> not_ c
    | _ -> intern a.ty (Ite (c, a, b))

let extract ~hi ~lo arg =
  let w = width arg in
  if lo < 0 || hi >= w || hi < lo then invalid_arg "Expr.extract: bad range";
  if lo = 0 && hi = w - 1 then arg
  else
    let nw = hi - lo + 1 in
    match arg.node with
    | Const v ->
        const ~width:nw (Int64.shift_right_logical v lo)
    | Extract { lo = lo'; arg = inner; _ } ->
        intern (Ty.bv nw) (Extract { hi = hi + lo'; lo = lo + lo'; arg = inner })
    | _ -> intern (Ty.bv nw) (Extract { hi; lo; arg })

let concat hi lo =
  let wh = width hi and wl = width lo in
  if wh + wl > 64 then invalid_arg "Expr.concat: result too wide";
  match hi.node, lo.node with
  | Const vh, Const vl ->
      const ~width:(wh + wl) (Int64.logor (Int64.shift_left vh wl) vl)
  | _ -> intern (Ty.bv (wh + wl)) (Concat (hi, lo))

let zero_extend ~to_ arg =
  let w = width arg in
  if to_ < w then invalid_arg "Expr.zero_extend";
  if to_ = w then arg else concat (const ~width:(to_ - w) 0L) arg

let sign_extend_e ~to_ arg =
  let w = width arg in
  if to_ < w then invalid_arg "Expr.sign_extend";
  if to_ = w then arg
  else
    let sign = extract ~hi:(w - 1) ~lo:(w - 1) arg in
    let ext = ite (eq sign (const ~width:1 1L)) (const ~width:(to_ - w) (-1L))
        (const ~width:(to_ - w) 0L) in
    concat ext arg

let truncate ~to_ arg =
  let w = width arg in
  if to_ > w then invalid_arg "Expr.truncate";
  if to_ = w then arg else extract ~hi:(to_ - 1) ~lo:0 arg

(* --- array operations ----------------------------------------------- *)

let write arr idx value =
  (match arr.ty with
   | Ty.Arr { idx = iw; elt = ew } ->
       if width idx <> iw then invalid_arg "Expr.write: index width";
       if width value <> ew then invalid_arg "Expr.write: element width"
   | Ty.Bv _ -> invalid_arg "Expr.write: not an array");
  (* write a i (read a i) = a *)
  (match value.node with
   | Read { arr = a'; idx = i' } when a' == arr && i' == idx -> arr
   | _ ->
       (* overwrite at the same index: write (write a i v) i w = write a i w *)
       match arr.node with
       | Write { arr = base; idx = i'; _ } when i' == idx ->
           intern arr.ty (Write { arr = base; idx; value })
       | _ -> intern arr.ty (Write { arr; idx; value }))

let rec read arr idx =
  (match arr.ty with
   | Ty.Arr { idx = iw; _ } ->
       if width idx <> iw then invalid_arg "Expr.read: index width"
   | Ty.Bv _ -> invalid_arg "Expr.read: not an array");
  match arr.node with
  | Const_array default -> const ~width:(elt_width arr) default
  | Write { arr = base; idx = widx; value } -> (
      if widx == idx then value
      else
        match widx.node, idx.node with
        (* distinct constant indices: skip over the write *)
        | Const a, Const b when not (Int64.equal a b) -> read base idx
        | _ -> intern (Ty.bv (elt_width arr)) (Read { arr; idx }))
  | _ -> intern (Ty.bv (elt_width arr)) (Read { arr; idx })

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

let children e =
  match e.node with
  | Const _ | Var _ | Const_array _ -> []
  | Unop (_, a) | Extract { arg = a; _ } -> [ a ]
  | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) -> [ a; b ]
  | Ite (a, b, c) -> [ a; b; c ]
  | Read { arr; idx } -> [ arr; idx ]
  | Write { arr; idx; value } -> [ arr; idx; value ]

(* Depth-first post-order fold over the distinct subterms of [roots]. *)
let fold_subterms f acc roots =
  let seen = Hashtbl.create 256 in
  let acc = ref acc in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.add seen e.id ();
      List.iter go (children e);
      acc := f !acc e
    end
  in
  List.iter go roots;
  !acc

let iter_subterms f roots = fold_subterms (fun () e -> f e) () roots

let size e = fold_subterms (fun n _ -> n + 1) 0 [ e ]

(* Free variables, in first-occurrence order. *)
let vars roots =
  List.rev
    (fold_subterms
       (fun acc e -> match e.node with Var _ -> e :: acc | _ -> acc)
       [] roots)

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let unop_name = function Neg -> "neg" | Lognot -> "not"

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Udiv -> "udiv"
  | Urem -> "urem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"

let cmpop_name = function
  | Eq -> "eq" | Ult -> "ult" | Ule -> "ule" | Slt -> "slt" | Sle -> "sle"

let rec pp ppf e =
  match e.node with
  | Const v ->
      if width e = 1 then Fmt.string ppf (if Int64.equal v 1L then "true" else "false")
      else Fmt.pf ppf "%Ld:bv%d" v (width e)
  | Var s -> Fmt.string ppf s
  | Unop (op, a) -> Fmt.pf ppf "(%s %a)" (unop_name op) pp a
  | Binop (op, a, b) -> Fmt.pf ppf "(%s %a %a)" (binop_name op) pp a pp b
  | Cmp (op, a, b) -> Fmt.pf ppf "(%s %a %a)" (cmpop_name op) pp a pp b
  | Ite (c, a, b) -> Fmt.pf ppf "(ite %a %a %a)" pp c pp a pp b
  | Extract { hi; lo; arg } -> Fmt.pf ppf "(extract %d %d %a)" hi lo pp arg
  | Concat (a, b) -> Fmt.pf ppf "(concat %a %a)" pp a pp b
  | Read { arr; idx } -> Fmt.pf ppf "(read %a %a)" pp arr pp idx
  | Write { arr; idx; value } ->
      Fmt.pf ppf "(write %a %a %a)" pp arr pp idx pp value
  | Const_array v -> Fmt.pf ppf "(const-array %Ld)" v

let to_string e = Fmt.str "%a" pp e
