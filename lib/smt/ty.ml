(* Sorts of the ER constraint language: fixed-width bitvectors and arrays
   of bitvectors indexed by bitvectors.  Widths range over 1..64 so that a
   value always fits in a native [int64]. *)

type t =
  | Bv of int                        (* bitvector of the given width *)
  | Arr of { idx : int; elt : int }  (* array from Bv idx to Bv elt *)

(* One shared value per width, so building a sort allocates nothing. *)
let bv_sorts = Array.init 65 (fun w -> Bv w)

let bv width =
  if width < 1 || width > 64 then invalid_arg "Ty.bv: width out of 1..64";
  Array.unsafe_get bv_sorts width

let arr ~idx ~elt =
  if idx < 1 || idx > 64 then invalid_arg "Ty.arr: index width out of 1..64";
  if elt < 1 || elt > 64 then invalid_arg "Ty.arr: element width out of 1..64";
  Arr { idx; elt }

let bool = bv 1

let equal a b =
  match a, b with
  | Bv wa, Bv wb -> wa = wb
  | Arr a, Arr b -> a.idx = b.idx && a.elt = b.elt
  | Bv _, Arr _ | Arr _, Bv _ -> false

let width = function
  | Bv w -> w
  | Arr _ -> invalid_arg "Ty.width: array sort"

let pp ppf = function
  | Bv w -> Fmt.pf ppf "bv%d" w
  | Arr { idx; elt } -> Fmt.pf ppf "(arr bv%d bv%d)" idx elt

(* Mask keeping the low [w] bits of an int64; the canonical representation
   of a width-[w] constant is its value under this mask. *)
let mask w =
  if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let truncate w v = Int64.logand v (mask w)

(* Sign-extend the low [w] bits of [v] to a full int64. *)
let sign_extend w v =
  let v = truncate w v in
  if w = 64 then v
  else if Int64.equal (Int64.logand v (Int64.shift_left 1L (w - 1))) 0L then v
  else Int64.logor v (Int64.lognot (mask w))
