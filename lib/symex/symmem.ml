(* Symbolic memory: each VM object becomes an SMT array term that grows a
   write chain as the program stores through symbolic indices.  Object ids
   are allocated in execution order, so a replayed execution assigns the
   same ids as the production run — pointer encodings therefore agree
   between the concrete and symbolic worlds. *)

open Er_ir.Types
module Expr = Er_smt.Expr

type sobj = {
  s_id : int;
  s_elt_ty : ty;
  s_size : int;
  mutable s_arr : Expr.t;          (* current array term *)
  mutable s_sym_writes : int;      (* writes with a symbolic index or value *)
  mutable s_freed : bool;
}

type t = {
  objects : (int, sobj) Hashtbl.t;
  mutable next_id : int;
}

let create () = { objects = Hashtbl.create 64; next_id = 1 }

let idx_width = 32

let alloc t ~elt_ty ~size =
  let id = t.next_id in
  t.next_id <- id + 1;
  let arr = Expr.const_array ~idx:idx_width ~elt:(width_of_ty elt_ty) 0L in
  let o =
    { s_id = id; s_elt_ty = elt_ty; s_size = size; s_arr = arr;
      s_sym_writes = 0; s_freed = false }
  in
  Hashtbl.replace t.objects id o;
  o

(* An object carried over from a concrete run under that run's id: its
   current contents [cell i], as constant writes of the non-zero cells
   over a zero array.  The term holds what the cells hold, not the
   stores that put it there, as concrete object state does. *)
let seed t ~id ~elt_ty ~size ~freed cell =
  let w = width_of_ty elt_ty in
  let arr = ref (Expr.const_array ~idx:idx_width ~elt:w 0L) in
  for i = 0 to size - 1 do
    let v = cell i in
    if not (Int64.equal v 0L) then
      arr :=
        Expr.write !arr
          (Expr.const ~width:idx_width (Int64.of_int i))
          (Expr.const ~width:w v)
  done;
  Hashtbl.replace t.objects id
    { s_id = id; s_elt_ty = elt_ty; s_size = size; s_arr = !arr;
      s_sym_writes = 0; s_freed = freed };
  t.next_id <- max t.next_id (id + 1)

let find t id = Hashtbl.find_opt t.objects id

let init_cell o ~index v =
  o.s_arr <-
    Expr.write o.s_arr
      (Expr.const ~width:idx_width (Int64.of_int index))
      (Expr.const ~width:(width_of_ty o.s_elt_ty) v)

let read o idx = Expr.read o.s_arr idx

let write o idx value =
  if not (Expr.is_const idx && Expr.is_const value) then
    o.s_sym_writes <- o.s_sym_writes + 1;
  o.s_arr <- Expr.write o.s_arr idx value

(* Count of Write nodes remaining in the object's array term whose index
   or value is symbolic — the "length of the symbolic write chain" of
   section 3.3.1. *)
let sym_chain_length o =
  let rec go acc e =
    match Expr.node e with
    | Expr.Write { arr; idx; value } ->
        let symbolic = not (Expr.is_const idx && Expr.is_const value) in
        go (if symbolic then acc + 1 else acc) arr
    | _ -> acc
  in
  go 0 o.s_arr

(* The writes (index, value) of the symbolic write chain, oldest first
   (walking the term newest-to-oldest and prepending yields program
   order). *)
let sym_chain_writes o =
  let rec go acc e =
    match Expr.node e with
    | Expr.Write { arr; idx; value } ->
        let acc =
          if Expr.is_const idx && Expr.is_const value then acc
          else (idx, value) :: acc
        in
        go acc arr
    | _ -> acc
  in
  go [] o.s_arr

let size_bytes o = o.s_size * (width_of_ty o.s_elt_ty / 8 |> max 1)

let objects t =
  Hashtbl.fold (fun _ o acc -> o :: acc) t.objects []
  |> List.sort (fun a b -> Int.compare a.s_id b.s_id)

let object_count t = Hashtbl.length t.objects
