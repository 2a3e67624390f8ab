(* Symbolic register values.

   A value is either a bitvector term (possibly concrete) or a pointer
   with a concrete object id and a symbolic cell index.  Keeping the
   object id concrete mirrors how ER's KLEE resolves every symbolic
   memory access to concrete objects by querying the solver (section 3.2);
   in EIR, allocation sites are concrete, so the object of a well-defined
   access is always known — only the offset may be symbolic. *)

module Expr = Er_smt.Expr

type t =
  | Bv of Expr.t                        (* integer value, width of its type *)
  | Ptr of { obj : int; index : Expr.t } (* index: 32-bit cell index *)

let of_const ~width v = Bv (Expr.const ~width v)

let null = Ptr { obj = 0; index = Expr.const ~width:32 0L }

let pp ppf = function
  | Bv e -> Expr.pp ppf e
  | Ptr { obj; index } -> Fmt.pf ppf "&obj%d[%a]" obj Expr.pp index

(* Pack a pointer into its int64 register encoding as a term (needed when
   pointers are stored into memory cells). *)
let encode = function
  | Bv e -> e
  | Ptr { obj; index } ->
      Expr.add
        (Expr.const ~width:64 (Int64.shift_left (Int64.of_int obj) 32))
        (Expr.zero_extend ~to_:64 index)

(* Recover a pointer from a 64-bit term when its object id is syntactically
   evident (constant high bits); otherwise keep it as a bitvector and let
   the executor concretize via the solver if it is ever dereferenced. *)
let decode_ptr (e : Expr.t) : t =
  match Expr.to_const e with
  | Some v ->
      Ptr
        { obj = Er_vm.Memory.ptr_obj v;
          index = Expr.const ~width:32 (Int64.of_int (Er_vm.Memory.ptr_index v)) }
  | None -> (
      (* patterns produced by [encode]: (obj<<32) + zext(index), or just
         zext(index) when obj = 0; the smart constructor may have put the
         constant on either side of the addition *)
      let as_zext_index t =
        match Expr.node t with
        | Expr.Concat (z, idx) when Expr.is_const z && Expr.width idx = 32 -> (
            match Expr.to_const z with
            | Some 0L -> Some idx
            | Some _ | None -> None)
        | _ -> None
      in
      match Expr.node e with
      | Expr.Binop (Expr.Add, a, b) -> (
          let try_pair base rest =
            match Expr.to_const base, as_zext_index rest with
            | Some bv, Some idx when Int64.equal (Int64.logand bv 0xFFFFFFFFL) 0L ->
                Some (Ptr { obj = Int64.to_int (Int64.shift_right_logical bv 32);
                            index = idx })
            | _ -> None
          in
          match try_pair a b with
          | Some p -> p
          | None -> (
              match try_pair b a with Some p -> p | None -> Bv e))
      | _ -> (
          match as_zext_index e with
          | Some idx -> Ptr { obj = 0; index = idx }
          | None -> Bv e))

let expect_bv = function
  | Bv e -> e
  | Ptr _ as p -> encode p
