(** One-time lowering of an EIR program into a dense, index-resolved
    executable form.

    [compile] turns a {!Types.program} into arrays the execution engines
    can dispatch over without string lookups: registers become integer
    slots into a per-frame array (one deterministic slot map per
    function), labels become block-array indices, call/spawn targets and
    globals become function/global-array indices, operand normalization
    widths are precomputed, and every block carries its per-class
    retirement-count delta so metrics are bumped once per block.

    Lowering is semantics-preserving for every program the validator
    accepts; name resolution happens eagerly, so unknown
    function/block/global references raise [Invalid_argument] at compile
    time instead of at first execution. *)

open Types

type operand =
  | Oslot of int  (** register slot proven defined on every path *)
  | Ocheck of { slot : int; reg : reg }
      (** slot whose definedness must be checked at runtime; [reg] is
          the source register name for the error message *)
  | Oimm of { v : int64; ity : ty }
      (** raw (un-normalized) immediate and the type it was written at *)
  | Oglobal of int  (** index into {!t.l_globals} *)
  | Onull

type linstr =
  | LBin of { dst : int; op : binop; ty : ty; w : int; a : operand; b : operand }
  | LCmp of { dst : int; op : cmpop; ty : ty; w : int; a : operand; b : operand }
  | LSelect of {
      dst : int;
      ty : ty;
      w : int;
      cond : operand;
      if_true : operand;
      if_false : operand;
    }
  | LCast of {
      dst : int;
      kind : cast_kind;
      to_ty : ty;
      from_ty : ty;
      to_w : int;
      from_w : int;
      v : operand;
    }
  | LLoad of { dst : int; ty : ty; addr : operand }
  | LStore of { ty : ty; w : int; v : operand; addr : operand }
  | LAlloc of { dst : int; elt_ty : ty; count : operand; heap : bool }
  | LFree of { addr : operand }
  | LGep of { dst : int; base : operand; idx : operand }
  | LCall of { dst : int option; fidx : int; args : operand array }
  | LInput of { dst : int; ty : ty; stream : string }
  | LOutput of { v : operand }
  | LPtwrite of { v : operand }
  | LAssert of { cond : operand; msg : string }
  | LSpawn of { fidx : int; args : operand array }
  | LJoin
  | LLock of { addr : operand }
  | LUnlock of { addr : operand }

type lterm =
  | LBr of int
  | LCond_br of { cond : operand; if_true : int; if_false : int }
  | LRet of operand option
  | LAbort of string
  | LUnreachable

(** Per-class retirement counts for a whole block (instructions plus
    terminator), matching the classes of [Er_vm.Vm_state.count_instr] /
    [count_term]; [d_cond] counts conditional branches. *)
type delta = {
  d_alu : int;
  d_load : int;
  d_store : int;
  d_mem : int;
  d_call : int;
  d_io : int;
  d_sync : int;
  d_branch : int;
  d_other : int;
  d_cond : int;
}

type lblock = {
  lb_index : int;
  lb_label : label;
  lb_instrs : linstr array;
  lb_term : lterm;
  lb_src : block;  (** original block, for cold-path source reporting *)
  lb_delta : delta;
}

type lfunc = {
  lf_idx : int;
  lf_name : string;
  lf_src : func;
  lf_params : (int * ty) array;  (** parameter slot and declared type *)
  lf_nslots : int;
  lf_reg_of_slot : reg array;
  lf_slot_of_reg : (reg, int) Hashtbl.t;
  lf_blocks : lblock array;  (** index 0 is the entry block *)
  lf_tracked : bool;
      (** true when any operand is [Ocheck]: frames of this function
          carry a per-slot definedness bitmap *)
  lf_ret_ty : ty option;
  lf_ret_w : int;
}

type t = {
  l_src : program;
  l_funcs : lfunc array;
  l_func_index : (string, int) Hashtbl.t;
  l_globals : global array;  (** program order — the allocation order *)
  l_global_index : (string, int) Hashtbl.t;
  l_main : int;
}

val compile : program -> t
val func_by_name : t -> string -> lfunc
val delta_of_block : block -> delta
val zero_delta : delta
