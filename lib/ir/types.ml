(* EIR — the execution-reconstruction intermediate representation.

   EIR is an unstructured-CFG register language at roughly the level of
   LLVM IR, which is where the paper's modified KLEE operates: virtual
   registers, typed loads/stores against memory objects, direct calls,
   conditional branches, and explicit [input] instructions marking the
   nondeterminism sources that symbolic execution treats as unknown.

   Deliberate simplifications relative to LLVM (documented in DESIGN.md):
   registers are mutable per-frame locals rather than SSA values (no phi
   nodes), memory objects are typed arrays of fixed-width cells addressed
   by cell index (no byte reinterpretation), and calls are direct. *)

type ty = I1 | I8 | I16 | I32 | I64 | Ptr

let width_of_ty = function
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 64
  | Ptr -> 64

let ty_name = function
  | I1 -> "i1" | I8 -> "i8" | I16 -> "i16" | I32 -> "i32" | I64 -> "i64"
  | Ptr -> "ptr"

let ty_of_name = function
  | "i1" -> Some I1 | "i8" -> Some I8 | "i16" -> Some I16
  | "i32" -> Some I32 | "i64" -> Some I64 | "ptr" -> Some Ptr
  | _ -> None

type reg = string
type label = string

type value =
  | Reg of reg
  | Imm of int64 * ty
  | Global of string           (* address of a global object *)
  | Null                       (* the null pointer *)

type binop =
  | Add | Sub | Mul | Udiv | Urem
  | And | Or | Xor | Shl | Lshr | Ashr

type cmpop = Eq | Ne | Ult | Ule | Ugt | Uge | Slt | Sle | Sgt | Sge

type cast_kind = Zext | Sext | Trunc | Ptrtoint | Inttoptr

type instr =
  | Bin of { dst : reg; op : binop; ty : ty; a : value; b : value }
  | Cmp of { dst : reg; op : cmpop; ty : ty; a : value; b : value }
  | Select of { dst : reg; ty : ty; cond : value; if_true : value; if_false : value }
  | Cast of { dst : reg; kind : cast_kind; to_ty : ty; v : value; from_ty : ty }
  | Load of { dst : reg; ty : ty; addr : value }
  | Store of { ty : ty; v : value; addr : value }
  | Alloc of { dst : reg; elt_ty : ty; count : value; heap : bool }
  | Free of { addr : value }
  | Gep of { dst : reg; base : value; idx : value }   (* cell-granular *)
  | Call of { dst : reg option; func : string; args : value list }
  | Input of { dst : reg; ty : ty; stream : string }
  | Output of { v : value }
  | Ptwrite of { v : value }    (* data-value tracing instrumentation *)
  | Assert of { cond : value; msg : string }
  | Spawn of { func : string; args : value list }
  | Join
  | Lock of { addr : value }
  | Unlock of { addr : value }

type terminator =
  | Br of label
  | Cond_br of { cond : value; if_true : label; if_false : label }
  | Ret of value option
  | Abort of string
  | Unreachable

type block = { label : label; instrs : instr array; term : terminator }

type func = {
  fname : string;
  params : (reg * ty) list;
  ret_ty : ty option;
  blocks : block list;          (* first block is the entry *)
}

type global = {
  gname : string;
  g_elt_ty : ty;
  g_size : int;                 (* number of cells *)
  g_init : int64 array option;  (* None = zero-initialized *)
}

type program = { globals : global list; funcs : func list; main : string }

(* A program point identifies one instruction; instrumentation and key
   data value selection speak in program points. *)
type point = { p_func : string; p_block : label; p_index : int }

let point_compare a b =
  match String.compare a.p_func b.p_func with
  | 0 -> (
      match String.compare a.p_block b.p_block with
      | 0 -> Int.compare a.p_index b.p_index
      | c -> c)
  | c -> c

let point_to_string p = Printf.sprintf "%s:%s:%d" p.p_func p.p_block p.p_index

(* Destination register defined by an instruction, if any. *)
let def_of_instr = function
  | Bin { dst; _ } | Cmp { dst; _ } | Select { dst; _ } | Cast { dst; _ }
  | Load { dst; _ } | Alloc { dst; _ } | Gep { dst; _ } | Input { dst; _ } ->
      Some dst
  | Call { dst; _ } -> dst
  | Store _ | Free _ | Output _ | Ptwrite _ | Assert _ | Spawn _ | Join
  | Lock _ | Unlock _ ->
      None

let values_of_instr = function
  | Bin { a; b; _ } | Cmp { a; b; _ } -> [ a; b ]
  | Select { cond; if_true; if_false; _ } -> [ cond; if_true; if_false ]
  | Cast { v; _ } -> [ v ]
  | Load { addr; _ } -> [ addr ]
  | Store { v; addr; _ } -> [ v; addr ]
  | Alloc { count; _ } -> [ count ]
  | Free { addr } -> [ addr ]
  | Gep { base; idx; _ } -> [ base; idx ]
  | Call { args; _ } | Spawn { args; _ } -> args
  | Input _ | Join -> []
  | Output { v } | Ptwrite { v } -> [ v ]
  | Assert { cond; _ } -> [ cond ]
  | Lock { addr } | Unlock { addr } -> [ addr ]

let values_of_term = function
  | Cond_br { cond; _ } -> [ cond ]
  | Ret (Some v) -> [ v ]
  | Br _ | Ret None | Abort _ | Unreachable -> []

(* Deterministic dense numbering of a function's registers: parameters
   in declaration order, then every other register in first-occurrence
   order (uses before the def of each instruction, then terminator
   operands).  Returns the number of each register, the registers by
   number, and their count; the lowered register slots. *)
let number_registers (f : func) =
  let slot_of = Hashtbl.create 16 in
  let rev_names = ref [] in
  let intern r =
    if not (Hashtbl.mem slot_of r) then begin
      Hashtbl.add slot_of r (Hashtbl.length slot_of);
      rev_names := r :: !rev_names
    end
  in
  let intern_value = function Reg r -> intern r | Imm _ | Global _ | Null -> () in
  List.iter (fun (r, _) -> intern r) f.params;
  List.iter
    (fun (b : block) ->
       Array.iter
         (fun i ->
            List.iter intern_value (values_of_instr i);
            Option.iter intern (def_of_instr i))
         b.instrs;
       List.iter intern_value (values_of_term b.term))
    f.blocks;
  (slot_of, Array.of_list (List.rev !rev_names), Hashtbl.length slot_of)
