(* One-time lowering of an EIR program into a dense, index-resolved
   executable form — the pre-lowered code cache both execution engines
   (the concrete VM and the shepherded symbolic executor) dispatch over.

   What lowering resolves, once per program instead of once per retired
   instruction:

     - string registers become integer slots into a per-frame array
       (one slot map per function, params first, then first-occurrence
       order — deterministic, so slot numbering is reproducible);
     - labels become indices into the function's block array and call /
       spawn targets become indices into the program's function array;
     - globals become indices into the allocation-order global array;
     - operand widths (the [width_of_ty] of the type an operand is
       normalized at) are precomputed per instruction;
     - every block carries its per-class instruction-count delta so the
       engines can account a whole retired block with one batched
       counter add per class instead of a match-and-increment per
       instruction.

   Semantics note: lowering resolves names eagerly, so a program that
   references an unknown function / block / global fails here (at
   [compile] time) instead of lazily at first execution of the bad
   instruction.  Once a function's names resolve, [compile] applies the
   validator's use rules to it under its own slot numbering
   ([Validate.function_fault], and [Validate.main_fault] for the entry
   point), for programs that skip validation (test-built programs,
   instrumented rewrites): a register read not defined on every path
   from entry, or a call, spawn or [main] with the wrong number of
   arguments, raises [Invalid_argument] here too.  Every register
   operand of the result is therefore a plain slot read of a written
   slot, and every call site matches its callee's parameter count.
   Programs the builder or parser produced are unaffected. *)

open Types

type operand =
  | Oslot of int                          (* register slot, defined on every path *)
  | Oimm of { v : int64; ity : ty }       (* raw immediate; [ity] is its own type *)
  | Oglobal of int                        (* index into the global array *)
  | Onull

type linstr =
  | LBin of { dst : int; op : binop; ty : ty; w : int; a : operand; b : operand }
  | LCmp of { dst : int; op : cmpop; ty : ty; w : int; a : operand; b : operand }
  | LSelect of {
      dst : int; ty : ty; w : int;
      cond : operand; if_true : operand; if_false : operand;
    }
  | LCast of {
      dst : int; kind : cast_kind;
      to_ty : ty; from_ty : ty; to_w : int; from_w : int; v : operand;
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

(* Per-class retirement counts for one whole block (instructions plus
   terminator), precomputed so that the VM bumps each class counter once
   per retired block.  Field names follow the metric classes of
   [Er_vm.Vm_state.count_instr]/[count_term]; [d_cond] is the conditional-
   branch count feeding [er_vm_branches_total]. *)
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
  lb_src : block;          (* original block: cold paths report source instrs *)
  lb_delta : delta;
}

type lfunc = {
  lf_idx : int;
  lf_name : string;
  lf_src : func;
  lf_params : (int * ty) array;       (* slot and declared type, in order *)
  lf_nslots : int;
  lf_reg_of_slot : reg array;         (* slot -> register name, for hooks *)
  lf_slot_of_reg : (reg, int) Hashtbl.t;
  lf_blocks : lblock array;           (* index 0 is the entry block *)
  lf_ret_ty : ty option;
  lf_ret_w : int;                     (* return-value normalization width *)
}

type t = {
  l_src : program;
  l_funcs : lfunc array;
  l_func_index : (string, int) Hashtbl.t;
  l_globals : global array;           (* program order = allocation order *)
  l_global_index : (string, int) Hashtbl.t;
  l_main : int;
  l_has_spawn : bool;                 (* some instruction spawns a thread *)
}

(* ------------------------------------------------------------------ *)
(* Per-block metric deltas                                             *)
(* ------------------------------------------------------------------ *)

let zero_delta =
  { d_alu = 0; d_load = 0; d_store = 0; d_mem = 0; d_call = 0; d_io = 0;
    d_sync = 0; d_branch = 0; d_other = 0; d_cond = 0 }

let delta_of_block (b : block) : delta =
  let d = ref zero_delta in
  Array.iter
    (fun (i : instr) ->
       let c = !d in
       d :=
         (match i with
          | Bin _ | Cmp _ | Select _ | Cast _ | Gep _ ->
              { c with d_alu = c.d_alu + 1 }
          | Load _ -> { c with d_load = c.d_load + 1 }
          | Store _ -> { c with d_store = c.d_store + 1 }
          | Alloc _ | Free _ -> { c with d_mem = c.d_mem + 1 }
          | Call _ -> { c with d_call = c.d_call + 1 }
          | Input _ | Output _ | Ptwrite _ -> { c with d_io = c.d_io + 1 }
          | Spawn _ | Join | Lock _ | Unlock _ ->
              { c with d_sync = c.d_sync + 1 }
          | Assert _ -> { c with d_other = c.d_other + 1 }))
    b.instrs;
  let c = !d in
  match b.term with
  | Br _ -> { c with d_branch = c.d_branch + 1 }
  | Cond_br _ -> { c with d_branch = c.d_branch + 1; d_cond = c.d_cond + 1 }
  | Ret _ -> { c with d_call = c.d_call + 1 }
  | Abort _ | Unreachable -> { c with d_other = c.d_other + 1 }

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let compile (p : program) : t =
  let l_globals = Array.of_list p.globals in
  let l_global_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (g : global) -> Hashtbl.replace l_global_index g.gname i)
    l_globals;
  let funcs = Array.of_list p.funcs in
  let l_func_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : func) -> Hashtbl.replace l_func_index f.fname i)
    funcs;
  let params name =
    List.length funcs.(Hashtbl.find l_func_index name).params
  in
  let use_fault = Option.iter (fun msg -> invalid_arg ("Lower: " ^ msg)) in
  let func_idx ~in_ name =
    match Hashtbl.find_opt l_func_index name with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Lower: unknown function %s (called from %s)" name
             in_)
  in
  let lower_func lf_idx (f : func) : lfunc =
    let slot_of, reg_of_slot, nslots = number_registers f in
    let block_index = Hashtbl.create 16 in
    List.iteri (fun i (b : block) -> Hashtbl.replace block_index b.label i)
      f.blocks;
    let block_idx label =
      match Hashtbl.find_opt block_index label with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf "Lower: unknown block %s in %s" label f.fname)
    in
    let lower_block bi (b : block) : lblock =
      let operand = function
        | Imm (v, ity) -> Oimm { v; ity }
        | Null -> Onull
        | Global g -> (
            match Hashtbl.find_opt l_global_index g with
            | Some i -> Oglobal i
            | None ->
                invalid_arg
                  (Printf.sprintf "Lower: unknown global %s in %s" g f.fname))
        | Reg r -> Oslot (Hashtbl.find slot_of r)
      in
      let def r = Hashtbl.find slot_of r in
      let lower_instr (i : instr) : linstr =
        match i with
        | Bin { dst; op; ty; a; b } ->
            let a = operand a and b = operand b in
            LBin { dst = def dst; op; ty; w = width_of_ty ty; a; b }
        | Cmp { dst; op; ty; a; b } ->
            let a = operand a and b = operand b in
            LCmp { dst = def dst; op; ty; w = width_of_ty ty; a; b }
        | Select { dst; ty; cond; if_true; if_false } ->
            let cond = operand cond in
            let if_true = operand if_true and if_false = operand if_false in
            LSelect
              { dst = def dst; ty; w = width_of_ty ty; cond; if_true; if_false }
        | Cast { dst; kind; to_ty; v; from_ty } ->
            let v = operand v in
            LCast
              { dst = def dst; kind; to_ty; from_ty;
                to_w = width_of_ty to_ty; from_w = width_of_ty from_ty; v }
        | Load { dst; ty; addr } ->
            let addr = operand addr in
            LLoad { dst = def dst; ty; addr }
        | Store { ty; v; addr } ->
            LStore { ty; w = width_of_ty ty; v = operand v; addr = operand addr }
        | Alloc { dst; elt_ty; count; heap } ->
            let count = operand count in
            LAlloc { dst = def dst; elt_ty; count; heap }
        | Free { addr } -> LFree { addr = operand addr }
        | Gep { dst; base; idx } ->
            let base = operand base and idx = operand idx in
            LGep { dst = def dst; base; idx }
        | Call { dst; func; args } ->
            let args = Array.of_list (List.map operand args) in
            LCall
              { dst = Option.map def dst; fidx = func_idx ~in_:f.fname func;
                args }
        | Input { dst; ty; stream } -> LInput { dst = def dst; ty; stream }
        | Output { v } -> LOutput { v = operand v }
        | Ptwrite { v } -> LPtwrite { v = operand v }
        | Assert { cond; msg } -> LAssert { cond = operand cond; msg }
        | Spawn { func; args } ->
            LSpawn
              { fidx = func_idx ~in_:f.fname func;
                args = Array.of_list (List.map operand args) }
        | Join -> LJoin
        | Lock { addr } -> LLock { addr = operand addr }
        | Unlock { addr } -> LUnlock { addr = operand addr }
      in
      let lb_instrs = Array.map lower_instr b.instrs in
      let lb_term =
        match b.term with
        | Br l -> LBr (block_idx l)
        | Cond_br { cond; if_true; if_false } ->
            LCond_br
              { cond = operand cond; if_true = block_idx if_true;
                if_false = block_idx if_false }
        | Ret v -> LRet (Option.map operand v)
        | Abort msg -> LAbort msg
        | Unreachable -> LUnreachable
      in
      { lb_index = bi; lb_label = b.label; lb_instrs; lb_term; lb_src = b;
        lb_delta = delta_of_block b }
    in
    let lf_blocks = Array.of_list (List.mapi lower_block f.blocks) in
    if Array.length lf_blocks = 0 then
      invalid_arg (Printf.sprintf "Lower: function %s has no blocks" f.fname);
    use_fault
      (Validate.function_fault f ~params ~slot:(Hashtbl.find slot_of)
         ~nregs:nslots ~block:block_idx);
    let lf_params =
      Array.of_list
        (List.map (fun (r, ty) -> (Hashtbl.find slot_of r, ty)) f.params)
    in
    {
      lf_idx;
      lf_name = f.fname;
      lf_src = f;
      lf_params;
      lf_nslots = nslots;
      lf_reg_of_slot = reg_of_slot;
      lf_slot_of_reg = slot_of;
      lf_blocks;
      lf_ret_ty = f.ret_ty;
      lf_ret_w = width_of_ty (match f.ret_ty with Some t -> t | None -> I64);
    }
  in
  let l_funcs = Array.mapi lower_func funcs in
  let l_main =
    match Hashtbl.find_opt l_func_index p.main with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Lower: main function %s not found" p.main)
  in
  use_fault (Validate.main_fault p ~params);
  let l_has_spawn =
    List.exists
      (fun (f : func) ->
         List.exists
           (fun (b : block) ->
              Array.exists (function Spawn _ -> true | _ -> false) b.instrs)
           f.blocks)
      p.funcs
  in
  { l_src = p; l_funcs; l_func_index; l_globals; l_global_index; l_main;
    l_has_spawn }

let func_by_name t name =
  match Hashtbl.find_opt t.l_func_index name with
  | Some i -> t.l_funcs.(i)
  | None -> invalid_arg (Printf.sprintf "Lower: unknown function %s" name)
