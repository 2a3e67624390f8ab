(* Block-fusion analysis over the lowered form.

   [analyze] partitions every basic block into execution units the VM's
   threaded dispatcher runs one closure call at a time: singleton units
   (one lowered instruction, or the terminator) and two- or three-wide
   superinstructions built from the adjacent opcode pairs named in the
   committed pair set (a pair whose tail starts another committed pair
   widens to a triple).  The analysis is pure bookkeeping — which ip
   starts a fused unit and how many clock ticks each unit retires — so
   it lives beside
   [Lower]; the closure compiler that consumes it lives in the VM, which
   owns the runtime state the closures mutate.

   Fusion never crosses a block boundary except into the block's own
   terminator (the classic cmp+cond_br loop-exit pair), and only
   instructions that stay on the same frame and cannot block are
   eligible: calls, spawns and the sync ops keep their own dispatch step
   so thread scheduling, blocking and frame pushes happen exactly where
   the unfused engine puts them.  Ptwrite is excluded because it retires
   clock-free ([Stepped_free]) and must keep its zero-cost dispatch.
   Plan-marked blocks and quantum budgets split units dynamically at run
   time (the dispatcher falls back to singletons); this module only
   decides the static shape. *)

module L = Lower

(* --- opcode classes -------------------------------------------------------- *)

(* One stable name per lowered constructor: the vocabulary of the
   [er_vm_top_opcode_pair] profile and of the committed pair set. *)
let opclass : L.linstr -> string = function
  | L.LBin _ -> "bin"
  | L.LCmp _ -> "cmp"
  | L.LSelect _ -> "select"
  | L.LCast _ -> "cast"
  | L.LLoad _ -> "load"
  | L.LStore _ -> "store"
  | L.LAlloc _ -> "alloc"
  | L.LFree _ -> "free"
  | L.LGep _ -> "gep"
  | L.LCall _ -> "call"
  | L.LInput _ -> "input"
  | L.LOutput _ -> "output"
  | L.LPtwrite _ -> "ptwrite"
  | L.LAssert _ -> "assert"
  | L.LSpawn _ -> "spawn"
  | L.LJoin -> "join"
  | L.LLock _ -> "lock"
  | L.LUnlock _ -> "unlock"

let termclass : L.lterm -> string = function
  | L.LBr _ -> "br"
  | L.LCond_br _ -> "cond_br"
  | L.LRet _ -> "ret"
  | L.LAbort _ -> "abort"
  | L.LUnreachable -> "unreachable"

let pair_key a b = a ^ "+" ^ b

(* --- fusion eligibility ---------------------------------------------------- *)

(* Same-frame instructions that either retire ([Stepped]) or crash; a
   crash mid-unit is safe because every sub-instruction updates ip and
   the clock itself, so the failure report and the partial metric flush
   see the exact instruction.  Excluded: call/spawn (frame or thread-set
   changes end a dispatch step), input (stream cursor interplay is kept
   on its own step), ptwrite (clock-free), and the sync ops (may
   block). *)
let fusable_instr : L.linstr -> bool = function
  | L.LBin _ | L.LCmp _ | L.LSelect _ | L.LCast _ | L.LLoad _ | L.LStore _
  | L.LGep _ | L.LAssert _ | L.LOutput _ -> true
  | L.LAlloc _ | L.LFree _ | L.LCall _ | L.LInput _ | L.LPtwrite _
  | L.LSpawn _ | L.LJoin | L.LLock _ | L.LUnlock _ -> false

let fusable_head = fusable_instr
let fusable_tail_instr = fusable_instr

(* Terminator tails: the jump decodes inside the fused closure, after
   the head retires.  Abort/unreachable stay singletons — they always
   crash, so there is nothing to win. *)
let fusable_tail_term : L.lterm -> bool = function
  | L.LBr _ | L.LCond_br _ | L.LRet _ -> true
  | L.LAbort _ | L.LUnreachable -> false

(* The committed superinstruction set: every fusable pair whose
   aggregate weight over the Table 1 perf corpus exceeds ~10k block-
   weighted occurrences in `bench vm --opcode-mix` (the
   er_vm_top_opcode_pair attribution table aggregates the same counts
   at run end).  Mined weights as of PR 10, hottest first; input+bin
   (10.2k) is excluded because input heads are not fusable.  See
   DESIGN.md "Block fusion & threaded dispatch". *)
let default_pairs : (string * string) list =
  [
    ("cmp", "cond_br");    (* 77.8k — loop exit: compare feeding the branch *)
    ("load", "cmp");       (* 61.3k — loaded value compared *)
    ("store", "br");       (* 55.7k — store closing a loop body *)
    ("bin", "store");      (* 50.2k — computed value stored back *)
    ("load", "bin");       (* 34.9k — load feeding arithmetic *)
    ("gep", "load");       (* 34.1k — address computation feeding the access *)
    ("bin", "gep");        (* 30.7k — index arithmetic feeding addressing *)
    ("gep", "store");      (* 20.6k *)
    ("bin", "bin");        (* 17.1k — arithmetic runs *)
    ("cast", "bin");       (* 13.2k — width adjustment feeding arithmetic *)
    ("store", "load");     (* 12.1k *)
    ("load", "output");    (* 11.6k *)
    ("store", "bin");      (* 10.5k *)
    ("bin", "cmp");        (* 10.1k — induction step feeding the compare *)
    ("output", "store");   (*  9.6k *)
  ]

(* --- the per-block unit plan ----------------------------------------------- *)

(* Arrays are indexed by instruction ip, with index [n] (= number of
   instructions) standing for the terminator.  [fp_len.(ip)] is the
   width of the unit starting at [ip]: 3 for a fused triple, 2 for a
   fused pair (the last element is possibly the terminator), 1
   otherwise.  [fp_cost.(ip)] is the clock ticks the unit starting at
   [ip] retires: its width for a fused unit, 0 for ptwrite, 1
   otherwise. *)
type block_plan = { fp_cost : int array; fp_len : int array }

type t = { f_blocks : block_plan array array (* [fidx].(bidx) *) }

let plan_block (b : L.lblock) : block_plan =
  let n = Array.length b.L.lb_instrs in
  let cost = Array.make (n + 1) 1 in
  let len = Array.make (n + 1) 1 in
  Array.iteri
    (fun ip i -> match i with L.LPtwrite _ -> cost.(ip) <- 0 | _ -> ())
    b.L.lb_instrs;
  let committed head tail = List.mem (head, tail) default_pairs in
  (* [link ip]: the unit element at [ip] may extend to also cover
     position [ip + 1] (an instruction, or at [n] the terminator). *)
  let link ip =
    let i = b.L.lb_instrs.(ip) in
    fusable_head i
    && (if ip + 1 < n then
          let j = b.L.lb_instrs.(ip + 1) in
          fusable_tail_instr j && committed (opclass i) (opclass j)
        else
          fusable_tail_term b.L.lb_term
          && committed (opclass i) (termclass b.L.lb_term))
  in
  (* Greedy, widest-first: a committed pair whose tail itself links to
     its successor becomes a triple (e.g. load+cmp+cond_br, the classic
     loop exit, where pairwise greed would otherwise strand the
     cond_br as a singleton). *)
  let ip = ref 0 in
  while !ip < n do
    if link !ip then
      if !ip + 1 < n && link (!ip + 1) then begin
        cost.(!ip) <- 3;
        len.(!ip) <- 3;
        ip := !ip + 3
      end
      else begin
        cost.(!ip) <- 2;
        len.(!ip) <- 2;
        ip := !ip + 2
      end
    else incr ip
  done;
  { fp_cost = cost; fp_len = len }

let analyze (low : L.t) : t =
  {
    f_blocks =
      Array.map
        (fun (lf : L.lfunc) -> Array.map plan_block lf.L.lf_blocks)
        low.L.l_funcs;
  }

(* --- profiling support ----------------------------------------------------- *)

(* The adjacent opcode-pair keys of one block, terminator included —
   the static shape the [er_vm_top_opcode_pair] profile weights by the
   block's retirement count. *)
let block_pair_keys (b : L.lblock) : string list =
  let n = Array.length b.L.lb_instrs in
  let keys = ref [] in
  for ip = n - 1 downto 0 do
    let head = opclass b.L.lb_instrs.(ip) in
    let tail =
      if ip + 1 < n then opclass b.L.lb_instrs.(ip + 1)
      else termclass b.L.lb_term
    in
    keys := pair_key head tail :: !keys
  done;
  !keys
