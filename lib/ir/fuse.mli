(** Block-fusion analysis over {!Lower} output.

    Decides, per basic block, which adjacent instruction runs the VM's
    threaded dispatcher may run as a single two- or three-wide
    superinstruction (a committed pair whose tail heads another
    committed pair widens to a triple), and what every dispatch unit
    costs in clock ticks.  The analysis is
    pure and static; the closure compiler that turns it into executable
    units lives in [Er_vm.Vm_state], which also compiles a recording
    plan's marks into the units.  The dynamic split point — quantum-budget
    expiry — is the dispatcher's job: it falls back to singleton units
    there, so checkpoints, virtual recording and failure reports keep
    exact instruction granularity. *)

(** {1 Fusion eligibility} *)

(** Same-frame, non-blocking instructions that may head a fused pair. *)
val fusable_head : Lower.linstr -> bool

(** {1 The per-block unit plan} *)

type block_plan = {
  fp_cost : int array;
      (** indexed by ip, with index [n] (the instruction count) standing
          for the terminator: clock ticks retired by the unit starting
          at [ip] — its width for a fused unit, 0 for ptwrite, 1
          otherwise *)
  fp_len : int array;
      (** width of the unit starting at [ip]: 3 for a fused triple, 2
          for a fused pair (last element possibly the terminator), 1
          otherwise *)
}

type t = { f_blocks : block_plan array array  (** indexed [fidx].(bidx) *) }

(** The unit plan of every block, against the committed superinstruction
    set: the adjacent opcode pairs, named by stable per-constructor
    opcode classes ("bin", "cmp", "cond_br", ...), that `bench vm
    --opcode-mix` found hottest over the Table 1 perf corpus. *)
val analyze : Lower.t -> t

(** {1 Profiling support} *)

(** The adjacent opcode-pair keys of one block, terminator included —
    the static shape the pair profile weights by the block's retirement
    count. *)
val block_pair_keys : Lower.lblock -> string list
