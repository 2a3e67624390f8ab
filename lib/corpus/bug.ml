(* A corpus entry: one miniature application with a production bug, its
   failing workload (what production traffic looks like when the failure
   fires) and its performance workload (the benchmark used to measure
   online tracing overhead, Fig. 6). *)

type spec = {
  name : string;                 (* corpus id, e.g. "php-74194" *)
  models : string;               (* paper's Application-BugID *)
  bug_type : string;
  multithreaded : bool;
  program : Er_ir.Types.program;
  failing_workload : Er_core.Pipeline.workload;
  perf_inputs : unit -> Er_vm.Inputs.t;
  config : Er_core.Pipeline.config;
}

(* Budgets are per-bug: the paper tunes a 30 s solver timeout globally;
   our deterministic equivalents scale with how heavy each miniature's
   constraints are. *)
let config_with ?(max_occurrences = 24) ?(solver_budget = 600_000)
    ?(gate_budget = 120_000) () =
  {
    Er_core.Pipeline.default_config with
    max_occurrences;
    exec_config = { Er_symex.Exec.solver_budget; gate_budget };
  }

(* What a job reconstructs for [s]: its program under its failing
   workload. *)
let source (s : spec) : Er_core.Job.source =
  {
    Er_core.Job.src_name = s.name;
    src_prog = s.program;
    src_workload = s.failing_workload;
  }

(* The job request that reconstructs [s] under its budgets, with the
   solver store under [cache_dir] when given.  The CLI, the fleet and
   the bench all run corpus bugs through one of these.  One tenant
   serves them all: fair queueing matters only on a scheduler that
   clients share, and a corpus batch gets a scheduler of its own. *)
let request ?cache_dir (s : spec) : Er_core.Job.request =
  {
    Er_core.Job.tenant = "corpus";
    work = Er_core.Job.Reconstruct (source s);
    config = { (Er_core.Job.Config.of_pipeline s.config) with cache_dir };
  }
