(* [Pipeline.config] under its pre-{!Job} name.  Reconstruction runs
   through {!Pipeline.run} or a {!Job.request}; this alias survives only
   because the perfbench harness reads [Er_core.Driver.max_occurrences]. *)

type config = Pipeline.config = {
  max_occurrences : int;
  exec_config : Er_symex.Exec.config;
  vm_config : Er_vm.Interp.config;
  ring_bytes : int;
  verify : bool;
  incremental : bool;
  checkpoint_interval : int;
}
