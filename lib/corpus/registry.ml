(* All corpus entries, in the order of the paper's Table 1. *)

let table1 : Bug.spec list =
  [
    Php_2012_2386.spec;
    Php_74194.spec;
    Sqlite_7be932d.spec;
    Sqlite_787fa71.spec;
    Sqlite_4e8e485.spec;
    Nasm_2004_1287.spec;
    Objdump_2018_6323.spec;
    Matrixssl_2014_1569.spec;
    Memcached_2019_11596.spec;
    Libpng_2004_0597.spec;
    Bash_108885.spec;
    Python_2018_1000030.spec;
    Pbzip2.spec;
  ]

let find name =
  List.find_opt (fun (s : Bug.spec) -> String.equal s.Bug.name name) table1

let running_example = Running_example.spec

(* Section 5.4 case-study programs (not part of Table 1). *)
let case_studies : Bug.spec list = [ Coreutils_od.spec; Coreutils_pr.spec ]

(* The long-trace workload family: warmup-dominated runs that the
   incremental tracer resumes past.  Benchmarked by `bench longtrace`;
   deliberately not part of Table 1, whose gates it would skew. *)
let long_trace = Long_trace.spec

let all = table1 @ case_studies @ [ running_example; long_trace ]

let find_any name =
  List.find_opt (fun (s : Bug.spec) -> String.equal s.Bug.name name) all

(* The daemon's bug-name resolver over every entry: the source and
   default config of the bug's {!Bug.request}, which submit frames
   override field by field. *)
let resolver name : (Er_core.Job.source * Er_core.Job.Config.t) option =
  Option.map
    (fun s -> (Bug.source s, (Bug.request s).Er_core.Job.config))
    (find_any name)
