(* What every workload shares: the report it returns, the seeded RNG,
   process probes (/proc, GC) and readers for the program's own
   er_* counters. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type report = {
  attempted : int;
  failed : int;
  gated : metric list;
      (** trace 0: the metrics BENCHMARK.json lists under end_to_end *)
  named : (string * string * string) list;
      (** the workload's own end-to-end figures, printed by name:
          name, rendered value, unit *)
  layers : metric list;  (** trace 1: the per_layer metrics *)
}

(* The gated metrics every workload reports; what an "operation" is
   differs per workload (see perfbench/METRICS.md).  The typical
   operation time is a geometric mean, not a median: each workload runs
   a fixed mix of bugs whose times span three decades, and at ~100
   samples a median jumps between adjacent bugs' clusters from run to
   run, while a geometric mean over the fixed mix does not.  The
   medians are printed next to it. *)
let gated ~setup_s ~peak_rss_mb ~op_gmean_ms ~op_tail_ms ~ops_per_s
    ~cpu_ms_per_op =
  [ m "setup_s" "s" setup_s; m "peak_rss_mb" "MB" peak_rss_mb;
    m "op_gmean_ms" "ms" op_gmean_ms; m "op_tail_ms" "ms" op_tail_ms;
    m "ops_per_s" "1/s" ops_per_s; m "cpu_ms_per_op" "ms" cpu_ms_per_op ]

(* Every per-layer metric, in layer order, as (name, unit, better).  A
   workload that bypasses a layer reports 0 for its metrics. *)
let layer_metrics =
  let smt =
    List.concat_map
      (fun stage ->
         List.map
           (fun (x, u, b) -> (Printf.sprintf "smt.%s.%s" x stage, u, b))
           [ ("queries", "count", "lower"); ("query_s", "s", "lower");
             ("solver_cost", "count", "lower"); ("gates", "count", "lower");
             ("propagations", "count", "lower"); ("conflicts", "count", "lower");
             ("cache_hit_share", "ratio", "higher") ])
      [ "symex"; "select" ]
  in
  [ ("ir.lower_ms", "ms", "lower");
    ("vm.instrs", "count", "lower"); ("vm.untraced_mips", "Minstr/s", "higher");
    ("vm.reference_mips", "Minstr/s", "higher");
    ("vm.hook_calls_per_kinstr", "1/kinstr", "lower");
    ("trace.packets", "count", "lower"); ("trace.bytes", "B", "lower");
    ("trace.overwritten_bytes", "B", "lower"); ("trace.encode_s", "s", "lower");
    ("trace.decode_mbps", "MB/s", "higher");
    ("rr.overhead_x", "x", "lower"); ("rr.log_bytes_per_kinstr", "B/kinstr", "lower");
    ("tracer.busy_s", "s", "lower"); ("tracer.runs", "count", "lower");
    ("tracer.useful_share", "ratio", "higher"); ("tracer.checkpoints", "count", "lower");
    ("tracer.resumes", "count", "higher"); ("tracer.saved_instrs", "count", "higher");
    ("tracer.executed_instrs", "count", "lower");
    ("symex.busy_s", "s", "lower"); ("symex.steps", "count", "lower");
    ("symex.stalls", "count", "lower");
    ("select.busy_s", "s", "lower"); ("select.candidates", "count", "lower");
    ("select.determined_share", "ratio", "lower");
    ("verify.busy_s", "s", "lower"); ("verify.ok_share", "ratio", "higher");
    ("pipeline.occurrences", "count", "lower"); ("pipeline.runs", "count", "lower") ]
  @ smt
  @ [ ("persist.replay_share", "ratio", "higher"); ("persist.saved_cost", "count", "higher");
      ("persist.journal_bytes", "B", "lower"); ("persist.cold_fallbacks", "count", "lower");
      ("server.ack_p50_ms", "ms", "lower"); ("server.ack_tail_ms", "ms", "lower");
      ("server.refused", "count", "lower");
      ("sched.exec_p50_ms", "ms", "lower"); ("sched.exec_tail_ms", "ms", "lower");
      ("sched.wait_p50_ms", "ms", "lower"); ("sched.wait_tail_ms", "ms", "lower");
      ("sched.worker_busy_share", "ratio", "lower"); ("sched.cpu_per_wall", "ratio", "lower");
      ("gc.minor_per_repro", "count", "lower"); ("gc.major_per_repro", "count", "lower");
      ("gc.promoted_mb", "MB", "lower"); ("loadgen.lag_ms", "ms", "lower");
      ("bench.tracing_overhead_pct", "%", "lower") ]

let fail_count = ref 0

(* A failed output check: counted, reported, never fatal mid-run. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
       if not ok then begin
         incr fail_count;
         if !fail_count <= 20 then prerr_endline ("perfbench: CHECK FAILED: " ^ msg)
       end)
    fmt

let rng seed salt = Random.State.make [| seed; salt |]

(* Set up three times: [discard] the first two states, keep the last,
   and report the median set-up time, so that work moved into set-up
   shows in [setup_s] without one slow set-up deciding it. *)
let setup_three ?(discard = ignore) f =
  let timed () =
    let t0 = Stats.now () in
    let x = f () in
    (x, Stats.now () -. t0)
  in
  let a, ta = timed () in
  discard a;
  let b, tb = timed () in
  discard b;
  let c, tc = timed () in
  (c, Stats.median [ ta; tb; tc ])

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* -- process probes ------------------------------------------------ *)

(* The whole file, read to EOF (/proc files report length 0). *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let kb =
    List.find_map
      (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
         | _ -> None)
      (String.split_on_char '\n' status)
  in
  float_of_int (Option.value ~default:0 kb) /. 1024.

(* Start a fresh peak: the timed region's peak resident set should not
   include set-up's.  Writing 5 to clear_refs resets VmHWM to the
   current RSS (Linux >= 4.0); compacting first returns set-up's garbage
   when [pid] is this process. *)
let reset_peak_rss pid =
  if pid = "self" then Gc.compact ();
  try
    let oc = open_out (Printf.sprintf "/proc/%s/clear_refs" pid) in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* User + system CPU seconds of another process, from /proc. *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name; utime/stime are the
     12th and 13th of those *)
  let rest =
    String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  let hz = 100. in
  (float_of_string f.(11) +. float_of_string f.(12)) /. hz

(* -- the program's counters --------------------------------------- *)

module S = Er_metrics.Snapshot

let snap () = Er_metrics.snapshot ()

let counter (s : S.t) name =
  List.fold_left
    (fun acc -> function
       | S.Counter { name = n; value; _ } when String.equal n name -> acc + value
       | _ -> acc)
    0 s.S.samples

let hist_sum (s : S.t) name =
  List.fold_left
    (fun acc -> function
       | S.Histogram { name = n; sum; _ } when String.equal n name -> acc +. sum
       | _ -> acc)
    0. s.S.samples

(* The SMT counters a stage call moves, as (suffix, delta) pairs. *)
let smt_counters =
  [ ("queries", `C "er_smt_queries_total");
    ("query_s", `H "er_smt_query_seconds");
    ("gates", `C "er_smt_bitblast_gates_total");
    ("propagations", `C "er_smt_sat_propagations_total");
    ("conflicts", `C "er_smt_sat_conflicts_total");
    ("cache_hits", `C "er_smt_session_cache_hits_total");
    ("cache_misses", `C "er_smt_session_cache_misses_total") ]

let smt_read s =
  List.map
    (fun (k, src) ->
       ( k,
         match src with
         | `C n -> float_of_int (counter s n)
         | `H n -> hist_sum s n ))
    smt_counters

let delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after

(* -- rendering ---------------------------------------------------- *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let json_line ~correct ~attempted ~failed (metrics : metric list) =
  let open Er_json in
  to_string
    (Obj
       [ ("correct", Bool correct); ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun mt ->
                   (mt.name, Obj [ ("value", Float mt.value); ("unit", Str mt.unit_) ]))
                metrics) ) ])
