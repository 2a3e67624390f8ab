(* The random data-recording ablation of section 5.2: record the same
   *amount* of data as key data value selection, but pick the recorded
   elements uniformly at random from all recordable elements of the
   constraint graph instead of from the bottleneck chains. *)

open Er_ir.Types
module Expr = Er_smt.Expr
module Cgraph = Er_symex.Cgraph

(* deterministic xorshift so the ablation is reproducible *)
let next_rand state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  state := x land max_int;
  !state

(* All recordable program points in the constraint graph. *)
let recordable_points (graph : Cgraph.t) : point list =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  List.iter
    (fun root ->
       Expr.iter_subterms
         (fun e ->
            match Cgraph.provenance graph e with
            | Some p ->
                let key = point_to_string p.Cgraph.pr_point in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  acc := p.Cgraph.pr_point :: !acc
                end
            | None -> ())
         [ root ])
    graph.Cgraph.assertions;
  List.sort point_compare !acc

(* Pick [count] random recordable points. *)
let pick ~seed (graph : Cgraph.t) ~count : point list =
  let pool = Array.of_list (recordable_points graph) in
  let n = Array.length pool in
  if n = 0 then []
  else begin
    let state = ref (max 1 seed) in
    let chosen = Hashtbl.create 8 in
    let out = ref [] in
    let attempts = ref 0 in
    while Hashtbl.length chosen < min count n && !attempts < 64 * count do
      incr attempts;
      let i = next_rand state mod n in
      if not (Hashtbl.mem chosen i) then begin
        Hashtbl.add chosen i ();
        out := pool.(i) :: !out
      end
    done;
    !out
  end

(* Pipeline variant: iterate like ER but with random selection of the
   same cardinality.  Returns (reproduced?, occurrences used). *)
let reconstruct ?(config = Er_core.Pipeline.default_config) ~seed
    ~(base_prog : program) ~(workload : Er_core.Pipeline.workload) () =
  let exec_config = config.Er_core.Pipeline.exec_config in
  let points : point list ref = ref [] in
  let reproduced = ref false in
  let occ = ref 0 in
  let analyzed = ref 0 in
  while (not !reproduced) && !occ < config.Er_core.Pipeline.max_occurrences do
    incr occ;
    let inst_prog, mapper = Er_select.Instrument.apply base_prog !points in
    let inst_indexed = Er_ir.Prog.of_program inst_prog in
    let inputs, sched_seed = workload ~occurrence:!occ in
    let enc = Er_trace.Encoder.create () in
    Er_trace.Encoder.start enc;
    let vm_config =
      { Er_vm.Interp.default_config with
        sched_seed; hooks = Er_vm.Vm_state.recording_hooks enc }
    in
    let vm_result = Er_vm.Interp.run ~config:vm_config inst_indexed inputs in
    match vm_result.Er_vm.Interp.outcome with
    | Er_vm.Interp.Finished _ -> ()
    | Er_vm.Interp.Failed failure -> (
        incr analyzed;
        match Er_trace.Decoder.decode (Er_trace.Encoder.finish enc) with
        | Error _ -> ()
        | Ok events ->
            let split = Er_trace.Decoder.split events in
            let sx =
              Er_symex.Exec.run ~config:exec_config inst_indexed ~trace:split
                ~failure ~failure_clock:vm_result.Er_vm.Interp.instr_count
            in
            (match sx.Er_symex.Exec.outcome with
             | Er_symex.Exec.Complete _ -> reproduced := true
             | Er_symex.Exec.Stalled stall ->
                 (* how much would ER record?  match that cardinality *)
                 let bset =
                   Er_select.Bottleneck.compute stall.Er_symex.Exec.graph
                     stall.Er_symex.Exec.memory
                 in
                 let plan =
                   Er_select.Recording.reduce stall.Er_symex.Exec.graph
                     bset.Er_select.Bottleneck.elements
                 in
                 let count =
                   max 1 (List.length (Er_select.Recording.points plan))
                 in
                 let random_points =
                   pick ~seed:(seed + !occ) stall.Er_symex.Exec.graph ~count
                 in
                 let mapped = List.filter_map mapper random_points in
                 let fresh =
                   List.filter
                     (fun p ->
                        not (List.exists (fun q -> point_compare p q = 0) !points))
                     mapped
                 in
                 points := !points @ fresh
             | Er_symex.Exec.Diverged _ -> ()))
  done;
  (!reproduced, !analyzed, List.length !points)
