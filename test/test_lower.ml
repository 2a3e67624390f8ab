(* Differential tests for the pre-lowered code cache (lib/ir/lower.ml).

   The lowered VM and shepherded-symex engines must be observationally
   identical to the retained reference engines on every program: same
   outcome, same outputs, same packet stream, same branch-outcome
   sequence, same metric counters, and — for symex — the same
   deterministic solver trajectory. *)

open Er_ir.Types
module Prog = Er_ir.Prog
module Lower = Er_ir.Lower
module Interp = Er_vm.Interp
module Exec = Er_symex.Exec
module Bug = Er_corpus.Bug
module M = Er_metrics

let mk_block label instrs term =
  { label; instrs = Array.of_list instrs; term }

let mk_func fname params ret_ty blocks = { fname; params; ret_ty; blocks }
let mk_prog ?(globals = []) funcs main = { globals; funcs; main }

(* --- lowering unit tests ------------------------------------------------ *)

let test_slot_assignment () =
  let f =
    mk_func "f" [ ("%p", I64); ("%q", I32) ] (Some I64)
      [
        mk_block "entry"
          [
            Bin { dst = "%a"; op = Add; ty = I64; a = Reg "%p"; b = Reg "%q" };
            Bin { dst = "%b"; op = Add; ty = I64; a = Reg "%a"; b = Imm (1L, I64) };
          ]
          (Ret (Some (Reg "%b")));
      ]
  in
  let main = mk_func "main" [] None [ mk_block "entry" [] (Ret None) ] in
  let low = Lower.compile (mk_prog [ f; main ] "main") in
  let lf = Lower.func_by_name low "f" in
  Alcotest.(check int) "nslots" 4 lf.Lower.lf_nslots;
  Alcotest.(check (array string))
    "slots are params then first occurrence"
    [| "%p"; "%q"; "%a"; "%b" |]
    lf.Lower.lf_reg_of_slot;
  Array.iteri
    (fun i r ->
       Alcotest.(check int) ("slot_of_reg " ^ r) i
         (Hashtbl.find lf.Lower.lf_slot_of_reg r))
    lf.Lower.lf_reg_of_slot;
  Alcotest.(check int) "entry is block 0" 0 lf.Lower.lf_blocks.(0).Lower.lb_index;
  let d = lf.Lower.lf_blocks.(0).Lower.lb_delta in
  Alcotest.(check int) "two alu instrs" 2 d.Lower.d_alu;
  Alcotest.(check int) "ret retires in the call class" 1 d.Lower.d_call

let test_unknown_callee_rejected () =
  let p =
    mk_prog
      [
        mk_func "main" [] None
          [ mk_block "entry" [ Call { dst = None; func = "nope"; args = [] } ] (Ret None) ];
      ]
      "main"
  in
  match Lower.compile p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown callee must be rejected at compile time"

(* Programs that skip validation are validated at lowering: the
   lowered engines read slots and bind parameters without run-time
   checks. *)
let test_use_faults_rejected_at_lowering () =
  let check p =
    match Lower.compile p with
    | l -> Ok l
    | exception Invalid_argument e -> Error e
  in
  Test_ir.check_rejected ~check "maybe-undefined read"
    Test_ir.maybe_undefined_prog [ "main"; "use"; "%x" ];
  Test_ir.check_rejected ~check "wrong-arity call"
    (Test_ir.wrong_arity_prog ~spawn:false) [ "main"; "two" ];
  Test_ir.check_rejected ~check "wrong-arity spawn"
    (Test_ir.wrong_arity_prog ~spawn:true) [ "main"; "two" ]

let test_cache_physical_equality () =
  let s = List.hd Er_corpus.Registry.table1 in
  let p = Prog.of_program s.Bug.program in
  Alcotest.(check bool) "lowering is compiled once and cached" true
    (Prog.lowered p == Prog.lowered p)

(* --- VM observation harness -------------------------------------------- *)

type vm_obs = {
  o_outcome : Interp.outcome;
  o_instrs : int;
  o_branches : int;
  o_outputs : int64 list;
  o_peak : int;
  o_trace : string;  (* finished encoder packet bytes *)
  o_calls : string list;  (* every hook call with its arguments, in order *)
}

(* All six hooks, each logging its call and arguments in call order. *)
let logging_hooks () =
  let log = ref [] in
  let add fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let hooks =
    {
      Interp.on_branch = Some (fun b -> add "branch %b" b);
      on_switch = Some (fun ~tid ~clock -> add "switch %d at %d" tid clock);
      on_ptwrite = Some (fun v -> add "ptwrite %Ld" v);
      on_input = Some (fun ~stream ~value -> add "input %s %Ld" stream value);
      on_store =
        Some
          (fun ~obj ~index ~old_value ~new_value ->
             add "store %d[%d] %Ld -> %Ld" obj index old_value new_value);
      on_alloc = Some (fun n -> add "alloc %Ld" n);
    }
  in
  (hooks, fun () -> List.rev !log)

(* The reference engine's analysis callbacks, logged the same way. *)
let logging_observer () =
  let log = ref [] in
  let add fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let observer =
    {
      Interp.on_def =
        Some
          (fun p ~reg ~value ->
             add "def %s %s = %Ld" (point_to_string p) reg value);
      on_enter =
        Some
          (fun ~func ~args ->
             add "enter %s(%s)" func
               (String.concat ", " (List.map Int64.to_string args)));
      on_ret =
        Some
          (fun ~func ~value ->
             add "ret %s %s" func
               (match value with Some v -> Int64.to_string v | None -> "-"));
    }
  in
  (observer, fun () -> List.rev !log)

(* One run under ER's recording hooks and, unless [~recording_only],
   the six logging hooks too.  The two are separate compilations: under
   the logging hooks, stores also take the result-returning memory API
   that on_store needs. *)
let observe ?(recording_only = false)
    (run :
       ?config:Interp.config -> Prog.t -> Er_vm.Inputs.t -> Interp.run_result)
    prog inputs ~seed ~config =
  let enc = Er_trace.Encoder.create () in
  Er_trace.Encoder.start enc;
  let log, calls = logging_hooks () in
  let hooks =
    if recording_only then Er_vm.Vm_state.recording_hooks enc
    else Interp.compose_hooks (Er_vm.Vm_state.recording_hooks enc) log
  in
  let config = { config with Interp.sched_seed = seed; hooks } in
  let r = run ~config prog inputs in
  {
    o_outcome = r.Interp.outcome;
    o_instrs = r.Interp.instr_count;
    o_branches = r.Interp.branch_count;
    o_outputs = r.Interp.outputs;
    o_peak = r.Interp.peak_mem_cells;
    o_trace = Bytes.to_string (Er_trace.Encoder.finish enc);
    o_calls = calls ();
  }

let outcome_str = function
  | Interp.Finished None -> "finished"
  | Interp.Finished (Some v) -> Printf.sprintf "finished %Ld" v
  | Interp.Failed f -> "failed: " ^ Er_vm.Failure.to_string f

let check_same_obs name (a : vm_obs) (b : vm_obs) =
  Alcotest.(check string)
    (name ^ ": outcome")
    (outcome_str a.o_outcome) (outcome_str b.o_outcome);
  Alcotest.(check bool) (name ^ ": outcome (structural)") true
    (a.o_outcome = b.o_outcome);
  Alcotest.(check int) (name ^ ": instr_count") a.o_instrs b.o_instrs;
  Alcotest.(check int) (name ^ ": branch_count") a.o_branches b.o_branches;
  Alcotest.(check (list int64)) (name ^ ": outputs") a.o_outputs b.o_outputs;
  Alcotest.(check int) (name ^ ": peak_mem_cells") a.o_peak b.o_peak;
  Alcotest.(check string) (name ^ ": packet bytes") a.o_trace b.o_trace;
  Alcotest.(check (list string)) (name ^ ": hook calls") a.o_calls b.o_calls

let obs_equal (a : vm_obs) (b : vm_obs) =
  a.o_outcome = b.o_outcome && a.o_instrs = b.o_instrs
  && a.o_branches = b.o_branches && a.o_outputs = b.o_outputs
  && a.o_peak = b.o_peak
  && String.equal a.o_trace b.o_trace
  && a.o_calls = b.o_calls

(* --- corpus differential: VM ------------------------------------------- *)

let test_corpus_vm_differential () =
  List.iter
    (fun (s : Bug.spec) ->
       let prog = Prog.of_program s.Bug.program in
       for occ = 1 to 2 do
         List.iter
           (fun recording_only ->
              let name =
                Printf.sprintf "%s occ %d%s" s.Bug.name occ
                  (if recording_only then " (recording hooks)" else "")
              in
              let observe run =
                let inputs, seed = s.Bug.failing_workload ~occurrence:occ in
                observe ~recording_only run prog inputs ~seed
                  ~config:Interp.default_config
              in
              check_same_obs name
                (observe Interp.run_reference)
                (observe Interp.run))
           [ false; true ]
       done)
    Er_corpus.Registry.table1

(* --- analysis callbacks: pinned ----------------------------------------- *)

(* The analysis callbacks (REPT's definitions, the case study's function
   entries and returns) have one implementation, the reference
   engine's, so their call log on every Table 1 failing workload is
   pinned: (bug, occurrence, calls, MD5 of the log joined by newlines).
   The values were recorded while the compiled engine still fired the
   same callbacks and the differential above held the two logs equal. *)
let analysis_pins =
  [
    ("php-2012-2386", 1, 48, "175bb3840b618ac6100e7a7325a7f0d9");
    ("php-2012-2386", 2, 48, "b8107022d57ef2c34b795e7eb12638d0");
    ("php-74194", 1, 449, "a5687c9ca9d6c5f1210c0a4946a8b071");
    ("php-74194", 2, 449, "92035ba88b2457ef458e7cb9752aaff1");
    ("sqlite-7be932d", 1, 106, "0c1e97e88064fae72e2b0c20272a8a4b");
    ("sqlite-7be932d", 2, 106, "5cce5585967b3cdac5d721d27b02908c");
    ("sqlite-787fa71", 1, 72, "d5f3ae2b2e2d38ab46c9cda5ecf1abce");
    ("sqlite-787fa71", 2, 72, "9c1f68301805851670d42f2be55f6b77");
    ("sqlite-4e8e485", 1, 103, "8d809d3c70f23bc542813034182ed0ea");
    ("sqlite-4e8e485", 2, 103, "6f7a706634d6a8bb0c40a57ce3f876c2");
    ("nasm-2004-1287", 1, 111, "ab2d77973bf66161340bf0aac1e23218");
    ("nasm-2004-1287", 2, 111, "db103d748fb68e3a8379d0de4fec65a3");
    ("objdump-2018-6323", 1, 21, "47c49e9cd0b45c4d9b01b6952b336e2a");
    ("objdump-2018-6323", 2, 21, "d385c70aeaaf51cda4d41c3dce0f1ee3");
    ("matrixssl-2014-1569", 1, 618, "de9dce21e5644e46939b7a1043af9b68");
    ("matrixssl-2014-1569", 2, 618, "410c4ec2a2621df7e8f14db6608e25b7");
    ("memcached-2019-11596", 1, 1145, "e5dd5bd5e24497f63a2b1b2fdc9c7a2a");
    ("memcached-2019-11596", 2, 887, "7ceece034f97c24948d4c617939c6577");
    ("libpng-2004-0597", 1, 1550, "4bb5e19cabfc3f5ce6779557e4a52371");
    ("libpng-2004-0597", 2, 1550, "580d3c6957d44f343629fed1f0c5b831");
    ("bash-108885", 1, 13, "647de41a5a4189c42d37f0182c885907");
    ("bash-108885", 2, 13, "647de41a5a4189c42d37f0182c885907");
    ("python-2018-1000030", 1, 706, "dfa27027e5d2704d73c449a0d3552ad5");
    ("python-2018-1000030", 2, 1394, "fa60833b1667a41ea99a6bb9e2f2a314");
    ("pbzip2", 1, 638, "f603ae0dcadeb97ebc9e3415853e9ecb");
    ("pbzip2", 2, 758, "42368ff0f92d26b07a826aa2e8c3899b");
  ]

let test_analysis_callbacks_pinned () =
  List.iter
    (fun (s : Bug.spec) ->
       let prog = Prog.of_program s.Bug.program in
       for occ = 1 to 2 do
         let name = Printf.sprintf "%s occ %d" s.Bug.name occ in
         let inputs, seed = s.Bug.failing_workload ~occurrence:occ in
         let observer, calls = logging_observer () in
         let config = { Interp.default_config with sched_seed = seed } in
         ignore (Interp.run_observed ~config observer prog inputs);
         let log = calls () in
         match
           List.find_opt
             (fun (b, o, _, _) -> String.equal b s.Bug.name && o = occ)
             analysis_pins
         with
         | None -> Alcotest.fail (name ^ ": no pinned call log")
         | Some (_, _, n, md5) ->
             Alcotest.(check int) (name ^ ": calls") n (List.length log);
             Alcotest.(check string) (name ^ ": call log md5") md5
               (Digest.to_hex (Digest.string (String.concat "\n" log)))
       done)
    Er_corpus.Registry.table1

(* --- corpus differential: shepherded symex ------------------------------ *)

(* Replicates Pipeline.Default_tracer: capture the first failing
   occurrence's packet stream and failure clock. *)
let trace_failure prog (s : Bug.spec) =
  let rec go occ =
    if occ > 8 then None
    else
      let inputs, seed = s.Bug.failing_workload ~occurrence:occ in
      let enc = Er_trace.Encoder.create () in
      Er_trace.Encoder.start enc;
      let config =
        { Interp.default_config with
          sched_seed = seed; hooks = Er_vm.Vm_state.recording_hooks enc }
      in
      let r = Interp.run ~config prog inputs in
      match r.Interp.outcome with
      | Interp.Failed failure -> (
          match Er_trace.Decoder.decode (Er_trace.Encoder.finish enc) with
          | Error _ -> None
          | Ok events ->
              Some
                (Er_trace.Decoder.split events, failure, r.Interp.instr_count))
      | Interp.Finished _ -> go (occ + 1)
  in
  go 1

(* Everything a shepherded run reports that the two engines must agree
   on: the outcome with its printed path constraints, the stall point
   and reason, and the deterministic counters. *)
let exec_obs (r : Exec.result) =
  let outcome =
    match r.Exec.outcome with
    | Exec.Complete sol ->
        Printf.sprintf "complete inputs=%s pcs=[%s]"
          (String.concat "," (List.map fst sol.Exec.input_log))
          (String.concat "; "
             (List.map Er_smt.Expr.to_string sol.Exec.path_constraints))
    | Exec.Stalled st ->
        Printf.sprintf "stalled at %s: %s"
          (point_to_string st.Exec.stalled_at)
          st.Exec.stall_reason
    | Exec.Diverged why -> "diverged: " ^ why
  in
  Printf.sprintf
    "%s steps=%d solver_calls=%d solver_cost=%d cache_hits=%d cache_misses=%d"
    outcome r.Exec.steps r.Exec.solver_calls r.Exec.solver_cost
    r.Exec.cache_hits r.Exec.cache_misses

(* Shepherd one trace with the reference engine, then the lowered one.
   Each runs in a fresh interning space: the same term order, and
   therefore a bit-identical deterministic solver trajectory. *)
let shepherd_both ?config prog split failure clock =
  let run_one
      (run :
         ?config:Exec.config ->
         Prog.t ->
         trace:Er_trace.Decoder.split ->
         failure:Er_vm.Failure.t ->
         failure_clock:int ->
         Exec.result)
      =
    Er_smt.Expr.in_fresh_space (fun () ->
        exec_obs (run ?config prog ~trace:split ~failure ~failure_clock:clock))
  in
  let reference = run_one Exec.run_reference in
  (reference, run_one Exec.run)

let test_corpus_symex_differential () =
  List.iter
    (fun (s : Bug.spec) ->
       let prog = Prog.of_program s.Bug.program in
       match trace_failure prog s with
       | None -> Alcotest.fail (s.Bug.name ^ ": no failing trace captured")
       | Some (split, failure, clock) ->
           let config = s.Bug.config.Er_core.Pipeline.exec_config in
           let reference, lowered =
             shepherd_both ~config prog split failure clock
           in
           Alcotest.(check string) s.Bug.name reference lowered)
    Er_corpus.Registry.table1

(* --- randomized differential: VM ---------------------------------------- *)

(* Random DAG programs: the entry block allocates a buffer, reads a
   register pool from a finite input stream (exhaustion crashes are part
   of the state space), and body blocks branch strictly forward.  Body
   instructions use pool registers, masked and raw memory indices (raw
   ones crash out of bounds), unsigned division (by zero), asserts,
   calls, globals, and ptwrites. *)
let gen_prog_and_inputs =
  let open QCheck2.Gen in
  let pool = [ "%x0"; "%x1"; "%x2"; "%x3" ] in
  let pool_reg = oneofl (List.map (fun r -> Reg r) pool) in
  let operand =
    oneof
      [ pool_reg; map (fun v -> Imm (Int64.of_int v, I64)) (int_range (-4) 40) ]
  in
  let binop = oneofl [ Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Udiv; Urem ] in
  let cmpop = oneofl [ Eq; Ne; Ult; Ule; Slt; Sge ] in
  let body_instr i j =
    let dst = Printf.sprintf "%%t%d_%d" i j in
    oneof
      [
        (let* op = binop in
         let* a = operand and* b = operand in
         return [ Bin { dst; op; ty = I64; a; b } ]);
        (let* op = cmpop in
         let* a = operand and* b = operand in
         return [ Cmp { dst; op; ty = I64; a; b } ]);
        (let* a = pool_reg and* b = pool_reg in
         return
           [
             Cmp { dst; op = Ult; ty = I64; a; b = Imm (7L, I64) };
             Select
               { dst = dst ^ "s"; ty = I64; cond = Reg dst; if_true = a; if_false = b };
           ]);
        (let* v = pool_reg in
         let* kind, from_ty, to_ty =
           oneofl [ (Trunc, I64, I8); (Trunc, I64, I16); (Zext, I8, I64); (Sext, I8, I64) ]
         in
         return [ Cast { dst; kind; to_ty; v; from_ty } ]);
        (* masked (usually safe) and raw (usually crashing) memory ops
           against the stack buffer or the global *)
        (let* base = oneofl [ Reg "%buf"; Global "g" ] in
         let* masked = frequency [ (4, return true); (1, return false) ] in
         let* idx = pool_reg in
         let* store = bool in
         let pre, addr_idx =
           if masked then
             ( [ Bin { dst = dst ^ "m"; op = And; ty = I64; a = idx; b = Imm (3L, I64) } ],
               Reg (dst ^ "m") )
           else ([], idx)
         in
         let gep = Gep { dst = dst ^ "g"; base; idx = addr_idx } in
         let op =
           if store then
             Store { ty = I64; v = idx; addr = Reg (dst ^ "g") }
           else Load { dst = dst ^ "l"; ty = I64; addr = Reg (dst ^ "g") }
         in
         return (pre @ [ gep; op ]));
        (let* v = pool_reg in
         return [ Output { v } ]);
        (let* v = pool_reg in
         return [ Ptwrite { v } ]);
        (let* a = operand in
         return
           [
             Cmp { dst; op = Ult; ty = I64; a; b = Imm (1000L, I64) };
             Assert { cond = Reg dst; msg = "random assert" };
           ]);
        (let* a = pool_reg and* b = operand in
         return [ Call { dst = Some (dst ^ "c"); func = "helper"; args = [ a; b ] } ]);
      ]
  in
  let* nblocks = int_range 1 5 in
  let* bodies =
    flatten_l
      (List.init nblocks (fun i ->
           let* nins = int_range 0 5 in
           let* seqs = flatten_l (List.init nins (fun j -> body_instr (i + 1) j)) in
           return (List.concat seqs)))
  in
  let* terms =
    flatten_l
      (List.init nblocks (fun i ->
           let bi = i + 1 in
           if bi = nblocks then
             oneof
               [
                 return (Ret (Some (Reg "%x2")));
                 return (Ret None);
                 frequency [ (1, return (Abort "generated abort")); (9, return (Ret None)) ];
               ]
           else
             let targets = List.init (nblocks - bi) (fun k -> Printf.sprintf "b%d" (bi + 1 + k)) in
             oneof
               [
                 map (fun l -> Br l) (oneofl targets);
                 (let* t = oneofl targets and* f = oneofl targets in
                  return (Cond_br { cond = Reg "%c"; if_true = t; if_false = f }));
               ]))
  in
  let entry =
    mk_block "entry"
      ([ Alloc { dst = "%buf"; elt_ty = I64; count = Imm (4L, I64); heap = false } ]
       @ List.map
           (fun r -> Input { dst = r; ty = I64; stream = "s" })
           pool
       @ [ Cmp { dst = "%c"; op = Slt; ty = I64; a = Reg "%x0"; b = Reg "%x1" } ])
      (Br "b1")
  in
  let body_blocks =
    List.mapi
      (fun i (instrs, term) -> mk_block (Printf.sprintf "b%d" (i + 1)) instrs term)
      (List.combine bodies terms)
  in
  let helper =
    mk_func "helper" [ ("%a", I64); ("%b", I64) ] (Some I64)
      [
        mk_block "entry"
          [
            Bin { dst = "%s"; op = Add; ty = I64; a = Reg "%a"; b = Reg "%b" };
            Output { v = Reg "%s" };
          ]
          (Ret (Some (Reg "%s")));
      ]
  in
  let g = { gname = "g"; g_elt_ty = I64; g_size = 4; g_init = None } in
  let program =
    mk_prog ~globals:[ g ]
      [ mk_func "main" [] None (entry :: body_blocks); helper ]
      "main"
  in
  let* inputs = list_size (int_range 0 6) (map Int64.of_int (int_range (-50) 50)) in
  let* seed = int_range 0 1000 in
  return (program, inputs, seed)

let qcheck_vm_differential =
  QCheck2.Test.make ~name:"lowered VM matches reference on random programs"
    ~count:150 gen_prog_and_inputs
    (fun (program, input_vals, seed) ->
       let prog = Prog.of_program program in
       let mk_inputs () = Er_vm.Inputs.make [ ("s", input_vals) ] in
       let a =
         observe Interp.run_reference prog (mk_inputs ()) ~seed
           ~config:Interp.default_config
       in
       let b =
         observe Interp.run prog (mk_inputs ()) ~seed
           ~config:Interp.default_config
       in
       obs_equal a b)

(* --- handwritten parity cases ------------------------------------------- *)

let test_stack_overflow_parity () =
  let p =
    Prog.of_program
      (mk_prog
         [
           mk_func "main" [] None
             [ mk_block "entry" [ Call { dst = None; func = "f"; args = [] } ] (Ret None) ];
           mk_func "f" [] None
             [ mk_block "entry" [ Call { dst = None; func = "f"; args = [] } ] (Ret None) ];
         ]
         "main")
  in
  let config = { Interp.default_config with max_call_depth = 40 } in
  let a = observe Interp.run_reference p (Er_vm.Inputs.make []) ~seed:0 ~config in
  let b = observe Interp.run p (Er_vm.Inputs.make []) ~seed:0 ~config in
  (match a.o_outcome with
   | Interp.Failed { Er_vm.Failure.kind = Er_vm.Failure.Stack_overflow; _ } -> ()
   | _ -> Alcotest.fail "expected a stack overflow");
  check_same_obs "stack overflow" a b

(* A spinning main holding a lock while a spawned worker repeatedly
   blocks on it: per-attempt sync retirement counts, thread switches,
   and join blocking must all match. *)
let mt_lock_prog =
  mk_prog
    ~globals:[ { gname = "m"; g_elt_ty = I64; g_size = 1; g_init = None } ]
    [
      mk_func "main" [] None
        [
          mk_block "entry"
            [
              Lock { addr = Global "m" };
              Spawn { func = "w"; args = [] };
              Bin { dst = "%i"; op = Add; ty = I64; a = Imm (0L, I64); b = Imm (0L, I64) };
            ]
            (Br "loop");
          mk_block "loop"
            [
              Bin { dst = "%i"; op = Add; ty = I64; a = Reg "%i"; b = Imm (1L, I64) };
              Cmp { dst = "%c"; op = Ult; ty = I64; a = Reg "%i"; b = Imm (200L, I64) };
            ]
            (Cond_br { cond = Reg "%c"; if_true = "loop"; if_false = "rest" });
          mk_block "rest"
            [ Unlock { addr = Global "m" }; Join; Output { v = Imm (7L, I64) } ]
            (Ret None);
        ];
      mk_func "w" [] None
        [
          mk_block "entry"
            [
              Lock { addr = Global "m" };
              Output { v = Imm (1L, I64) };
              Unlock { addr = Global "m" };
            ]
            (Ret None);
        ];
    ]
    "main"

let test_mt_lock_parity () =
  let p = Prog.of_program mt_lock_prog in
  let a =
    observe Interp.run_reference p (Er_vm.Inputs.make []) ~seed:3
      ~config:Interp.default_config
  in
  let b =
    observe Interp.run p (Er_vm.Inputs.make []) ~seed:3
      ~config:Interp.default_config
  in
  check_same_obs "mt lock" a b

(* --- no-hooks fast-path differentials ------------------------------------ *)

(* The hooked differentials above install all six hooks, so they run
   the fused units, the hand-fused cmp+cond_br and the specialised call
   path with every hook call in place.  The engine compiles one code set
   per set of installed hooks, and under on_store stores take the
   result-returning memory API.  These differentials compare the engines
   under [no_hooks], the compilation `bench vm` and plain runs execute,
   where the specialised store arms are live too. *)

module Vs = Er_vm.Vm_state

let fast_obs (r : Interp.run_result) =
  ( (outcome_str r.Interp.outcome, r.Interp.instr_count),
    (r.Interp.branch_count, r.Interp.outputs) )

let fast_obs_t = Alcotest.(pair (pair string int) (pair int (list int64)))

let check_fast_pair name prog inputs_of seed =
  let run
      (run :
         ?config:Interp.config -> Prog.t -> Er_vm.Inputs.t -> Interp.run_result)
      =
    fast_obs
      (run ~config:{ Interp.default_config with Interp.sched_seed = seed } prog
         (inputs_of ()))
  in
  Alcotest.check fast_obs_t name (run Interp.run_reference) (run Interp.run)

let test_corpus_vm_fast_differential () =
  List.iter
    (fun (s : Bug.spec) ->
       let prog = Prog.of_program s.Bug.program in
       for occ = 1 to 2 do
         let _, seed = s.Bug.failing_workload ~occurrence:occ in
         check_fast_pair
           (Printf.sprintf "%s occ %d (no hooks)" s.Bug.name occ)
           prog
           (fun () -> fst (s.Bug.failing_workload ~occurrence:occ))
           seed
       done)
    Er_corpus.Registry.table1

let qcheck_vm_fast_differential =
  QCheck2.Test.make
    ~name:"fused no-hooks VM matches reference on random programs" ~count:150
    gen_prog_and_inputs
    (fun (program, input_vals, seed) ->
       let prog = Prog.of_program program in
       let run
           (run :
              ?config:Interp.config -> Prog.t -> Er_vm.Inputs.t ->
              Interp.run_result)
           =
         fast_obs
           (run
              ~config:{ Interp.default_config with Interp.sched_seed = seed }
              prog
              (Er_vm.Inputs.make [ ("s", input_vals) ]))
       in
       run Interp.run_reference = run Interp.run)

(* A helper thread spawned at entry and joined on the way out, so chunk
   switches interleave with the recorded values. *)
let with_worker (p : program) =
  let spawn_main (f : func) =
    let last = List.length f.blocks - 1 in
    let blocks =
      List.mapi
        (fun i b ->
           let instrs = Array.to_list b.instrs in
           let instrs =
             if i = 0 then
               Spawn
                 { func = "helper"; args = [ Imm (3L, I64); Imm (4L, I64) ] }
               :: instrs
             else instrs
           in
           let instrs = if i = last then Join :: instrs else instrs in
           { b with instrs = Array.of_list instrs })
        f.blocks
    in
    { f with blocks }
  in
  { p with
    funcs =
      List.map (fun f -> if f.fname = p.main then spawn_main f else f) p.funcs }

(* The production configuration: ER's recording hooks plus a random
   recording plan, paused at random clocks with the VM and the encoder
   snapshotted and reverted together.  The oracle is the reference
   engine on the program [Instrument.apply] rewrites for the same
   points; failure reports are compared in its coordinates.  A short
   quantum puts pause points and thread switches all through these
   small programs. *)
let gen_plan_case =
  let open QCheck2.Gen in
  let* program, input_vals, seed = gen_prog_and_inputs in
  let* threaded = bool in
  let program = if threaded then with_worker program else program in
  let defs =
    List.concat_map
      (fun f ->
         List.concat_map
           (fun b ->
              List.concat
                (List.mapi
                   (fun i ins ->
                      if def_of_instr ins = None then []
                      else
                        [ { p_func = f.fname; p_block = b.label; p_index = i } ])
                   (Array.to_list b.instrs)))
           f.blocks)
      program.funcs
  in
  let* picks = flatten_l (List.map (fun _ -> bool) defs) in
  let points =
    List.filter_map
      (fun (p, keep) -> if keep then Some p else None)
      (List.combine defs picks)
  in
  let* k1 = int_range 1 40 and* k2 = int_range 1 40 in
  return (program, input_vals, seed, points, k1, k2)

let qcheck_plan_recording_differential =
  QCheck2.Test.make
    ~name:
      "ER-hooked plan run with snapshot/revert matches instrumented \
       reference"
    ~count:150 gen_plan_case
    (fun (program, input_vals, seed, points, k1, k2) ->
       let mk_inputs () = Er_vm.Inputs.make [ ("s", input_vals) ] in
       let config enc =
         { Interp.default_config with
           quantum = 10; quantum_jitter = 4; sched_seed = seed;
           hooks = Vs.recording_hooks enc }
       in
       let fresh_encoder () =
         let enc = Er_trace.Encoder.create () in
         Er_trace.Encoder.start enc;
         enc
       in
       let enc_ref = fresh_encoder () in
       let inst, _ = Er_select.Instrument.apply program points in
       let expected =
         Interp.run_reference ~config:(config enc_ref) (Prog.of_program inst)
           (mk_inputs ())
       in
       let enc = fresh_encoder () in
       let prog = Prog.of_program program in
       let vm =
         Vs.create ~config:(config enc)
           ~plan:(Vs.plan_of_points (Prog.lowered prog) points)
           prog (mk_inputs ())
       in
       let r =
         match Vs.run ~pause_at:k1 vm with
         | Some r -> r
         | None ->
             let vck = Vs.snapshot vm
             and eck = Er_trace.Encoder.checkpoint enc in
             ignore (Vs.run ~pause_at:(k1 + k2) vm);
             Vs.revert vm vck;
             if not (Er_trace.Encoder.revert enc eck) then
               failwith "encoder refused its own checkpoint";
             Vs.run_to_end vm
       in
       let fwd = Er_select.Instrument.forward program points in
       let outcome =
         match r.Vs.outcome with
         | Vs.Failed f ->
             Vs.Failed
               { f with
                 Er_vm.Failure.point = fwd f.Er_vm.Failure.point;
                 stack = List.map fwd f.Er_vm.Failure.stack }
         | o -> o
       in
       outcome = expected.Interp.outcome
       && r.Vs.instr_count = expected.Interp.instr_count
       && Bytes.equal
            (Er_trace.Encoder.finish enc)
            (Er_trace.Encoder.finish enc_ref))

(* The symex engines on the same generated cases: [Instrument.apply]'s
   program (ptwrites included) runs under the recording hooks, and when
   it fails both engines shepherd the decoded trace — once under the
   default budgets, where nearly every case completes, and once under a
   one-gate bit-blasting budget, where the first query that needs a
   gate stalls, so the stall exit and its point and reason are compared
   too.  The counters let the companion case below check that enough
   cases got that far. *)
let symex_cases = ref 0
let symex_compared = ref 0
let symex_stalled = ref 0

let starved = { Exec.default_config with Exec.gate_budget = 1 }

let qcheck_symex_differential =
  QCheck2.Test.make
    ~name:"symex engines agree on generated failing runs" ~count:300
    gen_plan_case
    (fun (program, input_vals, seed, points, _, _) ->
       incr symex_cases;
       let inst, _ = Er_select.Instrument.apply program points in
       let prog = Prog.of_program inst in
       let enc = Er_trace.Encoder.create () in
       Er_trace.Encoder.start enc;
       let config =
         { Interp.default_config with
           quantum = 10; quantum_jitter = 4; sched_seed = seed;
           hooks = Vs.recording_hooks enc }
       in
       let r = Interp.run ~config prog (Er_vm.Inputs.make [ ("s", input_vals) ]) in
       match
         r.Interp.outcome, Er_trace.Decoder.decode (Er_trace.Encoder.finish enc)
       with
       | Interp.Failed failure, Ok events ->
           incr symex_compared;
           let split = Er_trace.Decoder.split events in
           let shepherd ?config () =
             shepherd_both ?config prog split failure r.Interp.instr_count
           in
           let agree budgets (reference, lowered) =
             reference = lowered
             || QCheck2.Test.fail_reportf
                  "%s budgets@\nreference: %s@\nlowered:   %s" budgets
                  reference lowered
           in
           let starved_obs = shepherd ~config:starved () in
           if String.starts_with ~prefix:"stalled" (fst starved_obs) then
             incr symex_stalled;
           agree "default" (shepherd ()) && agree "one-gate" starved_obs
       | _ -> true)

(* A generator drifting to programs that never fail would leave the
   differential above comparing nothing, and one whose failing runs
   never reach the solver would leave the stall exit unchecked. *)
let test_symex_differential_coverage () =
  if !symex_cases = 0 then Alcotest.skip ();
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d generated cases reached the comparison"
       !symex_compared !symex_cases)
    true
    (3 * !symex_compared >= !symex_cases);
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d compared cases stalled on one gate"
       !symex_stalled !symex_compared)
    true
    (4 * !symex_stalled >= !symex_compared)

(* The inputs the engines meet in this repository, pinned rather than
   guessed: the corpus, each Table 1 program as instrumented at the
   points its reconstruction records, and the generators behind the
   differentials above.  All of them satisfy the validator, so no run
   needs a definedness or arity check. *)
let test_engine_programs_validate () =
  let valid what p =
    match Er_ir.Validate.check p with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" what e)
  in
  List.iter (fun (s : Bug.spec) -> valid s.Bug.name s.Bug.program)
    Er_corpus.Registry.all;
  let recorded =
    List.map
      (fun (s : Bug.spec) ->
         let r =
           Er_core.Pipeline.run ~config:s.Bug.config ~base_prog:s.Bug.program
             ~workload:s.Bug.failing_workload ()
         in
         let points = r.Er_core.Pipeline.recording_points in
         valid (s.Bug.name ^ " instrumented")
           (fst (Er_select.Instrument.apply s.Bug.program points));
         List.length points)
      Er_corpus.Registry.table1
  in
  Alcotest.(check bool) "some reconstruction records points" true
    (List.exists (fun n -> n > 0) recorded);
  let rand = Random.State.make [| 28 |] in
  List.iter
    (fun (program, _, _) -> valid "generated program" program)
    (QCheck2.Gen.generate ~rand ~n:300 gen_prog_and_inputs);
  List.iter
    (fun (program, _, _, points, _, _) ->
       valid "generated plan case" program;
       valid "generated plan case instrumented"
         (fst (Er_select.Instrument.apply program points)))
    (QCheck2.Gen.generate ~rand ~n:300 gen_plan_case)

(* A self-looping block whose static shape exercises every unit kind at
   once: a committed load+bin+store triple, the hand-fused cmp+cond_br
   terminator pair — and, every instruction being fusable, the
   whole-block chain. *)
let fused_loop_prog ?(bound = 50L) () =
  mk_prog
    ~globals:[ { gname = "cell"; g_elt_ty = I64; g_size = 1; g_init = None } ]
    [
      mk_func "main" [] (Some I64)
        [
          mk_block "entry" [] (Br "loop");
          mk_block "loop"
            [
              Load { dst = "%i"; ty = I64; addr = Global "cell" };
              Bin { dst = "%j"; op = Add; ty = I64; a = Reg "%i"; b = Imm (1L, I64) };
              Store { ty = I64; v = Reg "%j"; addr = Global "cell" };
              Cmp { dst = "%c"; op = Ult; ty = I64; a = Reg "%j"; b = Imm (bound, I64) };
            ]
            (Cond_br { cond = Reg "%c"; if_true = "loop"; if_false = "done" });
          mk_block "done" [ Output { v = Reg "%j" } ] (Ret (Some (Reg "%j")));
        ];
    ]
    "main"

let resume_obs (r : Vs.run_result) =
  ( (match r.Vs.outcome with
     | Vs.Finished None -> "finished"
     | Vs.Finished (Some v) -> Printf.sprintf "finished %Ld" v
     | Vs.Failed f -> "failed: " ^ Er_vm.Failure.to_string f),
    r.Vs.instr_count,
    r.Vs.outputs )

let resume_obs_t = Alcotest.(triple string int (list int64))

(* Pause/snapshot/revert/resume with no hooks: the quantum boundary can
   land anywhere relative to the fused units — the budget guard must
   split them back to singletons so the checkpoint sits at exact
   instruction granularity, and the resumed suffix must be bit-identical
   whether the pause fell on a fused-block boundary or inside one. *)
let test_fast_checkpoint_resume () =
  let check_prog name program mk_inputs ks =
    let straight =
      resume_obs
        (Vs.run_program ~config:Interp.default_config (Prog.of_program program)
           (mk_inputs ()))
    in
    List.iter
      (fun k ->
         let prog = Prog.of_program program in
         let vm =
           Vs.create ~config:Interp.default_config
             ~plan:(Vs.empty_plan (Prog.lowered prog))
             prog (mk_inputs ())
         in
         match Vs.run ~pause_at:k vm with
         | Some _ -> () (* finished before ever pausing *)
         | None ->
             let ck = Vs.snapshot vm in
             let first = resume_obs (Vs.run_to_end vm) in
             Vs.revert vm ck;
             let second = resume_obs (Vs.run_to_end vm) in
             Alcotest.check resume_obs_t
               (Printf.sprintf "%s k=%d: replay" name k)
               first second;
             Alcotest.check resume_obs_t
               (Printf.sprintf "%s k=%d: vs straight" name k)
               straight first)
      ks
  in
  (* k = 1..30 sweeps every boundary and interior position of the fused
     loop's units across several iterations *)
  check_prog "fused loop"
    (fused_loop_prog ())
    (fun () -> Er_vm.Inputs.make [])
    (List.init 30 (fun i -> i + 1));
  let spec = Er_corpus.Registry.running_example in
  check_prog "running example" spec.Bug.program
    (fun () -> fst (spec.Bug.failing_workload ~occurrence:1))
    [ 1; 3; 7; 12; 19; 27; 40 ]

(* [fused_loop_prog] with the bin replaced by a call: the loop's new
   value comes back through a return, so a mark on the call must wait
   for the return to bind it. *)
let call_loop_prog () =
  mk_prog
    ~globals:[ { gname = "cell"; g_elt_ty = I64; g_size = 1; g_init = None } ]
    [
      mk_func "main" [] (Some I64)
        [
          mk_block "entry" [] (Br "loop");
          mk_block "loop"
            [
              Load { dst = "%i"; ty = I64; addr = Global "cell" };
              Call { dst = Some "%j"; func = "bump"; args = [ Reg "%i" ] };
              Store { ty = I64; v = Reg "%j"; addr = Global "cell" };
              Cmp { dst = "%c"; op = Ult; ty = I64; a = Reg "%j"; b = Imm (30L, I64) };
            ]
            (Cond_br { cond = Reg "%c"; if_true = "loop"; if_false = "done" });
          mk_block "done" [ Output { v = Reg "%j" } ] (Ret (Some (Reg "%j")));
        ];
      mk_func "bump" [ ("%x", I64) ] (Some I64)
        [
          mk_block "entry"
            [ Bin { dst = "%y"; op = Add; ty = I64; a = Reg "%x"; b = Imm (1L, I64) } ]
            (Ret (Some (Reg "%y")));
        ];
    ]
    "main"

(* [p] with a second thread counting its own global to 40, spawned at
   main's entry and joined in main's "done" block.  Budget ends then
   switch threads, which puts TIP/MTC packets between a mark deferred at
   a budget end and its instruction. *)
let with_spinner (p : program) =
  let spin =
    mk_func "spin" [] None
      [
        mk_block "entry" [] (Br "loop");
        mk_block "loop"
          [
            Load { dst = "%k"; ty = I64; addr = Global "spun" };
            Bin { dst = "%k1"; op = Add; ty = I64; a = Reg "%k"; b = Imm (1L, I64) };
            Store { ty = I64; v = Reg "%k1"; addr = Global "spun" };
            Cmp { dst = "%d"; op = Ult; ty = I64; a = Reg "%k1"; b = Imm (40L, I64) };
          ]
          (Cond_br { cond = Reg "%d"; if_true = "loop"; if_false = "out" });
        mk_block "out" [] (Ret None);
      ]
  in
  let prepend i b = { b with instrs = Array.append [| i |] b.instrs } in
  let main f =
    if f.fname <> p.main then f
    else
      { f with
        blocks =
          List.map
            (fun b ->
               match b.label with
               | "entry" -> prepend (Spawn { func = "spin"; args = [] }) b
               | "done" -> prepend Join b
               | _ -> b)
            f.blocks }
  in
  { p with
    globals = { gname = "spun"; g_elt_ty = I64; g_size = 1; g_init = None } :: p.globals;
    funcs = List.map main p.funcs @ [ spin ] }

(* Plan marks are compiled into the fused units, so each must fire its
   virtual ptwrite exactly where the instruction [Instrument.apply]
   inserts would run.  In [fused_loop_prog]'s loop, p_index 0-3 are the
   head, middle and tail of the load+bin+store triple and the cmp of the
   hand-fused cmp+cond_br pair, all inside the whole-block chain; each
   is marked alone and then all together.  A 10 +/- 4 quantum over ten
   scheduler seeds ends budgets on every position of the 5-tick loop,
   so marks both fire inline and defer across the budget end, and each
   program also runs [with_spinner], where a deferred mark must follow
   the thread switch.  The call program marks a call, whose ptwrite
   must trace the bound return value.  Outcome, instruction count and
   the packet bytes must equal the reference engine's on the
   instrumented program. *)
let test_plan_marks_land_exactly () =
  let check_marks name program indices =
    let points =
      List.map (fun i -> { p_func = "main"; p_block = "loop"; p_index = i }) indices
    in
    let inst, _ = Er_select.Instrument.apply program points in
    let prog = Prog.of_program program in
    let plan = Vs.plan_of_points (Prog.lowered prog) points in
    for seed = 0 to 9 do
      let run f =
        let enc = Er_trace.Encoder.create () in
        Er_trace.Encoder.start enc;
        let config =
          { Interp.default_config with
            quantum = 10; quantum_jitter = 4; sched_seed = seed;
            hooks = Vs.recording_hooks enc }
        in
        let r = f config in
        (resume_obs r, Bytes.to_string (Er_trace.Encoder.finish enc))
      in
      let expected_obs, expected_bytes =
        run (fun config ->
            Interp.run_reference ~config (Prog.of_program inst)
              (Er_vm.Inputs.make []))
      in
      let obs, bytes =
        run (fun config ->
            Vs.run_to_end (Vs.create ~config ~plan prog (Er_vm.Inputs.make [])))
      in
      let label = Printf.sprintf "%s seed %d" name seed in
      Alcotest.check resume_obs_t (label ^ ": run") expected_obs obs;
      Alcotest.(check string) (label ^ ": packet bytes") expected_bytes bytes
    done
  in
  List.iter
    (fun (name, threaded) ->
       let variant p = if threaded then with_spinner p else p in
       let loop = variant (fused_loop_prog ()) in
       List.iter
         (fun i -> check_marks (Printf.sprintf "%s, mark %d" name i) loop [ i ])
         [ 0; 1; 2; 3 ];
       check_marks (name ^ ", marks 0-3") loop [ 0; 1; 2; 3 ];
       check_marks (name ^ ", marked call") (variant (call_loop_prog ())) [ 0; 1; 3 ])
    [ ("one thread", false); ("with spinner", true) ]

(* Crashes inside fused units: the failure must name the exact
   sub-instruction, with the preceding elements of the unit retired. *)
let test_fused_unit_crash_parity () =
  (* head faults: udiv-by-zero heading a committed bin+store pair *)
  let div_prog =
    mk_prog
      ~globals:[ { gname = "cell"; g_elt_ty = I64; g_size = 1; g_init = None } ]
      [
        mk_func "main" [] None
          [
            mk_block "entry" [] (Br "go");
            mk_block "go"
              [
                Bin { dst = "%d"; op = Udiv; ty = I64; a = Imm (1L, I64); b = Imm (0L, I64) };
                Store { ty = I64; v = Reg "%d"; addr = Global "cell" };
              ]
              (Ret None);
          ];
      ]
      "main"
  in
  check_fast_pair "udiv-by-zero at fused-pair head"
    (Prog.of_program div_prog)
    (fun () -> Er_vm.Inputs.make [])
    0;
  (* tail faults: out-of-bounds store ending a bin+gep+store triple,
     after the two head elements retired *)
  let oob_prog =
    mk_prog
      ~globals:[ { gname = "cell"; g_elt_ty = I64; g_size = 1; g_init = None } ]
      [
        mk_func "main" [] None
          [
            mk_block "entry" [] (Br "go");
            mk_block "go"
              [
                Bin { dst = "%v"; op = Add; ty = I64; a = Imm (40L, I64); b = Imm (59L, I64) };
                Gep { dst = "%p"; base = Global "cell"; idx = Reg "%v" };
                Store { ty = I64; v = Reg "%v"; addr = Reg "%p" };
              ]
              (Ret None);
          ];
      ]
      "main"
  in
  check_fast_pair "out-of-bounds store at fused-triple tail"
    (Prog.of_program oob_prog)
    (fun () -> Er_vm.Inputs.make [])
    0

(* Width and signedness edges through the specialised ALU units: shift
   counts at and beyond the word width, and signed/unsigned compares
   across the sign boundary. *)
let test_fast_shift_cmp_edges () =
  let out v = Output { v = Reg v } in
  let shifts =
    List.concat_map
      (fun (op, nm) ->
         List.mapi
           (fun i count ->
              let dst = Printf.sprintf "%%%s%d" nm i in
              [
                Bin { dst; op; ty = I64; a = Imm (-7L, I64); b = Imm (count, I64) };
                out dst;
              ])
           [ 0L; 1L; 63L; 64L; 65L; -1L ])
      [ (Shl, "shl"); (Lshr, "lshr"); (Ashr, "ashr") ]
    |> List.concat
  in
  let cmps =
    List.concat_map
      (fun (op, nm) ->
         List.mapi
           (fun i (a, b) ->
              let dst = Printf.sprintf "%%%s%d" nm i in
              [
                Cmp { dst; op; ty = I64; a = Imm (a, I64); b = Imm (b, I64) };
                out dst;
              ])
           [ (-1L, 1L); (1L, -1L); (Int64.min_int, Int64.max_int); (0L, 0L) ])
      [ (Ult, "ult"); (Ule, "ule"); (Slt, "slt"); (Sle, "sle");
        (Sgt, "sgt"); (Sge, "sge") ]
    |> List.concat
  in
  let p =
    mk_prog
      [ mk_func "main" [] None [ mk_block "entry" (shifts @ cmps) (Ret None) ] ]
      "main"
  in
  check_fast_pair "shift and compare edges (no hooks)" (Prog.of_program p)
    (fun () -> Er_vm.Inputs.make [])
    0

(* --- metrics parity ------------------------------------------------------ *)

let vm_counters =
  [
    ("alu", Vs.m_i_alu);
    ("load", Vs.m_i_load);
    ("store", Vs.m_i_store);
    ("mem", Vs.m_i_mem);
    ("call", Vs.m_i_call);
    ("io", Vs.m_i_io);
    ("sync", Vs.m_i_sync);
    ("branch", Vs.m_i_branch);
    ("other", Vs.m_i_other);
    ("loads", Vs.m_loads);
    ("stores", Vs.m_stores);
    ("branches", Vs.m_branches);
    ("switches", Vs.m_switches);
  ]

(* Run [f] with the default registry enabled and return the counter
   snapshot it produced; always disable and reset afterwards so other
   suites see pristine metrics. *)
let metered f =
  M.reset M.default;
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled M.default false;
      M.reset M.default)
    (fun () ->
       ignore (f ());
       List.map (fun (n, c) -> (n, M.counter_value c)) vm_counters)

let check_metric_parity name prog inputs_of ~seed ~config =
  let a =
    metered (fun () -> Interp.run_reference ~config prog (inputs_of ()))
  in
  let b = metered (fun () -> Interp.run ~config prog (inputs_of ())) in
  List.iter2
    (fun (n, va) (_, vb) ->
       Alcotest.(check int) (Printf.sprintf "%s: %s" name n) va vb)
    a b;
  ignore seed

let test_metrics_parity () =
  let no_inputs () = Er_vm.Inputs.make [] in
  (* multithreaded with per-attempt Blocked sync counts *)
  check_metric_parity "mt lock metrics"
    (Prog.of_program mt_lock_prog)
    no_inputs ~seed:3 ~config:Interp.default_config;
  (* a mid-block crash: the partial flush must count exactly the
     retired prefix of the crashed frame *)
  let crash =
    Prog.of_program
      (mk_prog
         [
           mk_func "main" [] None
             [
               mk_block "entry"
                 [
                   Bin { dst = "%a"; op = Add; ty = I64; a = Imm (1L, I64); b = Imm (2L, I64) };
                   Bin { dst = "%d"; op = Udiv; ty = I64; a = Reg "%a"; b = Imm (0L, I64) };
                   Bin { dst = "%z"; op = Add; ty = I64; a = Reg "%d"; b = Imm (1L, I64) };
                 ]
                 (Ret None);
             ];
         ]
         "main")
  in
  check_metric_parity "div-zero crash metrics" crash no_inputs ~seed:0
    ~config:Interp.default_config;
  (* a hang: the instruction budget expires mid-block *)
  let spin =
    Prog.of_program
      (mk_prog
         [
           mk_func "main" [] None
             [
               mk_block "entry"
                 [ Bin { dst = "%i"; op = Add; ty = I64; a = Imm (0L, I64); b = Imm (0L, I64) } ]
                 (Br "loop");
               mk_block "loop"
                 [ Bin { dst = "%i"; op = Add; ty = I64; a = Reg "%i"; b = Imm (1L, I64) } ]
                 (Br "loop");
             ];
         ]
         "main")
  in
  check_metric_parity "hang metrics" spin no_inputs ~seed:0
    ~config:{ Interp.default_config with max_instrs = 500 };
  (* a real corpus bug exercises every instruction class *)
  let s = List.hd Er_corpus.Registry.table1 in
  let prog = Prog.of_program s.Bug.program in
  let inputs_of () = fst (s.Bug.failing_workload ~occurrence:1) in
  let _, seed = s.Bug.failing_workload ~occurrence:1 in
  check_metric_parity (s.Bug.name ^ " metrics") prog inputs_of ~seed
    ~config:{ Interp.default_config with sched_seed = seed }

let suites =
  [
    ( "lower",
      [
        Alcotest.test_case "slot assignment" `Quick test_slot_assignment;
        Alcotest.test_case "unknown callee rejected" `Quick
          test_unknown_callee_rejected;
        Alcotest.test_case "use faults rejected at lowering" `Quick
          test_use_faults_rejected_at_lowering;
        Alcotest.test_case "every program the engines run validates" `Quick
          test_engine_programs_validate;
        Alcotest.test_case "lowering cached per program" `Quick
          test_cache_physical_equality;
        Alcotest.test_case "stack-overflow parity" `Quick
          test_stack_overflow_parity;
        Alcotest.test_case "multithreaded lock parity" `Quick
          test_mt_lock_parity;
        Alcotest.test_case "metrics parity" `Quick test_metrics_parity;
        QCheck_alcotest.to_alcotest qcheck_vm_differential;
        QCheck_alcotest.to_alcotest qcheck_plan_recording_differential;
        QCheck_alcotest.to_alcotest qcheck_symex_differential;
        Alcotest.test_case
          "symex differential reaches a third of its cases, a quarter stalled"
          `Quick test_symex_differential_coverage;
      ] );
    ( "lower fused fast path",
      [
        Alcotest.test_case "checkpoint/resume at fused boundaries" `Quick
          test_fast_checkpoint_resume;
        Alcotest.test_case "plan marks land exactly in fused units" `Quick
          test_plan_marks_land_exactly;
        Alcotest.test_case "crashes inside fused units" `Quick
          test_fused_unit_crash_parity;
        Alcotest.test_case "shift and compare edges" `Quick
          test_fast_shift_cmp_edges;
        Alcotest.test_case "no-hooks corpus differential" `Slow
          test_corpus_vm_fast_differential;
        QCheck_alcotest.to_alcotest qcheck_vm_fast_differential;
      ] );
    ( "lower corpus differential",
      [
        Alcotest.test_case "VM: all Table 1 bugs" `Slow
          test_corpus_vm_differential;
        Alcotest.test_case "symex: all Table 1 bugs" `Slow
          test_corpus_symex_differential;
        Alcotest.test_case "analysis callbacks: Table 1 pins" `Quick
          test_analysis_callbacks_pinned;
      ] );
  ]
