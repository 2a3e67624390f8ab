(* A REPT-style baseline: best-effort reverse recovery of data values from
   the control-flow trace plus the post-mortem core dump (section 2, 6).

   REPT walks the instruction trace backward from the crash, inverting
   operations where possible and reading anything it cannot derive from
   the final memory dump.  Its characteristic inaccuracy — values that
   were overwritten between their use and the crash come back wrong —
   is reproduced here: a backward pass recovers each register definition
   either by inversion from crash-state knowledge or by *guessing* from
   the dump, and every guess is scored against the interpreter's ground
   truth.  The experiment reports recovery quality as a function of
   distance from the failure, the paper's "15-60% of values incorrect
   beyond 100K instructions" claim. *)

open Er_ir.Types

type def_record = {
  d_point : point;
  d_reg : string;
  d_value : int64;      (* ground truth *)
}

type recovery = Correct | Incorrect | Unknown_value

type stats = {
  total : int;
  correct : int;
  incorrect : int;
  unknown : int;
}

(* Record a failing run's def log, in execution order.  The experiment
   is offline and untimed, so it runs on the reference engine, the only
   one that reports every definition. *)
let record ?(sched_seed = 0) prog inputs =
  let defs = ref [] in
  let observer =
    {
      Er_vm.Interp.no_observer with
      Er_vm.Interp.on_def =
        Some
          (fun p ~reg ~value ->
             defs := { d_point = p; d_reg = reg; d_value = value } :: !defs);
    }
  in
  let config = { Er_vm.Interp.default_config with sched_seed } in
  ignore (Er_vm.Interp.run_observed ~config observer prog inputs);
  List.rev !defs

(* Is the instruction at [p] invertible, i.e. can the overwritten value be
   derived backward from the new value?  REPT's reverse execution inverts
   additive and xor updates with constant operands and value-preserving
   extensions; everything else (loads, inputs, truncations, multiplies)
   breaks the chain. *)
let invertible prog (p : point) =
  match Er_ir.Prog.instr_at prog p with
  | Bin { op = Add | Sub | Xor; a; b; _ } -> (
      match a, b with
      | Imm _, _ | _, Imm _ -> true
      | _ -> false)
  | Cast { kind = Zext | Sext; _ } -> true
  | Bin _ | Cmp _ | Select _ | Cast _ | Load _ | Store _ | Alloc _ | Free _
  | Gep _ | Call _ | Input _ | Output _ | Ptwrite _ | Assert _ | Spawn _
  | Join | Lock _ | Unlock _ ->
      false
  | exception Invalid_argument _ -> false

(* Backward recovery over the def log.  [window] limits how far back REPT
   analyses (REPT reconstructs bounded fragments).  The newest write to a
   register slot is in the dump; earlier values are recovered through
   chains of invertible updates; when the chain breaks, REPT guesses from
   the dump-visible state, which is where incorrect values come from. *)
let recover ~(prog : Er_ir.Prog.t) ~(defs : def_record list) ~(window : int) :
  (def_record * recovery) list =
  let n = List.length defs in
  let arr = Array.of_list defs in
  let analyzed_from = max 0 (n - window) in
  (* final value per (func, reg): what the dump can tell us *)
  let final_value : (string * string, int64) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun d -> Hashtbl.replace final_value (d.d_point.p_func, d.d_reg) d.d_value)
    arr;
  let out = ref [] in
  (* per slot, walking backward: is the value of the *next later* def
     recoverable, and through which instruction was it produced? *)
  let chain : (string * string, bool * point) Hashtbl.t = Hashtbl.create 256 in
  for i = n - 1 downto analyzed_from do
    let d = arr.(i) in
    let key = (d.d_point.p_func, d.d_reg) in
    let verdict, recovered =
      match Hashtbl.find_opt chain key with
      | None -> (Correct, true)     (* newest write: straight from the dump *)
      | Some (later_known, later_point) ->
          if later_known && invertible prog later_point then (Correct, true)
          else begin
            (* chain broken: guess the dump value *)
            match Hashtbl.find_opt final_value key with
            | Some g when Int64.equal g d.d_value -> (Correct, false)
            | Some _ -> (Incorrect, false)
            | None -> (Unknown_value, false)
          end
    in
    Hashtbl.replace chain key (recovered, d.d_point);
    out := (d, verdict) :: !out
  done;
  !out

let score recoveries =
  let total = List.length recoveries in
  let count p = List.length (List.filter (fun (_, v) -> v = p) recoveries) in
  {
    total;
    correct = count Correct;
    incorrect = count Incorrect;
    unknown = count Unknown_value;
  }

(* The headline series: recovery quality at increasing trace windows. *)
let accuracy_series ~prog ~defs ~windows =
  List.map
    (fun w ->
       let s = score (recover ~prog ~defs ~window:w) in
       (w, s))
    windows
