(* Indexed view of a program: O(1) lookup of functions, blocks, globals and
   program points, plus the static instruction counts the benchmarks report. *)

open Types

type t = {
  program : program;
  funcs : (string, func) Hashtbl.t;
  blocks : (string * string, block) Hashtbl.t;  (* (func, label) *)
  globals : (string, global) Hashtbl.t;
  mutable low : Lower.t option;  (* lowered form, built on first demand *)
}

let of_program (program : program) : t =
  let funcs = Hashtbl.create 16 in
  let blocks = Hashtbl.create 64 in
  let globals = Hashtbl.create 16 in
  List.iter (fun f ->
      Hashtbl.replace funcs f.fname f;
      List.iter (fun b -> Hashtbl.replace blocks (f.fname, b.label) b) f.blocks)
    program.funcs;
  List.iter (fun g -> Hashtbl.replace globals g.gname g) program.globals;
  { program; funcs; blocks; globals; low = None }

(* The lowered code cache.  A [Prog.t] is immutable after construction
   (instrumentation builds a new program, hence a new [Prog.t]), so the
   cache never needs invalidation.  The benign race on [low] is safe:
   concurrent domains would at worst each compile once and one result
   wins — [Lower.compile] is pure — but in practice each fleet job
   constructs its own [Prog.t]. *)
let lowered t =
  match t.low with
  | Some l -> l
  | None ->
      let l = Lower.compile t.program in
      t.low <- Some l;
      l

let func t name =
  match Hashtbl.find_opt t.funcs name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Prog.func: unknown function %s" name)

let block t ~func ~label =
  match Hashtbl.find_opt t.blocks (func, label) with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Prog.block: unknown block %s:%s" func label)

let global t name =
  match Hashtbl.find_opt t.globals name with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Prog.global: unknown global %s" name)

let entry t name = match (func t name).blocks with
  | b :: _ -> b
  | [] -> assert false

let main t = func t t.program.main

let instr_at t (p : point) =
  let b = block t ~func:p.p_func ~label:p.p_block in
  if p.p_index < 0 || p.p_index >= Array.length b.instrs then
    invalid_arg (Printf.sprintf "Prog.instr_at: %s out of range" (point_to_string p));
  b.instrs.(p.p_index)
