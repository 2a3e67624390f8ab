(* Well-formedness of EIR programs, in one place: the builder and the
   parser run [check]; [Lower.compile], which resolves every name
   itself, applies the use rules ([function_fault], [main_fault]) under
   its own register numbering to programs built without either.  Two
   layers:

   - structure: label, callee and global resolution, duplicate names,
     entry-point existence;
   - uses: every register use is defined on every path from its
     function's entry (definite assignment; statically unreachable
     blocks are exempt), and every call, every spawn and the entry call
     of [main] pass as many arguments as the callee has parameters.

   The use rules are what SSA dominance gives LLVM bitcode: they let the
   lowered engines read a register slot without first testing that it
   was written.  Only the reference engines, which walk unvalidated IR,
   keep run-time checks. *)

open Types

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec first_error = function
  | [] -> Ok ()
  | Ok () :: rest -> first_error rest
  | (Error _ as e) :: _ -> e

(* --- definite assignment -------------------------------------------------- *)

let successors = function
  | Br l -> [ l ]
  | Cond_br { if_true; if_false; _ } -> [ if_true; if_false ]
  | Ret _ | Abort _ | Unreachable -> []

(* Forward must-defined dataflow over [f]'s CFG, by worklist from entry.
   [slot] numbers [f]'s registers densely below [nregs] and [block] maps
   a label to its index in [f.blocks]; a register set is one byte per
   register.  A block's in-set is the intersection of its reached
   predecessors' out-sets: the registers defined on every path from
   entry to it.  A block no path reaches has no in-set and is exempt.
   Returns the first use, in block and instruction order, of a register
   outside the running set. *)
let undefined_use (f : func) ~slot ~nregs ~block : (label * reg) option =
  let blocks = Array.of_list f.blocks in
  let ins = Array.make (Array.length blocks) None in
  let entry = Bytes.make nregs '\000' in
  List.iter (fun (r, _) -> Bytes.set entry (slot r) '\001') f.params;
  ins.(0) <- Some entry;
  let work = Queue.create () in
  Queue.add 0 work;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    let out = Bytes.copy (Option.get ins.(i)) in
    Array.iter
      (fun instr ->
         Option.iter (fun r -> Bytes.set out (slot r) '\001') (def_of_instr instr))
      blocks.(i).instrs;
    List.iter
      (fun l ->
         let j = block l in
         match ins.(j) with
         | None ->
             ins.(j) <- Some (Bytes.copy out);
             Queue.add j work
         | Some s ->
             let changed = ref false in
             for k = 0 to nregs - 1 do
               if Bytes.get s k = '\001' && Bytes.get out k = '\000' then begin
                 Bytes.set s k '\000';
                 changed := true
               end
             done;
             if !changed then Queue.add j work)
      (successors blocks.(i).term)
  done;
  let exception Undefined of label * reg in
  let check_block (b : block) s =
    let s = Bytes.copy s in
    let use = function
      | Reg r when Bytes.get s (slot r) = '\000' -> raise (Undefined (b.label, r))
      | Reg _ | Imm _ | Global _ | Null -> ()
    in
    Array.iter
      (fun i ->
         List.iter use (values_of_instr i);
         Option.iter (fun r -> Bytes.set s (slot r) '\001') (def_of_instr i))
      b.instrs;
    List.iter use (values_of_term b.term)
  in
  match Array.iteri (fun i b -> Option.iter (check_block b) ins.(i)) blocks with
  | () -> None
  | exception Undefined (l, r) -> Some (l, r)

(* --- the use rules --------------------------------------------------------- *)

(* The use rules of one function whose labels and callees resolve: the
   first call or spawn whose argument count differs from its callee's
   parameter count ([params]), else the first read not defined on every
   path ([undefined_use], under the numbering [slot]/[nregs] and block
   index [block]).  [Lower.compile] passes its own slot map. *)
let function_fault (f : func) ~params ~slot ~nregs ~block : string option =
  let arity (b : block) = function
    | (Call { func; args; _ } | Spawn { func; args }) as i
      when params func <> List.length args ->
        Some
          (Printf.sprintf
             "%s: block %s %s %s with %d argument(s); %s has %d parameter(s)"
             f.fname b.label
             (match i with Spawn _ -> "spawns" | _ -> "calls")
             func (List.length args) func (params func))
    | _ -> None
  in
  match List.find_map (fun b -> Array.find_map (arity b) b.instrs) f.blocks with
  | Some _ as fault -> fault
  | None ->
      Option.map
        (fun (l, r) ->
           Printf.sprintf
             "%s: block %s reads %s, which is not defined on every path from \
              entry"
             f.fname l r)
        (undefined_use f ~slot ~nregs ~block)

let main_fault (p : program) ~params : string option =
  match params p.main with
  | 0 -> None
  | n ->
      Some
        (Printf.sprintf
           "main function %s has %d parameter(s); it is entered with none"
           p.main n)

(* On a program that passed the structure check: number each function's
   registers as lowering does, index its blocks, and apply the use
   rules. *)
let check_uses (p : program) : (unit, string) result =
  let arity = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace arity f.fname (List.length f.params)) p.funcs;
  let params = Hashtbl.find arity in
  let fault f =
    let slot, _, nregs = number_registers f in
    let blocks = Hashtbl.create 16 in
    List.iteri (fun i (b : block) -> Hashtbl.replace blocks b.label i) f.blocks;
    function_fault f ~params ~slot:(Hashtbl.find slot) ~nregs
      ~block:(Hashtbl.find blocks)
  in
  match main_fault p ~params with
  | Some e -> Error e
  | None -> (
      match List.find_map fault p.funcs with Some e -> Error e | None -> Ok ())

(* --- structure, then uses -------------------------------------------------- *)

let check (p : program) : (unit, string) result =
  let dup_names names what =
    let seen = Hashtbl.create 16 in
    first_error
      (List.map
         (fun n ->
            if Hashtbl.mem seen n then err "duplicate %s %s" what n
            else begin
              Hashtbl.add seen n ();
              Ok ()
            end)
         names)
  in
  let fnames = List.map (fun f -> f.fname) p.funcs in
  let gnames = List.map (fun g -> g.gname) p.globals in
  let has_func n = List.mem n fnames in
  let has_global n = List.mem n gnames in
  let check_value f = function
    | Global g when not (has_global g) -> err "%s: unknown global %s" f.fname g
    | Reg _ | Imm _ | Global _ | Null -> Ok ()
  in
  let check_func f =
    if f.blocks = [] then err "function %s has no blocks" f.fname
    else begin
      let labels = List.map (fun b -> b.label) f.blocks in
      let has_label l = List.mem l labels in
      let check_target l =
        if has_label l then Ok ()
        else err "%s: branch to unknown block %s" f.fname l
      in
      let check_instr i =
        let callee_ok name =
          if has_func name then Ok ()
          else err "%s: call to unknown function %s" f.fname name
        in
        let vals = first_error (List.map (check_value f) (values_of_instr i)) in
        match vals with
        | Error _ as e -> e
        | Ok () -> (
            match i with
            | Call { func = callee; _ } | Spawn { func = callee; _ } ->
                callee_ok callee
            | Bin _ | Cmp _ | Select _ | Cast _ | Load _ | Store _ | Alloc _
            | Free _ | Gep _ | Input _ | Output _ | Ptwrite _ | Assert _
            | Join | Lock _ | Unlock _ ->
                Ok ())
      in
      let check_block b =
        match first_error (List.map check_instr (Array.to_list b.instrs)) with
        | Error _ as e -> e
        | Ok () -> (
            match b.term with
            | Br l -> check_target l
            | Cond_br { cond; if_true; if_false } -> (
                match check_value f cond with
                | Error _ as e -> e
                | Ok () ->
                    first_error [ check_target if_true; check_target if_false ])
            | Ret (Some v) -> check_value f v
            | Ret None | Abort _ | Unreachable -> Ok ())
      in
      first_error
        (dup_names labels (Printf.sprintf "block in %s" f.fname)
         :: List.map check_block f.blocks)
    end
  in
  match
    first_error
      ([
         dup_names fnames "function";
         dup_names gnames "global";
         (if has_func p.main then Ok ()
          else err "main function %s not found" p.main);
       ]
      @ List.map check_func p.funcs)
  with
  | Error _ as e -> e
  | Ok () -> check_uses p
