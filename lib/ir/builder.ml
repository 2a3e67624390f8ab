(* An imperative construction EDSL for EIR programs.

   The bug corpus builds its miniature applications through this module:
   a function body is assembled block by block, with instruction emitters
   returning the value of the register they define so that code reads
   roughly like the source program it models.  [program] checks structural
   well-formedness on the way out (every block terminated, branch targets
   defined, single definition of function and global names). *)

open Types

type fb = {
  fb_name : string;
  fb_params : (reg * ty) list;
  fb_ret : ty option;
  mutable cur_label : label;
  mutable cur_instrs : instr list;        (* reversed *)
  mutable done_blocks : block list;       (* reversed *)
  mutable terminated : bool;
  mutable fresh : int;
}

type t = {
  mutable globals : global list;          (* reversed *)
  mutable funcs : func list;              (* reversed *)
}

let create () = { globals = []; funcs = [] }

let global t ~name ~ty ~size ?init () =
  (match init with
   | Some a when Array.length a <> size ->
       invalid_arg (Printf.sprintf "Builder.global %s: init length %d <> size %d"
                      name (Array.length a) size)
   | _ -> ());
  if List.exists (fun g -> String.equal g.gname name) t.globals then
    invalid_arg (Printf.sprintf "Builder.global: duplicate %s" name);
  t.globals <- { gname = name; g_elt_ty = ty; g_size = size; g_init = init } :: t.globals

let fresh fb prefix =
  fb.fresh <- fb.fresh + 1;
  Printf.sprintf "%%%s%d" prefix fb.fresh

let finish_block fb term =
  if fb.terminated then
    invalid_arg
      (Printf.sprintf "Builder: block %s in %s already terminated"
         fb.cur_label fb.fb_name);
  fb.done_blocks <-
    { label = fb.cur_label; instrs = Array.of_list (List.rev fb.cur_instrs); term }
    :: fb.done_blocks;
  fb.cur_instrs <- [];
  fb.terminated <- true

let block fb label =
  if not fb.terminated then
    invalid_arg
      (Printf.sprintf "Builder: starting block %s but %s not terminated"
         label fb.cur_label);
  fb.cur_label <- label;
  fb.terminated <- false

let emit fb i =
  if fb.terminated then
    invalid_arg
      (Printf.sprintf "Builder: emitting into terminated block in %s" fb.fb_name);
  fb.cur_instrs <- i :: fb.cur_instrs

let emit_def fb prefix make =
  let dst = fresh fb prefix in
  emit fb (make dst);
  Reg dst

(* --- value helpers ---------------------------------------------------- *)

let i1 b = Imm ((if b then 1L else 0L), I1)
let i8 n = Imm (Int64.of_int (n land 0xFF), I8)
let i16 n = Imm (Int64.of_int (n land 0xFFFF), I16)
let i32 n = Imm (Int64.logand (Int64.of_int n) 0xFFFFFFFFL, I32)
let i64 n = Imm (Int64.of_int n, I64)
let imm64 v ty = Imm (v, ty)
let reg r = Reg r
let glob name = Global name
let null = Null

(* --- instruction emitters ---------------------------------------------- *)

let bin fb op ty a b = emit_def fb "t" (fun dst -> Bin { dst; op; ty; a; b })
let add fb ty a b = bin fb Add ty a b
let sub fb ty a b = bin fb Sub ty a b
let mul fb ty a b = bin fb Mul ty a b
let udiv fb ty a b = bin fb Udiv ty a b
let urem fb ty a b = bin fb Urem ty a b
let and_ fb ty a b = bin fb And ty a b
let or_ fb ty a b = bin fb Or ty a b
let xor fb ty a b = bin fb Xor ty a b
let shl fb ty a b = bin fb Shl ty a b
let lshr fb ty a b = bin fb Lshr ty a b
let ashr fb ty a b = bin fb Ashr ty a b

let cmp fb op ty a b = emit_def fb "c" (fun dst -> Cmp { dst; op; ty; a; b })
let eq fb ty a b = cmp fb Eq ty a b
let ne fb ty a b = cmp fb Ne ty a b
let ult fb ty a b = cmp fb Ult ty a b
let ule fb ty a b = cmp fb Ule ty a b
let ugt fb ty a b = cmp fb Ugt ty a b
let uge fb ty a b = cmp fb Uge ty a b
let slt fb ty a b = cmp fb Slt ty a b
let sle fb ty a b = cmp fb Sle ty a b
let sgt fb ty a b = cmp fb Sgt ty a b
let sge fb ty a b = cmp fb Sge ty a b

let select fb ty cond if_true if_false =
  emit_def fb "s" (fun dst -> Select { dst; ty; cond; if_true; if_false })

let cast fb kind ~from_ty ~to_ty v =
  emit_def fb "x" (fun dst -> Cast { dst; kind; to_ty; v; from_ty })

let zext fb ~from_ty ~to_ty v = cast fb Zext ~from_ty ~to_ty v
let sext fb ~from_ty ~to_ty v = cast fb Sext ~from_ty ~to_ty v
let trunc fb ~from_ty ~to_ty v = cast fb Trunc ~from_ty ~to_ty v

let load fb ty addr = emit_def fb "l" (fun dst -> Load { dst; ty; addr })
let store fb ty v addr = emit fb (Store { ty; v; addr })

let alloc fb ?(heap = true) elt_ty count =
  emit_def fb "p" (fun dst -> Alloc { dst; elt_ty; count; heap })

let alloca fb elt_ty count = alloc fb ~heap:false elt_ty count
let free fb addr = emit fb (Free { addr })
let gep fb base idx = emit_def fb "g" (fun dst -> Gep { dst; base; idx })

let call fb ?(ret = true) func args =
  if ret then emit_def fb "r" (fun dst -> Call { dst = Some dst; func; args })
  else begin
    emit fb (Call { dst = None; func; args });
    Null
  end

let call_void fb func args = ignore (call fb ~ret:false func args)

let input fb ty stream = emit_def fb "in" (fun dst -> Input { dst; ty; stream })
let output fb v = emit fb (Output { v })
let ptwrite fb v = emit fb (Ptwrite { v })
let assert_ fb cond msg = emit fb (Assert { cond; msg })
let spawn fb func args = emit fb (Spawn { func; args })
let join fb = emit fb Join
let lock fb addr = emit fb (Lock { addr })
let unlock fb addr = emit fb (Unlock { addr })

(* --- terminators -------------------------------------------------------- *)

let br fb l = finish_block fb (Br l)
let condbr fb cond if_true if_false = finish_block fb (Cond_br { cond; if_true; if_false })
let ret fb v = finish_block fb (Ret v)
let ret_void fb = ret fb None
let abort fb msg = finish_block fb (Abort msg)
let unreachable fb = finish_block fb Unreachable

(* --- functions and programs --------------------------------------------- *)

let func t ~name ~params ?ret body =
  if List.exists (fun f -> String.equal f.fname name) t.funcs then
    invalid_arg (Printf.sprintf "Builder.func: duplicate %s" name);
  let fb =
    {
      fb_name = name;
      fb_params = params;
      fb_ret = ret;
      cur_label = "entry";
      cur_instrs = [];
      done_blocks = [];
      terminated = false;
      fresh = 0;
    }
  in
  body fb;
  if not fb.terminated then
    invalid_arg
      (Printf.sprintf "Builder.func %s: final block %s not terminated"
         name fb.cur_label);
  t.funcs <-
    { fname = name; params; ret_ty = ret; blocks = List.rev fb.done_blocks }
    :: t.funcs

let program t ~main =
  let prog = { globals = List.rev t.globals; funcs = List.rev t.funcs; main } in
  match Validate.check prog with
  | Ok () -> prog
  | Error msg -> invalid_arg ("Builder.program: " ^ msg)
