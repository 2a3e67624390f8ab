(* Textual rendering of EIR programs in the concrete syntax accepted by
   {!Parser}; [Pretty.program] and [Parser.parse_string] round-trip. *)

open Types

let pp_ty ppf ty = Fmt.string ppf (ty_name ty)

let pp_value ppf = function
  | Reg r -> Fmt.string ppf r
  | Imm (v, ty) -> Fmt.pf ppf "%Ld:%s" v (ty_name ty)
  | Global g -> Fmt.pf ppf "@@%s" g
  | Null -> Fmt.string ppf "null"

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Udiv -> "udiv" | Urem -> "urem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Lshr -> "lshr"
  | Ashr -> "ashr"

let cmpop_name = function
  | Eq -> "eq" | Ne -> "ne" | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt"
  | Uge -> "uge" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt" | Sge -> "sge"

let cast_name = function
  | Zext -> "zext" | Sext -> "sext" | Trunc -> "trunc"
  | Ptrtoint -> "ptrtoint" | Inttoptr -> "inttoptr"

let pp_args ppf args = Fmt.(list ~sep:(any ", ") pp_value) ppf args

let pp_instr ppf = function
  | Bin { dst; op; ty; a; b } ->
      Fmt.pf ppf "%s = %s %a %a, %a" dst (binop_name op) pp_ty ty pp_value a
        pp_value b
  | Cmp { dst; op; ty; a; b } ->
      Fmt.pf ppf "%s = cmp %s %a %a, %a" dst (cmpop_name op) pp_ty ty
        pp_value a pp_value b
  | Select { dst; ty; cond; if_true; if_false } ->
      Fmt.pf ppf "%s = select %a %a, %a, %a" dst pp_ty ty pp_value cond
        pp_value if_true pp_value if_false
  | Cast { dst; kind; to_ty; v; from_ty } ->
      Fmt.pf ppf "%s = %s %a %a to %a" dst (cast_name kind) pp_ty from_ty
        pp_value v pp_ty to_ty
  | Load { dst; ty; addr } ->
      Fmt.pf ppf "%s = load %a, %a" dst pp_ty ty pp_value addr
  | Store { ty; v; addr } ->
      Fmt.pf ppf "store %a %a, %a" pp_ty ty pp_value v pp_value addr
  | Alloc { dst; elt_ty; count; heap } ->
      Fmt.pf ppf "%s = %s %a, %a" dst
        (if heap then "alloc" else "alloca")
        pp_ty elt_ty pp_value count
  | Free { addr } -> Fmt.pf ppf "free %a" pp_value addr
  | Gep { dst; base; idx } ->
      Fmt.pf ppf "%s = gep %a, %a" dst pp_value base pp_value idx
  | Call { dst = Some d; func; args } ->
      Fmt.pf ppf "%s = call %s(%a)" d func pp_args args
  | Call { dst = None; func; args } ->
      Fmt.pf ppf "call %s(%a)" func pp_args args
  | Input { dst; ty; stream } ->
      Fmt.pf ppf "%s = input %a, \"%s\"" dst pp_ty ty stream
  | Output { v } -> Fmt.pf ppf "output %a" pp_value v
  | Ptwrite { v } -> Fmt.pf ppf "ptwrite %a" pp_value v
  | Assert { cond; msg } -> Fmt.pf ppf "assert %a, \"%s\"" pp_value cond msg
  | Spawn { func; args } -> Fmt.pf ppf "spawn %s(%a)" func pp_args args
  | Join -> Fmt.string ppf "join"
  | Lock { addr } -> Fmt.pf ppf "lock %a" pp_value addr
  | Unlock { addr } -> Fmt.pf ppf "unlock %a" pp_value addr

let pp_term ppf = function
  | Br l -> Fmt.pf ppf "br %s" l
  | Cond_br { cond; if_true; if_false } ->
      Fmt.pf ppf "br %a, %s, %s" pp_value cond if_true if_false
  | Ret (Some v) -> Fmt.pf ppf "ret %a" pp_value v
  | Ret None -> Fmt.string ppf "ret"
  | Abort msg -> Fmt.pf ppf "abort \"%s\"" msg
  | Unreachable -> Fmt.string ppf "unreachable"

let pp_block ppf b =
  Fmt.pf ppf "@[<v>%s:@;<1 2>@[<v>%a%a%a@]@]" b.label
    (Fmt.list ~sep:Fmt.cut pp_instr)
    (Array.to_list b.instrs)
    (fun ppf l -> if l <> [] then Fmt.cut ppf ()) (Array.to_list b.instrs)
    pp_term b.term

let pp_func ppf f =
  let pp_param ppf (r, ty) = Fmt.pf ppf "%s: %a" r pp_ty ty in
  Fmt.pf ppf "@[<v>func %s(%a)%a {@;<1 2>@[<v>%a@]@,}@]" f.fname
    Fmt.(list ~sep:(any ", ") pp_param)
    f.params
    (fun ppf -> function
       | Some ty -> Fmt.pf ppf " -> %a" pp_ty ty
       | None -> ())
    f.ret_ty
    (Fmt.list ~sep:(Fmt.any "@,@,") pp_block)
    f.blocks

let pp_global ppf g =
  match g.g_init with
  | None ->
      Fmt.pf ppf "global @@%s : %a[%d]" g.gname pp_ty g.g_elt_ty g.g_size
  | Some init ->
      Fmt.pf ppf "global @@%s : %a[%d] = {%a}" g.gname pp_ty g.g_elt_ty
        g.g_size
        Fmt.(list ~sep:(any ", ") (fun ppf v -> Fmt.pf ppf "%Ld" v))
        (Array.to_list init)

let pp_program ppf p =
  Fmt.pf ppf "@[<v>%a%a%a@,main %s@]"
    (Fmt.list ~sep:Fmt.cut pp_global)
    p.globals
    (fun ppf gs -> if gs <> [] then Fmt.pf ppf "@,@,") p.globals
    (Fmt.list ~sep:(Fmt.any "@,@,") pp_func)
    p.funcs p.main

let program_to_string p = Fmt.str "%a@." pp_program p
