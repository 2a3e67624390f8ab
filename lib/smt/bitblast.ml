(* Tseitin bit-blasting of (array-free) bitvector terms onto the CDCL SAT
   solver.  Each bitvector term maps to an array of SAT literals, LSB
   first.  Gate construction is budgeted: when a formula needs more gates
   than the budget allows (the typical outcome of a long symbolic-write
   chain expanded to ite towers), blasting raises [Too_large], which the
   solver reports as [Unknown] — a stall, in the paper's terminology. *)

exception Too_large

(* Arrays must be eliminated (see {!Arrays}) before blasting. *)
exception Unsupported of string

type ctx = {
  sat : Sat.t;
  memo : (int, int array) Hashtbl.t;       (* expr id -> bit literals *)
  var_bits : (Expr.t * int array) list ref;(* for model extraction *)
  true_lit : int;
  mutable gates : int;
  mutable gate_limit : int;                (* raise Too_large past this *)
}

let create ?(gate_budget = max_int) sat =
  let t = Sat.new_var sat in
  Sat.add_clause sat [ t ];
  {
    sat;
    memo = Hashtbl.create 1024;
    var_bits = ref [];
    true_lit = t;
    gates = 0;
    gate_limit = gate_budget;
  }

let gate_count ctx = ctx.gates

(* Reset the absolute gate limit.  The gate counter itself carries over:
   a session's budget is on the *total* encoding size, which is exactly
   what one-shot re-blasting of the whole assertion set enforced, since
   hash-consed blasting builds the same unique-gate set either way. *)
let arm ctx ~gate_limit = ctx.gate_limit <- gate_limit

let fresh ctx =
  ctx.gates <- ctx.gates + 1;
  if ctx.gates > ctx.gate_limit then raise Too_large;
  Sat.new_var ctx.sat

let tt ctx = ctx.true_lit
let ff ctx = -ctx.true_lit

(* --- gates (with constant folding on the true/false literals) -------- *)

let g_and ctx a b =
  if a = ff ctx || b = ff ctx then ff ctx
  else if a = tt ctx then b
  else if b = tt ctx then a
  else if a = b then a
  else if a = -b then ff ctx
  else begin
    let y = fresh ctx in
    Sat.add_clause2 ctx.sat (-y) a;
    Sat.add_clause2 ctx.sat (-y) b;
    Sat.add_clause3 ctx.sat y (-a) (-b);
    y
  end

let g_or ctx a b = -g_and ctx (-a) (-b)

let g_xor ctx a b =
  if a = ff ctx then b
  else if b = ff ctx then a
  else if a = tt ctx then -b
  else if b = tt ctx then -a
  else if a = b then ff ctx
  else if a = -b then tt ctx
  else begin
    let y = fresh ctx in
    Sat.add_clause3 ctx.sat (-y) a b;
    Sat.add_clause3 ctx.sat (-y) (-a) (-b);
    Sat.add_clause3 ctx.sat y (-a) b;
    Sat.add_clause3 ctx.sat y a (-b);
    y
  end

let g_ite ctx c a b =
  if c = tt ctx then a
  else if c = ff ctx then b
  else if a = b then a
  else if a = tt ctx && b = ff ctx then c
  else if a = ff ctx && b = tt ctx then -c
  else begin
    let y = fresh ctx in
    Sat.add_clause3 ctx.sat (-y) (-c) a;
    Sat.add_clause3 ctx.sat (-y) c b;
    Sat.add_clause3 ctx.sat y (-c) (-a);
    Sat.add_clause3 ctx.sat y c (-b);
    y
  end

(* majority of three: carry bit of a full adder *)
let g_maj ctx a b c =
  g_or ctx (g_and ctx a b) (g_or ctx (g_and ctx a c) (g_and ctx b c))

let g_xor3 ctx a b c = g_xor ctx (g_xor ctx a b) c

(* --- word-level circuits --------------------------------------------- *)

let bits_of_const ctx ~width v =
  Array.init width (fun i ->
      if Int64.equal (Int64.logand (Int64.shift_right_logical v i) 1L) 1L
      then tt ctx
      else ff ctx)

(* ripple-carry adder; returns (sum bits, carry out) *)
let adder ctx a b cin =
  let w = Array.length a in
  let sum = Array.make w (ff ctx) in
  let carry = ref cin in
  for i = 0 to w - 1 do
    sum.(i) <- g_xor3 ctx a.(i) b.(i) !carry;
    carry := g_maj ctx a.(i) b.(i) !carry
  done;
  (sum, !carry)

let bnot ctx a = ignore ctx; Array.map (fun l -> -l) a

let add_bits ctx a b = fst (adder ctx a b (ff ctx))
let sub_bits ctx a b = fst (adder ctx a (bnot ctx b) (tt ctx))
let neg_bits ctx a = sub_bits ctx (bits_of_const ctx ~width:(Array.length a) 0L) a

(* unsigned a < b  <=>  no carry out of a + ~b + 1 *)
let ult_bit ctx a b = -(snd (adder ctx a (bnot ctx b) (tt ctx)))

let slt_bit ctx a b =
  (* flip sign bits, then unsigned compare *)
  let w = Array.length a in
  let a' = Array.copy a and b' = Array.copy b in
  a'.(w - 1) <- -a.(w - 1);
  b'.(w - 1) <- -b.(w - 1);
  ult_bit ctx a' b'

let eq_bit ctx a b =
  let w = Array.length a in
  let acc = ref (tt ctx) in
  for i = 0 to w - 1 do
    acc := g_and ctx !acc (-g_xor ctx a.(i) b.(i))
  done;
  !acc

let mul_bits ctx a b =
  let w = Array.length a in
  let acc = ref (bits_of_const ctx ~width:w 0L) in
  for i = 0 to w - 1 do
    (* partial product: (a << i) masked by b.(i) *)
    let pp =
      Array.init w (fun j -> if j < i then ff ctx else g_and ctx b.(i) a.(j - i))
    in
    acc := add_bits ctx !acc pp
  done;
  !acc

(* Restoring division: returns (quotient, remainder).  Division by zero
   follows SMT-LIB: q = all-ones, r = a. *)
let divrem_bits ctx a b =
  let w = Array.length a in
  (* work on w+1 bits so the shifted partial remainder never overflows *)
  let bext = Array.init (w + 1) (fun i -> if i < w then b.(i) else ff ctx) in
  let r = ref (Array.make (w + 1) (ff ctx)) in
  let q = Array.make w (ff ctx) in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a.(i) *)
    let shifted =
      Array.init (w + 1) (fun j ->
          if j = 0 then a.(i) else !r.(j - 1))
    in
    let geq = -ult_bit ctx shifted bext in
    q.(i) <- geq;
    let diff = sub_bits ctx shifted bext in
    r := Array.init (w + 1) (fun j -> g_ite ctx geq diff.(j) shifted.(j))
  done;
  let rem = Array.sub !r 0 w in
  (q, rem)

(* Barrel shifter.  [fill] supplies the bit shifted in; [left] selects the
   direction.  The shift amount [s] has the same width as [a]; amounts >= w
   yield all-[fill]. *)
let shift_bits ctx ~left ~fill a s =
  let w = Array.length a in
  let stages = ref a in
  let log2w =
    let rec go k = if 1 lsl k >= w then k else go (k + 1) in
    go 0
  in
  for st = 0 to log2w - 1 do
    let amount = 1 lsl st in
    let cur = !stages in
    let shifted =
      Array.init w (fun i ->
          if left then if i < amount then fill cur else cur.(i - amount)
          else if i + amount < w then cur.(i + amount)
          else fill cur)
    in
    stages := Array.init w (fun i -> g_ite ctx s.(st) shifted.(i) cur.(i))
  done;
  (* if any amount bit >= log2w (beyond those consumed) is set, and the
     consumed bits do not already cover it, the result saturates *)
  let big = ref (ff ctx) in
  for i = log2w to w - 1 do
    big := g_or ctx !big s.(i)
  done;
  (* amounts in [w, 2^log2w) when w is not a power of two *)
  if 1 lsl log2w <> w then begin
    let wbits = bits_of_const ctx ~width:w (Int64.of_int w) in
    let ge_w = -ult_bit ctx s wbits in
    big := g_or ctx !big ge_w
  end;
  let cur = !stages in
  Array.init w (fun i -> g_ite ctx !big (fill cur) cur.(i))

(* --- expression translation ------------------------------------------ *)

let rec bits_of ctx (e : Expr.t) : int array =
  match Hashtbl.find_opt ctx.memo (Expr.id e) with
  | Some b -> b
  | None ->
      let b = compute ctx e in
      Hashtbl.add ctx.memo (Expr.id e) b;
      b

and compute ctx e =
  let w = Expr.width e in
  match Expr.node e with
  | Expr.Const v -> bits_of_const ctx ~width:w v
  | Expr.Var _ ->
      let b = Array.init w (fun _ -> Sat.new_var ctx.sat) in
      ctx.var_bits := (e, b) :: !(ctx.var_bits);
      b
  | Expr.Unop (Expr.Neg, a) -> neg_bits ctx (bits_of ctx a)
  | Expr.Unop (Expr.Lognot, a) -> bnot ctx (bits_of ctx a)
  | Expr.Binop (op, a, b) ->
      let ba = bits_of ctx a and bb = bits_of ctx b in
      (match op with
       | Expr.Add -> add_bits ctx ba bb
       | Expr.Sub -> sub_bits ctx ba bb
       | Expr.Mul -> mul_bits ctx ba bb
       | Expr.Udiv -> fst (divrem_bits ctx ba bb)
       | Expr.Urem -> snd (divrem_bits ctx ba bb)
       | Expr.And -> Array.init w (fun i -> g_and ctx ba.(i) bb.(i))
       | Expr.Or -> Array.init w (fun i -> g_or ctx ba.(i) bb.(i))
       | Expr.Xor -> Array.init w (fun i -> g_xor ctx ba.(i) bb.(i))
       | Expr.Shl -> shift_bits ctx ~left:true ~fill:(fun _ -> ff ctx) ba bb
       | Expr.Lshr -> shift_bits ctx ~left:false ~fill:(fun _ -> ff ctx) ba bb
       | Expr.Ashr ->
           shift_bits ctx ~left:false ~fill:(fun cur -> cur.(w - 1)) ba bb)
  | Expr.Cmp (op, a, b) ->
      let ba = bits_of ctx a and bb = bits_of ctx b in
      let bit =
        match op with
        | Expr.Eq -> eq_bit ctx ba bb
        | Expr.Ult -> ult_bit ctx ba bb
        | Expr.Ule -> -ult_bit ctx bb ba
        | Expr.Slt -> slt_bit ctx ba bb
        | Expr.Sle -> -slt_bit ctx bb ba
      in
      [| bit |]
  | Expr.Ite (c, a, b) ->
      let bc = (bits_of ctx c).(0) in
      let ba = bits_of ctx a and bb = bits_of ctx b in
      Array.init w (fun i -> g_ite ctx bc ba.(i) bb.(i))
  | Expr.Extract { hi = _; lo; arg } ->
      let ba = bits_of ctx arg in
      Array.init w (fun i -> ba.(i + lo))
  | Expr.Concat (hi, lo) ->
      let bh = bits_of ctx hi and bl = bits_of ctx lo in
      let wl = Array.length bl in
      Array.init w (fun i -> if i < wl then bl.(i) else bh.(i - wl))
  | Expr.Read _ | Expr.Write _ | Expr.Const_array _ ->
      raise (Unsupported "array term reached the bit-blaster")

(* Blast a width-1 expression down to its single SAT literal, without
   asserting anything.  This is what lets an incremental session guard an
   assertion behind a selector: it adds [-sel; lit] itself and activates
   the assertion per-check via solver assumptions. *)
let lit_of ctx e =
  if Expr.width e <> 1 then invalid_arg "Bitblast.lit_of";
  (bits_of ctx e).(0)

(* Assert a width-1 expression unconditionally. *)
let assert_true ctx e = Sat.add_clause ctx.sat [ lit_of ctx e ]

(* Variables encountered so far with their bit literals (model extraction). *)
let blasted_vars ctx = !(ctx.var_bits)

(* Read back the value of a blasted variable from a SAT model. *)
let value_of_bits sat bits =
  let v = ref 0L in
  Array.iteri
    (fun i l ->
       let b =
         if l > 0 then Sat.value sat l
         else not (Sat.value sat (-l))
       in
       if b then v := Int64.logor !v (Int64.shift_left 1L i))
    bits;
  !v
