(** Hash-consed bitvector/array expressions.

    Every expression is interned: structurally equal terms (within one
    interning space) are physically equal and carry a unique, stable
    [id].  This is what the rest of the SMT stack leans on — the
    bit-blaster memoizes by id so equal subterms are encoded once, array
    elimination memoizes rewrites by id, and the solver's result cache
    keys whole assertion sets by their sorted ids.  The tables are owned
    by this module; the only way to obtain a [t] is through the smart
    constructors below, which also perform the constant folding and
    width checking the downstream layers assume.

    Interning is organized into {e spaces} (see {!in_fresh_space}): each
    space has its own mutex-guarded table, while ids stay unique across
    all spaces.  Running a computation in a fresh space makes its
    interning order — and everything downstream that depends on id
    order — independent of whatever other domains or earlier
    computations interned, which is how fleet mode keeps per-bug results
    bit-identical between sequential and parallel runs. *)

type unop = Neg | Lognot

type binop =
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr

type cmpop = Eq | Ult | Ule | Slt | Sle

type t

type node =
  | Const of int64
  | Var of string
  | Unop of unop * t
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | Ite of t * t * t
  | Extract of { hi : int; lo : int; arg : t }
  | Concat of t * t
  | Read of { arr : t; idx : t }
  | Write of { arr : t; idx : t; value : t }
  | Const_array of int64

val node : t -> node
val ty : t -> Ty.t

(** Unique interning id.  Stable for the lifetime of the process and
    unique across all interning spaces; within one space, equal ids iff
    structurally equal terms. *)
val id : t -> int

(* --- interning spaces ------------------------------------------------- *)

(** An interning space: one mutex-guarded hash-cons table.  Safe to
    share between domains. *)
type space

(** A brand-new empty space. *)
val create_space : unit -> space

(** [with_space sp f] interns everything [f] builds on this domain into
    [sp], restoring the previous space afterwards. *)
val with_space : space -> (unit -> 'a) -> 'a

(** [in_fresh_space f] = [with_space (create_space ()) f]: runs [f] in
    an isolated interning space, making its id ordering (hence the whole
    downstream solver trajectory) independent of any other computation
    in the process.  Fleet workers wrap each bug reconstruction in this. *)
val in_fresh_space : (unit -> 'a) -> 'a

(** Stamp of the current domain's space (distinct per space); the solver
    shards its result cache by this, so cached outcomes never leak
    between spaces. *)
val space_stamp : unit -> int

(** Bit width of a bitvector-typed term ([Invalid_argument] on arrays). *)
val width : t -> int

(** Physical equality — sound because of hash-consing. *)
val equal : t -> t -> bool

val compare : t -> t -> int
val hash : t -> int

(** Number of distinct terms ever interned, across all spaces. *)
val live_nodes : unit -> int

(* --- constructors --------------------------------------------------- *)

val const : width:int -> int64 -> t
val var : string -> Ty.t -> t
val bv_var : string -> width:int -> t
val arr_var : string -> idx:int -> elt:int -> t
val const_array : idx:int -> elt:int -> int64 -> t

(* --- predicates and projections -------------------------------------- *)

val is_const : t -> bool
val to_const : t -> int64 option
val is_true : t -> bool
val is_false : t -> bool
val elt_width : t -> int
val idx_width : t -> int

(* --- concrete semantics (shared with {!Model}) ------------------------ *)

val eval_unop : unop -> int -> int64 -> int64
val eval_binop : binop -> int -> int64 -> int64 -> int64
val eval_cmp : cmpop -> int -> int64 -> int64 -> bool

(* --- operators (constant-folding smart constructors) ------------------ *)

val unop : unop -> t -> t
val binop : binop -> t -> t -> t
val cmp : cmpop -> t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val logand_ : t -> t -> t
val logor_ : t -> t -> t
val logxor_ : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t
val neg : t -> t
val lognot_ : t -> t
val eq : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val not_ : t -> t
val ne : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val sgt : t -> t -> t
val sge : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val implies : t -> t -> t
val ite : t -> t -> t -> t
val extract : hi:int -> lo:int -> t -> t
val concat : t -> t -> t
val zero_extend : to_:int -> t -> t
val sign_extend_e : to_:int -> t -> t
val truncate : to_:int -> t -> t
val write : t -> t -> t -> t
val read : t -> t -> t

(* --- traversal -------------------------------------------------------- *)

val children : t -> t list
val fold_subterms : ('a -> t -> 'a) -> 'a -> t list -> 'a
val iter_subterms : (t -> unit) -> t list -> unit
val size : t -> int

(** Distinct variables of a term list, in first-occurrence order. *)
val vars : t list -> t list

(* --- printing --------------------------------------------------------- *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
