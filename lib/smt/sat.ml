(* A from-scratch CDCL SAT solver in the MiniSat lineage: two watched
   literals, first-UIP clause learning, VSIDS decision heuristic with an
   indexed binary heap, phase saving, and Luby restarts.

   The solver is budgeted: [solve ~budget] counts propagated literals and
   gives up deterministically once the budget is exhausted.  This budget is
   ER's stand-in for the paper's 30-second constraint-solver timeout — it
   makes "symbolic execution stalls" a reproducible event rather than a
   wall-clock race.

   Bit-blasting adds clauses by the hundred thousand, so the clause path
   allocates nothing per clause: every clause, learned ones included,
   lives in one flat int arena, and every add path normalises its
   literals in place in a per-solver buffer. *)

type result = Sat | Unsat | Unknown

(* Literal encoding: variable [v] (0-based) has positive literal [2v] and
   negative literal [2v+1].  External clauses use DIMACS conventions
   (non-zero ints, sign = polarity, 1-based). *)

let lit_of_dimacs l =
  if l = 0 then invalid_arg "Sat.lit_of_dimacs: zero literal"
  else if l > 0 then 2 * (l - 1)
  else (2 * (-l - 1)) + 1

let lit_neg l = l lxor 1
let lit_var l = l lsr 1

(* --- growable int vectors ------------------------------------------- *)

module Veci = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let len v = v.len
  let clear v = v.len <- 0
  let shrink v n = v.len <- n
end

(* --- indexed max-heap on variable activity --------------------------- *)

module Heap = struct
  type t = {
    mutable heap : int array;       (* heap of variables *)
    mutable index : int array;      (* var -> position, -1 if absent *)
    mutable size : int;
    act : float array ref;          (* shared activity array *)
  }

  let create act = { heap = Array.make 16 0; index = Array.make 16 (-1); size = 0; act }

  let ensure t n =
    if n > Array.length t.index then begin
      let cap = max n (2 * Array.length t.index) in
      let index = Array.make cap (-1) in
      Array.blit t.index 0 index 0 (Array.length t.index);
      t.index <- index;
      let heap = Array.make cap 0 in
      Array.blit t.heap 0 heap 0 t.size;
      t.heap <- heap
    end

  let lt t a b = !(t.act).(a) > !(t.act).(b)

  let rec sift_up t i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if lt t t.heap.(i) t.heap.(p) then begin
        let vi = t.heap.(i) and vp = t.heap.(p) in
        t.heap.(i) <- vp; t.heap.(p) <- vi;
        t.index.(vp) <- i; t.index.(vi) <- p;
        sift_up t p
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < t.size && lt t t.heap.(l) t.heap.(!best) then best := l;
    if r < t.size && lt t t.heap.(r) t.heap.(!best) then best := r;
    if !best <> i then begin
      let vi = t.heap.(i) and vb = t.heap.(!best) in
      t.heap.(i) <- vb; t.heap.(!best) <- vi;
      t.index.(vb) <- i; t.index.(vi) <- !best;
      sift_down t !best
    end

  let mem t v = v < Array.length t.index && t.index.(v) >= 0

  let insert t v =
    ensure t (v + 1);
    if not (mem t v) then begin
      t.heap.(t.size) <- v;
      t.index.(v) <- t.size;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)
    end

  let decrease t v = if mem t v then sift_up t t.index.(v)

  let pop t =
    let v = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.heap.(t.size) in
      t.heap.(0) <- last;
      t.index.(last) <- 0;
      sift_down t 0
    end;
    t.index.(v) <- -1;
    v

  let is_empty t = t.size = 0
end

(* --- solver ---------------------------------------------------------- *)

(* Search heuristics are fixed: VSIDS activity decays by 0.95 per
   conflict, restarts follow the Luby sequence with base 64, and phase
   saving starts every variable at polarity false.  Every SAT trajectory
   the tests and the committed bench baselines pin depends on these. *)
let var_decay_factor = 0.95
let luby_base = 64

(* Clause arena layout: a clause is a header word holding its length
   [n >= 2], followed by its [n] literals; a clause reference is the
   offset of its header.  Watch lists and [reason] hold references;
   [reason] is -1 for decisions and level-0 units. *)
type t = {
  mutable nvars : int;
  mutable cap : int;                      (* capacity of per-var arrays *)
  mutable arena : int array;              (* all clauses, back to back *)
  mutable arena_len : int;
  mutable nclauses : int;
  mutable watches : int array array;      (* literal -> clause refs; [||]
                                             until its first watch *)
  mutable watch_len : int array;
  mutable assigns : int array;            (* var -> 0 undef | 1 | -1 *)
  mutable level : int array;
  mutable reason : int array;             (* var -> clause ref or -1 *)
  mutable phase : bool array;             (* saved polarity *)
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable qhead : int;
  mutable activity : float array ref;
  heap : Heap.t;
  mutable var_inc : float;
  mutable ok : bool;                      (* false once UNSAT at level 0 *)
  mutable propagations : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable restarts : int;
  seen : Veci.t;                          (* scratch for analyze *)
  mutable seen_flags : bool array;
  learnt : Veci.t;                        (* analyze's learned clause *)
  buf : Veci.t;                           (* add-path normalisation *)
}

let initial_cap = 16

let create () =
  let activity = ref (Array.make initial_cap 0.0) in
  {
    nvars = 0;
    cap = initial_cap;
    arena = Array.make 256 0;
    arena_len = 0;
    nclauses = 0;
    watches = Array.make (2 * initial_cap) [||];
    watch_len = Array.make (2 * initial_cap) 0;
    assigns = Array.make initial_cap 0;
    level = Array.make initial_cap 0;
    reason = Array.make initial_cap (-1);
    phase = Array.make initial_cap false;
    trail = Veci.create ();
    trail_lim = Veci.create ();
    qhead = 0;
    activity;
    heap = Heap.create activity;
    var_inc = 1.0;
    ok = true;
    propagations = 0;
    conflicts = 0;
    decisions = 0;
    restarts = 0;
    seen = Veci.create ();
    seen_flags = Array.make initial_cap false;
    learnt = Veci.create ();
    buf = Veci.create ();
  }

let grow_ints (a : int array) c fill =
  let a' = Array.make c fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_bools (a : bool array) c fill =
  let a' = Array.make c fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_watches (a : int array array) c =
  let a' = Array.make c [||] in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_floats (a : float array) c =
  let a' = Array.make c 0.0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Per-variable arrays share one capacity and double together. *)
let grow_vars s n =
  if n > s.cap then begin
    let c = max n (2 * s.cap) in
    s.cap <- c;
    s.assigns <- grow_ints s.assigns c 0;
    s.level <- grow_ints s.level c 0;
    s.reason <- grow_ints s.reason c (-1);
    s.phase <- grow_bools s.phase c false;
    s.seen_flags <- grow_bools s.seen_flags c false;
    s.watches <- grow_watches s.watches (2 * c);
    s.watch_len <- grow_ints s.watch_len (2 * c) 0;
    s.activity := grow_floats !(s.activity) c
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_vars s s.nvars;
  Heap.insert s.heap v;
  v + 1  (* external, 1-based *)

let value_lit s l =
  let a = s.assigns.(lit_var l) in
  if a = 0 then 0 else if l land 1 = 0 then a else -a

let enqueue s l reason =
  let v = lit_var l in
  s.assigns.(v) <- (if l land 1 = 0 then 1 else -1);
  s.level.(v) <- Veci.len s.trail_lim;
  s.reason.(v) <- reason;
  s.phase.(v) <- l land 1 = 0;
  Veci.push s.trail l

(* Append clause reference [cr] to literal [l]'s watch list, allocating
   the list on its first watch. *)
let watch s l cr =
  let n = s.watch_len.(l) in
  let ws = s.watches.(l) in
  if n = Array.length ws then begin
    let ws' = Array.make (max 4 (2 * n)) 0 in
    Array.blit ws 0 ws' 0 n;
    ws'.(n) <- cr;
    s.watches.(l) <- ws'
  end
  else ws.(n) <- cr;
  s.watch_len.(l) <- n + 1

(* Copy the [n >= 2] literals [lits.(0..n-1)] into the arena as one
   clause watching its first two literals; returns its reference. *)
let attach s lits n =
  let cr = s.arena_len in
  let need = cr + 1 + n in
  if need > Array.length s.arena then
    s.arena <- grow_ints s.arena (max need (2 * Array.length s.arena)) 0;
  s.arena.(cr) <- n;
  Array.blit lits 0 s.arena (cr + 1) n;
  s.arena_len <- need;
  s.nclauses <- s.nclauses + 1;
  watch s (lit_neg lits.(0)) cr;
  watch s (lit_neg lits.(1)) cr;
  cr

(* Store internal literal [l] at position [i] of the add buffer. *)
let buf_set s i l =
  let b = s.buf in
  if i >= Array.length b.Veci.data then
    b.Veci.data <- grow_ints b.Veci.data (2 * (i + 1)) 0;
  b.Veci.data.(i) <- l

(* Add the clause held in [buf.(0..n-1)] (internal literals).  One
   normalisation for every add path: sort ascending and dedupe, drop a
   tautology, drop literals already false at level 0, drop a clause
   already true at level 0; empty and unit remainders settle at once. *)
let add_buffered s n =
  let b = s.buf.Veci.data in
  for i = 1 to n - 1 do
    let x = b.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && b.(!j) > x do
      b.(!j + 1) <- b.(!j);
      decr j
    done;
    b.(!j + 1) <- x
  done;
  (* sorted, so a duplicate or a complementary pair is adjacent *)
  let m = ref 0 and tauto = ref false in
  for i = 0 to n - 1 do
    let x = b.(i) in
    if !m = 0 || b.(!m - 1) <> x then begin
      if !m > 0 && lit_var b.(!m - 1) = lit_var x then tauto := true;
      b.(!m) <- x;
      incr m
    end
  done;
  if not !tauto then begin
    let k = ref 0 and sat_already = ref false in
    for i = 0 to !m - 1 do
      let x = b.(i) in
      let v = value_lit s x in
      if v <> 0 && s.level.(lit_var x) = 0 then begin
        if v = 1 then sat_already := true
      end
      else begin
        b.(!k) <- x;
        incr k
      end
    done;
    if not !sat_already then
      match !k with
      | 0 -> s.ok <- false
      | 1 ->
          let l = b.(0) in
          let v = value_lit s l in
          if v = -1 then s.ok <- false else if v = 0 then enqueue s l (-1)
      | k -> ignore (attach s b k)
  end

(* Add an external clause (DIMACS literals).  Must be called before or
   between solves; handles unit and empty clauses at level 0. *)
let add_clause s dimacs =
  if s.ok then begin
    let n =
      List.fold_left
        (fun i l ->
          buf_set s i (lit_of_dimacs l);
          i + 1)
        0 dimacs
    in
    add_buffered s n
  end

(* The two- and three-literal forms every bit-blast gate clause takes:
   the same normalisation as [add_clause], with no list in between. *)
let add_clause2 s a b =
  if s.ok then begin
    let buf = s.buf.Veci.data in
    buf.(0) <- lit_of_dimacs a;
    buf.(1) <- lit_of_dimacs b;
    add_buffered s 2
  end

let add_clause3 s a b c =
  if s.ok then begin
    let buf = s.buf.Veci.data in
    buf.(0) <- lit_of_dimacs a;
    buf.(1) <- lit_of_dimacs b;
    buf.(2) <- lit_of_dimacs c;
    add_buffered s 3
  end

(* Propagate all enqueued literals; returns the conflicting clause
   reference or -1. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < Veci.len s.trail do
    let l = Veci.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* The clauses watching [falsel].  A replacement watch always goes
       to a non-false literal's list, never back to this one, so [ws]
       stays this literal's array throughout. *)
    let ws = s.watches.(l) in
    let n = s.watch_len.(l) in
    let arena = s.arena in
    let falsel = lit_neg l in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = ws.(!i) in
      incr i;
      let c = cr + 1 in
      (* make sure the false literal is at position 1 *)
      if arena.(c) = falsel then begin
        arena.(c) <- arena.(c + 1);
        arena.(c + 1) <- falsel
      end;
      if value_lit s arena.(c) = 1 then begin
        (* clause satisfied; keep watch *)
        ws.(!j) <- cr;
        incr j
      end
      else begin
        (* look for a new literal to watch *)
        let len = arena.(cr) in
        let found = ref false in
        let k = ref 2 in
        while (not !found) && !k < len do
          let lk = arena.(c + !k) in
          if value_lit s lk <> -1 then begin
            arena.(c + 1) <- lk;
            arena.(c + !k) <- falsel;
            watch s (lit_neg lk) cr;
            found := true
          end;
          incr k
        done;
        if not !found then begin
          (* unit or conflicting *)
          ws.(!j) <- cr;
          incr j;
          if value_lit s arena.(c) = -1 then begin
            (* keep the remaining watches *)
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr i;
              incr j
            done;
            confl := cr
          end
          else enqueue s arena.(c) cr
        end
      end
    done;
    s.watch_len.(l) <- !j
  done;
  !confl

let var_bump s v =
  let act = !(s.activity) in
  act.(v) <- act.(v) +. s.var_inc;
  if act.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.decrease s.heap v

let var_decay s = s.var_inc <- s.var_inc /. var_decay_factor

(* First-UIP conflict analysis.  Leaves the learned clause in [s.learnt]
   with the asserting literal first and returns the backjump level. *)
let analyze s confl =
  let learnt = s.learnt in
  Veci.clear learnt;
  Veci.push learnt 0;                     (* slot for asserting literal *)
  let path = ref 0 in
  let p = ref (-1) in
  let cr = ref confl in
  let idx = ref (Veci.len s.trail - 1) in
  let continue = ref true in
  while !continue do
    let arena = s.arena in
    let c = !cr in
    let start = if !p = -1 then 0 else 1 in
    for i = start to arena.(c) - 1 do
      let q = arena.(c + 1 + i) in
      let v = lit_var q in
      if (not s.seen_flags.(v)) && s.level.(v) > 0 then begin
        s.seen_flags.(v) <- true;
        Veci.push s.seen v;
        var_bump s v;
        if s.level.(v) = Veci.len s.trail_lim then incr path
        else Veci.push learnt q
      end
    done;
    (* pick next literal to expand from the trail *)
    while not s.seen_flags.(lit_var (Veci.get s.trail !idx)) do
      decr idx
    done;
    let l = Veci.get s.trail !idx in
    decr idx;
    s.seen_flags.(lit_var l) <- false;
    decr path;
    if !path = 0 then begin
      Veci.set learnt 0 (lit_neg l);
      continue := false
    end else begin
      p := l;
      cr := s.reason.(lit_var l)
    end
  done;
  (* clear remaining seen flags *)
  for i = 0 to Veci.len s.seen - 1 do
    s.seen_flags.(Veci.get s.seen i) <- false
  done;
  Veci.clear s.seen;
  (* backjump level = max level among learnt.(1..) *)
  let n = Veci.len learnt in
  let blevel = ref 0 in
  let pos = ref 1 in
  for i = 1 to n - 1 do
    let lv = s.level.(lit_var (Veci.get learnt i)) in
    if lv > !blevel then begin blevel := lv; pos := i end
  done;
  if n > 1 then begin
    let tmp = Veci.get learnt 1 in
    Veci.set learnt 1 (Veci.get learnt !pos);
    Veci.set learnt !pos tmp
  end;
  !blevel

let cancel_until s lvl =
  if Veci.len s.trail_lim > lvl then begin
    let bound = Veci.get s.trail_lim lvl in
    for i = Veci.len s.trail - 1 downto bound do
      let v = lit_var (Veci.get s.trail i) in
      s.assigns.(v) <- 0;
      s.reason.(v) <- -1;
      Heap.insert s.heap v
    done;
    Veci.shrink s.trail bound;
    s.qhead <- bound;
    Veci.shrink s.trail_lim lvl
  end

let decide s =
  let rec pick () =
    if Heap.is_empty s.heap then -1
    else
      let v = Heap.pop s.heap in
      if s.assigns.(v) = 0 then v else pick ()
  in
  let v = pick () in
  if v = -1 then -1
  else begin
    s.decisions <- s.decisions + 1;
    Veci.push s.trail_lim (Veci.len s.trail);
    let l = if s.phase.(v) then 2 * v else (2 * v) + 1 in
    enqueue s l (-1);
    l
  end

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec pow2 k = if k = 0 then 1 else 2 * pow2 (k - 1) in
  let rec find k = if pow2 (k + 1) - 1 <= i then find (k + 1) else k in
  let k = find 0 in
  if i = pow2 (k + 1) - 2 then pow2 k else luby (i - pow2 k + 1)

(* [solve ?budget ?assumptions s].

   Assumptions are DIMACS literals assumed before any VSIDS decision: the
   k-th pending assumption is decided at decision level k (an assumption
   that is already true gets a dummy level so the level<->assumption
   correspondence stays intact; MiniSat does the same).  A conflict that
   forces an assumption false yields [Unsat] *under the assumptions* —
   the solver itself stays usable ([s.ok] is untouched), which is what
   lets an incremental session pop that assumption and continue.

   The budget is relative to the work counters at entry, so that a
   session issuing many [solve] calls on one solver gives each call the
   same deterministic allowance a fresh solver would get. *)
let solve ?(budget = max_int) ?(assumptions = []) s =
  if not s.ok then Unsat
  else begin
    let assum = Array.of_list (List.map lit_of_dimacs assumptions) in
    let nassum = Array.length assum in
    let p0 = s.propagations and c0 = s.conflicts in
    let budget_left () =
      s.propagations - p0 + (100 * (s.conflicts - c0)) < budget
    in
    (* 0 = progressed, 1 = all vars assigned (Sat), 2 = assumption
       contradicted (Unsat under assumptions). *)
    let decide_step () =
      let dl = Veci.len s.trail_lim in
      if dl < nassum then begin
        let l = assum.(dl) in
        match value_lit s l with
        | 1 ->
            Veci.push s.trail_lim (Veci.len s.trail);
            0
        | -1 -> 2
        | _ ->
            s.decisions <- s.decisions + 1;
            Veci.push s.trail_lim (Veci.len s.trail);
            enqueue s l (-1);
            0
      end
      else if decide s = -1 then 1
      else 0
    in
    let restart_n = ref 0 in
    let result = ref None in
    (* Normalize to root: a previous [Sat] answer leaves the trail in
       place for [value] reads, so an incremental re-solve must not start
       from those stale decisions. *)
    cancel_until s 0;
    (match propagate s with
     | -1 -> ()
     | _ ->
         s.ok <- false;
         result := Some Unsat);
    while !result = None do
      if not (budget_left ()) then begin
        cancel_until s 0;
        result := Some Unknown
      end
      else begin
        let conflict_budget = luby_base * luby !restart_n in
        incr restart_n;
        let conflicts_here = ref 0 in
        let break = ref false in
        while (not !break) && !result = None do
          let confl = propagate s in
          if confl >= 0 then begin
            s.conflicts <- s.conflicts + 1;
            incr conflicts_here;
            if Veci.len s.trail_lim = 0 then begin
              s.ok <- false;
              result := Some Unsat
            end
            else if Veci.len s.trail_lim <= nassum then begin
              (* Conflict while only assumption levels are open: the
                 assumption set is contradicted. *)
              result := Some Unsat
            end
            else begin
              let blevel = analyze s confl in
              cancel_until s blevel;
              let asserting = Veci.get s.learnt 0 in
              (match Veci.len s.learnt with
               | 1 ->
                   (* A unit learned clause always backjumps to root and
                      is implied by the clause database alone, so it is
                      sound to keep across assumption changes. *)
                   enqueue s asserting (-1)
               | n ->
                   let cr = attach s s.learnt.Veci.data n in
                   enqueue s asserting cr);
              var_decay s
            end
          end
          else if !conflicts_here >= conflict_budget then begin
            s.restarts <- s.restarts + 1;
            (* Restart clears search decisions but keeps assumption
               levels assigned — re-propagating the whole assertion set
               after every restart would charge the budget for work a
               unit-clause (one-shot) encoding does exactly once. *)
            cancel_until s nassum;
            break := true
          end
          else if not (budget_left ()) then begin
            cancel_until s 0;
            result := Some Unknown
          end
          else begin
            match decide_step () with
            | 1 -> result := Some Sat
            | 2 -> result := Some Unsat
            | _ -> ()
          end
        done
      end
    done;
    (match !result with
     | Some Sat -> ()
     | _ -> cancel_until s 0);
    match !result with Some r -> r | None -> assert false
  end

(* Undo all decision levels, restoring the solver to its root state so
   that new clauses can be added.  After a [Sat] answer the trail is left
   in place for [value] reads; an incremental caller must backtrack
   before growing the formula. *)
let backtrack_root s = cancel_until s 0

(* Model value of an external (1-based) variable after [Sat]. *)
let value s extvar =
  let v = extvar - 1 in
  if v < 0 || v >= s.nvars then invalid_arg "Sat.value";
  s.assigns.(v) = 1

let stats s = (s.propagations, s.conflicts, s.nclauses)
let decisions s = s.decisions
let restarts s = s.restarts
let num_vars s = s.nvars

(* The [k] highest of [act.(0..n-1)] as (external variable, activity),
   highest first, ties by variable: one pass keeping the best [k] in
   rank order.  Variables arrive in ascending order, so a newcomer ranks
   below every kept entry it merely ties. *)
let top_k ~k act n =
  if k <= 0 then []
  else begin
    let vs = Array.make k 0 and acts = Array.make k 0.0 in
    let size = ref 0 in
    for v = 0 to n - 1 do
      let a = act.(v) in
      if !size < k || Float.compare a acts.(k - 1) > 0 then begin
        let i = ref (min !size (k - 1)) in
        while !i > 0 && Float.compare a acts.(!i - 1) > 0 do
          vs.(!i) <- vs.(!i - 1);
          acts.(!i) <- acts.(!i - 1);
          decr i
        done;
        vs.(!i) <- v + 1;
        acts.(!i) <- a;
        if !size < k then incr size
      end
    done;
    List.init !size (fun i -> (vs.(i), acts.(i)))
  end

(* The k most active variables (external 1-based indices) with their
   VSIDS activities, highest first, ties by variable index: what the
   search cared about, deterministically. *)
let top_activity ?(k = 8) s = top_k ~k !(s.activity) s.nvars
