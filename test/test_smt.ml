(* Unit and property tests for the er_smt substrate: term interning and
   folding, the CDCL SAT core, array elimination, and end-to-end check-sat
   against the reference concrete evaluator. *)

open Er_smt

let i32 v = Expr.const ~width:32 (Int64.of_int v)
let x32 = Expr.bv_var "x" ~width:32
let y32 = Expr.bv_var "y" ~width:32

(* --- Expr ------------------------------------------------------------ *)

let test_hashcons () =
  let a = Expr.add x32 (i32 1) and b = Expr.add x32 (i32 1) in
  Alcotest.(check bool) "same node" true (Expr.equal a b);
  Alcotest.(check int) "same id" (Expr.id a) (Expr.id b)

let test_folding () =
  let open Expr in
  Alcotest.(check bool) "const add" true (equal (add (i32 2) (i32 3)) (i32 5));
  Alcotest.(check bool) "add zero" true (equal (add x32 (i32 0)) x32);
  Alcotest.(check bool) "mul one" true (equal (mul x32 (i32 1)) x32);
  Alcotest.(check bool) "mul zero" true (equal (mul x32 (i32 0)) (i32 0));
  Alcotest.(check bool) "x - x" true (equal (sub x32 x32) (i32 0));
  Alcotest.(check bool) "x xor x" true (equal (logxor_ x32 x32) (i32 0));
  Alcotest.(check bool) "eq refl" true (is_true (eq x32 x32));
  Alcotest.(check bool) "ult irrefl" true (is_false (ult x32 x32));
  Alcotest.(check bool) "not not" true (equal (not_ (not_ (eq x32 y32))) (eq x32 y32));
  Alcotest.(check bool) "eq sym interned" true
    (equal (eq x32 y32) (eq y32 x32))

let test_fold_width_truncation () =
  let a = Expr.const ~width:8 255L and b = Expr.const ~width:8 1L in
  Alcotest.(check bool) "overflow wraps" true
    (Expr.equal (Expr.add a b) (Expr.const ~width:8 0L));
  let m = Expr.mul (Expr.const ~width:8 16L) (Expr.const ~width:8 16L) in
  Alcotest.(check bool) "mul wraps" true (Expr.equal m (Expr.const ~width:8 0L))

let test_row_rules () =
  let open Expr in
  let arr = const_array ~idx:32 ~elt:32 0L in
  let w1 = write arr (i32 3) (i32 99) in
  Alcotest.(check bool) "read same const idx" true
    (equal (read w1 (i32 3)) (i32 99));
  Alcotest.(check bool) "read distinct const idx" true
    (equal (read w1 (i32 4)) (i32 0));
  let wsym = write arr x32 (i32 7) in
  Alcotest.(check bool) "read same sym idx" true
    (equal (read wsym x32) (i32 7));
  (* read at a different symbolic index stays symbolic *)
  (match node (read wsym y32) with
   | Read _ -> ()
   | _ -> Alcotest.fail "expected residual Read node");
  Alcotest.(check bool) "write of read is identity" true
    (equal (write wsym x32 (read wsym x32)) wsym)

let test_extract_concat () =
  let open Expr in
  let v = const ~width:32 0xAABBCCDDL in
  Alcotest.(check bool) "extract low byte" true
    (equal (extract ~hi:7 ~lo:0 v) (const ~width:8 0xDDL));
  Alcotest.(check bool) "extract high byte" true
    (equal (extract ~hi:31 ~lo:24 v) (const ~width:8 0xAAL));
  Alcotest.(check bool) "concat consts" true
    (equal
       (concat (const ~width:8 0xABL) (const ~width:8 0xCDL))
       (const ~width:16 0xABCDL));
  Alcotest.(check bool) "zext" true
    (equal (zero_extend ~to_:16 (const ~width:8 0x80L)) (const ~width:16 0x80L));
  Alcotest.(check bool) "sext" true
    (equal (sign_extend_e ~to_:16 (const ~width:8 0x80L))
       (const ~width:16 0xFF80L))

(* --- Sat --------------------------------------------------------------- *)

(* Clause-adding front ends.  [add_list] is the list path; [add_gate]
   sends two- and three-literal clauses down the gate path bit-blasting
   uses, which must leave the solver in exactly the state the list path
   does. *)
let add_list s c = Sat.add_clause s c

let add_gate s c =
  match c with
  | [ a; b ] -> Sat.add_clause2 s a b
  | [ a; b; c ] -> Sat.add_clause3 s a b c
  | c -> Sat.add_clause s c

(* [n] pigeons in [n - 1] holes. *)
let pigeonhole add s n =
  let v = Array.init n (fun _ -> Array.init (n - 1) (fun _ -> Sat.new_var s)) in
  for p = 0 to n - 1 do
    add s (Array.to_list v.(p))
  done;
  for h = 0 to n - 2 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        add s [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ a; -b ];
  (match Sat.solve s with
   | Sat.Sat ->
       Alcotest.(check bool) "a true" true (Sat.value s a);
       Alcotest.(check bool) "b true" true (Sat.value s b)
   | _ -> Alcotest.fail "expected sat");
  Sat.add_clause s [ -a; -b ];
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_sat_pigeonhole () =
  (* 4 pigeons in 3 holes: classic small UNSAT requiring real search *)
  let s = Sat.create () in
  pigeonhole add_list s 4;
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_sat_budget () =
  (* 9 pigeons in 8 holes with a tiny budget must time out *)
  let s = Sat.create () in
  pigeonhole add_list s 9;
  match Sat.solve ~budget:200 s with
  | Sat.Unknown -> ()
  | Sat.Sat -> Alcotest.fail "pigeonhole cannot be sat"
  | Sat.Unsat -> Alcotest.fail "budget too generous for this test"

let qcheck_sat_random_3cnf =
  (* random small 3-CNF with level-0 units up front and clauses that
     repeat a literal or hold a complementary pair: both add paths must
     agree on the answer, the model and every work counter; Sat answers
     must satisfy the formula, and Unsat answers must agree with brute
     force *)
  QCheck2.Test.make ~name:"sat agrees with brute force on random 3-CNF"
    ~count:200
    QCheck2.Gen.(
      let lit = map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound 5) bool in
      let clause =
        oneof
          [
            list_size (int_range 1 3) lit;
            map2 (fun l m -> [ l; m; l ]) lit lit;
            map2 (fun l m -> [ l; -l; m ]) lit lit;
          ]
      in
      pair (list_size (int_bound 2) lit) (list_size (int_range 1 18) clause))
    (fun (units, clauses) ->
       let clauses = List.map (fun l -> [ l ]) units @ clauses in
       let brute_sat =
         (* 6 variables -> 64 assignments *)
         let eval_lit assign l =
           let v = abs l - 1 in
           let b = assign land (1 lsl v) <> 0 in
           if l > 0 then b else not b
         in
         let eval_clause assign c = List.exists (eval_lit assign) c in
         let rec go a =
           if a >= 64 then false
           else if List.for_all (eval_clause a) clauses then true
           else go (a + 1)
         in
         go 0
       in
       let solve add =
         let s = Sat.create () in
         for _ = 1 to 6 do ignore (Sat.new_var s) done;
         List.iter (add s) clauses;
         let r = Sat.solve s in
         let model =
           if r = Sat.Sat then List.init 6 (fun v -> Sat.value s (v + 1)) else []
         in
         (s, r, model, Sat.stats s, Sat.decisions s)
       in
       let s, r, model, stats, decisions = solve add_list in
       let _, r', model', stats', decisions' = solve add_gate in
       r = r' && model = model' && stats = stats' && decisions = decisions'
       &&
       match r with
       | Sat.Sat ->
           brute_sat
           && List.for_all
                (List.exists (fun l ->
                     if l > 0 then Sat.value s l else not (Sat.value s (-l))))
                clauses
       | Sat.Unsat -> not brute_sat
       | Sat.Unknown -> false)

(* --- exact search trajectories ----------------------------------------- *)

(* The SAT core's work counters are the solver_cost every bench gate
   pins, so its search must not move by one propagation.  These pins
   were recorded from the list-built clause database that preceded the
   clause arena; each formula is added through both add paths. *)

(* A 48-bit LCG, so the formulas do not depend on the stdlib's PRNG;
   literals may repeat within a clause. *)
let seeded_3cnf add s ~seed ~vars ~clauses =
  let st = ref seed in
  let next bound =
    st := ((!st * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
    (!st lsr 16) mod bound
  in
  for _ = 1 to vars do ignore (Sat.new_var s) done;
  for _ = 1 to clauses do
    let lit () =
      let v = next vars + 1 in
      if next 2 = 0 then v else -v
    in
    let a = lit () in
    let b = lit () in
    let c = lit () in
    add s [ a; b; c ]
  done

(* (result, propagations, conflicts, decisions, clauses) *)
let trajectory s r =
  let p, c, cl = Sat.stats s in
  (r, p, c, Sat.decisions s, cl)

let result_t =
  Alcotest.testable
    (fun ppf r ->
      Fmt.string ppf
        (match r with Sat.Sat -> "sat" | Sat.Unsat -> "unsat" | Sat.Unknown -> "unknown"))
    ( = )

let trajectory_t = Alcotest.(pair result_t (pair int (pair int (pair int int))))
let flat (r, p, c, d, cl) = (r, (p, (c, (d, cl))))

let test_sat_trajectory_pins () =
  List.iter
    (fun (path, add) ->
      List.iter
        (fun (n, expect) ->
          let s = Sat.create () in
          pigeonhole add s n;
          let r = Sat.solve s in
          Alcotest.check trajectory_t
            (Printf.sprintf "%s: pigeonhole %d" path n)
            (flat expect) (flat (trajectory s r)))
        [ (4, (Sat.Unsat, 54, 7, 7, 26)); (6, (Sat.Unsat, 1937, 167, 208, 242)) ];
      List.iter
        (fun (seed, expect, top) ->
          let s = Sat.create () in
          seeded_3cnf add s ~seed ~vars:60 ~clauses:256;
          let r = Sat.solve s in
          Alcotest.check trajectory_t
            (Printf.sprintf "%s: 3-CNF seed %d" path seed)
            (flat expect) (flat (trajectory s r));
          Alcotest.(check (list int))
            (Printf.sprintf "%s: 3-CNF seed %d top activity" path seed)
            top (List.map fst (Sat.top_activity s)))
        [
          (1, (Sat.Sat, 959, 54, 63, 304), [ 57; 60; 59; 5; 41; 39; 16; 27 ]);
          (2, (Sat.Sat, 923, 53, 71, 301), [ 23; 30; 58; 15; 35; 39; 60; 24 ]);
          (3, (Sat.Unsat, 1407, 85, 106, 329), [ 24; 19; 14; 11; 7; 9; 48; 51 ]);
          (* eight-way activity tie: ranked by variable *)
          (4, (Sat.Sat, 108, 2, 18, 252), [ 3; 14; 15; 16; 26; 39; 46; 54 ]);
        ];
      (* incremental: assumptions, clauses added between solves
         (duplicate, tautology, a level-0 unit), then a budgeted solve *)
      let s = Sat.create () in
      seeded_3cnf add s ~seed:7 ~vars:40 ~clauses:150;
      let r1 = Sat.solve ~assumptions:[ 1; -2; 3; -4 ] s in
      Alcotest.check trajectory_t (path ^ ": incremental, assumptions")
        (flat (Sat.Unsat, 45, 4, 10, 148)) (flat (trajectory s r1));
      Sat.backtrack_root s;
      List.iter (add s) [ [ 5; 6 ]; [ -5; 7; 7 ]; [ 8; -8; 9 ]; [ -1 ] ];
      let r2 = Sat.solve ~assumptions:[ 2; -3 ] s in
      Alcotest.check trajectory_t (path ^ ": incremental, re-solve")
        (flat (Sat.Sat, 106, 6, 28, 152)) (flat (trajectory s r2));
      let r3 = Sat.solve ~budget:50 s in
      Alcotest.check trajectory_t (path ^ ": incremental, budgeted")
        (flat (Sat.Sat, 145, 6, 41, 152)) (flat (trajectory s r3)))
    [ ("list", add_list); ("gate", add_gate) ]

(* --- storage reuse ---------------------------------------------------------- *)

(* [Sat.create] takes the storage a released solver parked on this
   domain, so taking it first makes the second [create] allocate. *)
let fresh_sat () =
  ignore (Sat.create ());
  Sat.create ()

(* Release a solver larger than every case below with its used prefix
   dirty, and return it: conflicts bumped activities and [var_inc], the
   search saved phases, the root backtrack refilled the heap, clauses
   fill watch lists, and two contradicting units clear [ok] with a
   level-0 assignment left on the trail. *)
let park_dirty_solver () =
  let s = fresh_sat () in
  seeded_3cnf add_list s ~seed:11 ~vars:200 ~clauses:800;
  ignore (Sat.solve s);
  let _, conflicts, _ = Sat.stats s in
  Alcotest.(check bool) "the parked solver saw conflicts" true (conflicts > 0);
  Sat.backtrack_root s;
  Sat.add_clause s [ 1 ];
  Sat.add_clause s [ -1 ];
  Sat.release s;
  s

let result_name = function
  | Sat.Sat -> "sat"
  | Sat.Unsat -> "unsat"
  | Sat.Unknown -> "unknown"

(* Everything a solver reports after answering [r]: the result, the
   model, every work counter and the activity ranking with its exact
   (hex) activities. *)
let observe s r =
  let p, c, cl = Sat.stats s in
  let model =
    if r = Sat.Sat then
      String.init (Sat.num_vars s) (fun v -> if Sat.value s (v + 1) then '1' else '0')
    else "-"
  in
  Printf.sprintf "%s vars=%d p=%d c=%d cl=%d d=%d r=%d model=%s top=%s"
    (result_name r) (Sat.num_vars s) p c cl (Sat.decisions s) (Sat.restarts s)
    model
    (String.concat ","
       (List.map (fun (v, a) -> Printf.sprintf "%d:%h" v a) (Sat.top_activity s)))

let solve_observed ?budget ?assumptions s =
  observe s (Sat.solve ?budget ?assumptions s)

(* The pinned formulas of [test_sat_trajectory_pins], each solve
   observed. *)
let sat_cases =
  List.map
    (fun n ->
       ( Printf.sprintf "pigeonhole %d" n,
         fun s ->
           pigeonhole add_list s n;
           [ solve_observed s ] ))
    [ 4; 6 ]
  @ List.map
      (fun seed ->
         ( Printf.sprintf "3-CNF seed %d" seed,
           fun s ->
             seeded_3cnf add_gate s ~seed ~vars:60 ~clauses:256;
             [ solve_observed s ] ))
      [ 1; 2; 3; 4 ]
  @ [ ( "incremental 3-CNF seed 7",
        fun s ->
          seeded_3cnf add_list s ~seed:7 ~vars:40 ~clauses:150;
          let r1 = solve_observed ~assumptions:[ 1; -2; 3; -4 ] s in
          Sat.backtrack_root s;
          List.iter (add_list s) [ [ 5; 6 ]; [ -5; 7; 7 ]; [ 8; -8; 9 ]; [ -1 ] ];
          let r2 = solve_observed ~assumptions:[ 2; -3 ] s in
          let r3 = solve_observed ~budget:50 s in
          [ r1; r2; r3 ] ) ]

(* A solver on reused storage searches exactly as a new one does. *)
let test_sat_reuse_invisible () =
  List.iter
    (fun (name, case) ->
       let fresh = case (fresh_sat ()) in
       let dirty = park_dirty_solver () in
       let s = Sat.create () in
       Alcotest.(check bool) (name ^ ": takes the parked storage") true
         (s == dirty);
       Alcotest.(check (list string)) (name ^ ": reused = fresh") fresh (case s))
    sat_cases

(* [Sat.top_k] is a one-pass selection; the sort it replaced is the
   oracle.  Activities come from a small pool so ties are common. *)
let qcheck_top_k =
  let oracle ~k act n =
    List.init n (fun v -> (v + 1, act.(v)))
    |> List.sort (fun (va, aa) (vb, ab) ->
           match Float.compare ab aa with 0 -> Int.compare va vb | c -> c)
    |> List.filteri (fun i _ -> i < k)
  in
  QCheck2.Test.make ~name:"top_k agrees with the sorted oracle" ~count:300
    QCheck2.Gen.(
      triple (int_range (-1) 10)
        (array_size (int_bound 40)
           (oneofl [ 0.; -0.; 1.; 2.5; 2.5; 1e100; -1.; Float.nan; 7. ]))
        (int_bound 40))
    (fun (k, act, n) ->
       let n = min n (Array.length act) in
       List.equal
         (fun (va, aa) (vb, ab) -> va = vb && Float.equal aa ab)
         (oracle ~k act n) (Sat.top_k ~k act n))

(* --- Solver end-to-end -------------------------------------------------- *)

let solve_sat assertions =
  match Solver.check assertions with
  | Solver.Sat m, _ -> m
  | Solver.Unsat, _ -> Alcotest.fail "unexpected unsat"
  | Solver.Unknown why, _ -> Alcotest.fail ("unexpected unknown: " ^ why)

let test_solver_linear () =
  let m = solve_sat [ Expr.eq (Expr.add x32 (i32 5)) (i32 12) ] in
  Alcotest.(check int64) "x = 7" 7L (Option.get (Model.value m "x"))

let test_solver_unsat () =
  match
    Solver.check [ Expr.ult x32 (i32 5); Expr.ult (i32 10) x32 ]
  with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solver_mul_inverse () =
  let m =
    solve_sat
      [ Expr.eq (Expr.mul x32 (i32 3)) (i32 21); Expr.ult x32 (i32 100) ]
  in
  Alcotest.(check int64) "x = 7" 7L (Option.get (Model.value m "x"))

let test_solver_divrem () =
  let m =
    solve_sat
      [
        Expr.eq (Expr.udiv (i32 29) x32) (i32 4);
        Expr.eq (Expr.urem (i32 29) x32) (i32 1);
      ]
  in
  Alcotest.(check int64) "x = 7" 7L (Option.get (Model.value m "x"))

let test_solver_shifts () =
  let m =
    solve_sat
      [
        Expr.eq (Expr.shl (i32 1) x32) (i32 64);
        Expr.eq (Expr.lshr (i32 0x100) x32) y32;
      ]
  in
  Alcotest.(check int64) "x = 6" 6L (Option.get (Model.value m "x"));
  Alcotest.(check int64) "y = 4" 4L (Option.get (Model.value m "y"))

let test_solver_signed () =
  let neg1 = Expr.const ~width:32 0xFFFFFFFFL in
  (match Solver.check [ Expr.slt neg1 (i32 0) ] with
   | Solver.Sat _, _ -> ()
   | _ -> Alcotest.fail "-1 <s 0 should be sat");
  match Solver.check [ Expr.ult neg1 (i32 0) ] with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "-1 <u 0 should be unsat"

let test_solver_array_chain () =
  (* V[256] = {0}; V[x] = 1; if (V[c] == 0) V[c] = 512; V[V[x]] = x —
     the paper's running example, steps 1-4 (Fig 3/4). *)
  let open Expr in
  let v0 = const_array ~idx:32 ~elt:32 0L in
  let a = bv_var "a" ~width:32 and b = bv_var "b" ~width:32 in
  let c = bv_var "c" ~width:32 and d = bv_var "d" ~width:32 in
  let x = add a b in
  let bounds = [ ult x (i32 256); ult c (i32 256); ult d (i32 256) ] in
  let v1 = write v0 x (i32 1) in
  let cond1 = eq (read v1 c) (i32 0) in
  let v2 = write v1 c (i32 512) in
  let v3 = write v2 (read v2 x) x in
  let cond2 = ult c d in
  let cond3 = eq (read v3 (read v3 d)) x in
  let m = solve_sat (bounds @ [ cond1; cond2; cond3 ]) in
  (* validate the model concretely: x must equal d (paper's analysis) *)
  let get n = Option.get (Model.value m n) in
  let xv = Int64.logand (Int64.add (get "a") (get "b")) 0xFFFFFFFFL in
  Alcotest.(check int64) "x = d" (get "d") xv

let test_solver_ackermann () =
  let open Expr in
  let a = arr_var "A" ~idx:32 ~elt:32 in
  let i = bv_var "i" ~width:32 and j = bv_var "j" ~width:32 in
  (match
     Solver.check
       [ eq (read a i) (i32 1); eq (read a j) (i32 2); eq i j ]
   with
   | Solver.Unsat, _ -> ()
   | _ -> Alcotest.fail "congruence violation should be unsat");
  let m =
    solve_sat [ eq (read a i) (i32 1); eq (read a j) (i32 2) ]
  in
  let get n = Option.get (Model.value m n) in
  Alcotest.(check bool) "i <> j" true (not (Int64.equal (get "i") (get "j")))

let rec tower n acc = if n = 0 then acc else tower (n - 1) (Expr.mul acc acc)

let test_solver_gate_budget () =
  (* a 64-bit multiplication tower should exceed a tiny gate budget *)
  let x = Expr.bv_var "gx" ~width:64 in
  let e = Expr.eq (tower 4 x) (Expr.const ~width:64 17L) in
  match Solver.check ~gate_budget:500 [ e ] with
  | Solver.Unknown _, _ -> ()
  | _ -> Alcotest.fail "expected gate-budget timeout"

(* Random ground-term property: build a term over two variables, pick
   concrete values, assert term = its concrete value; the solver must find
   a model, and the model must satisfy all assertions per Model.eval. *)
let qcheck_solver_vs_eval =
  let gen_expr =
    let open QCheck2.Gen in
    let width = 8 in
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              map (fun v -> Expr.const ~width (Int64.of_int (v land 255))) (int_bound 255);
              return (Expr.bv_var "qx" ~width);
              return (Expr.bv_var "qy" ~width);
            ]
        else
          let sub = self (n / 2) in
          oneof
            [
              map2 Expr.add sub sub;
              map2 Expr.sub sub sub;
              map2 Expr.mul sub sub;
              map2 Expr.logand_ sub sub;
              map2 Expr.logor_ sub sub;
              map2 Expr.logxor_ sub sub;
              map2 Expr.udiv sub sub;
              map2 Expr.urem sub sub;
              map2 Expr.shl sub sub;
              map2 Expr.lshr sub sub;
              map2 Expr.ashr sub sub;
              map Expr.neg sub;
              map Expr.lognot_ sub;
              map3 (fun c a b -> Expr.ite (Expr.ult c a) a b) sub sub sub;
            ])
  in
  QCheck2.Test.make ~name:"solver models satisfy assertions (random terms)"
    ~count:60
    QCheck2.Gen.(triple gen_expr (int_bound 255) (int_bound 255))
    (fun (e, xv, yv) ->
       let ground = Model.empty () in
       Model.set ground "qx" (Int64.of_int xv);
       Model.set ground "qy" (Int64.of_int yv);
       let c = Model.eval ground e in
       let assertion = Expr.eq e (Expr.const ~width:8 c) in
       match Solver.check [ assertion ] with
       | Solver.Sat m, _ -> Model.holds m assertion
       | Solver.Unsat, _ -> false   (* ground witness exists, cannot be unsat *)
       | Solver.Unknown _, _ -> QCheck2.assume_fail ())

(* --- Solver.Session: push/pop, result cache, incrementality ---------- *)

let zero_work (st : Solver.stats) = st.Solver.gates = 0 && st.Solver.propagations = 0

(* Repeating an unchanged query must be answered from the result cache
   with zero solver work. *)
let test_session_cache_repeat () =
  let s = Solver.Session.create () in
  Solver.Session.push s (Expr.ult x32 (i32 5));
  Solver.Session.push s (Expr.ult (i32 1) x32);
  let o1, st1 = Solver.Session.check s in
  (match o1 with Solver.Sat _ -> () | _ -> Alcotest.fail "expected sat");
  Alcotest.(check bool) "first check does real work" false (zero_work st1);
  let o2, st2 = Solver.Session.check s in
  (match o2 with Solver.Sat _ -> () | _ -> Alcotest.fail "expected sat again");
  Alcotest.(check bool) "repeat check is free" true (zero_work st2);
  let cs = Solver.Session.cache_stats s in
  Alcotest.(check int) "one hit" 1 cs.Solver.Session.cache_hits;
  Alcotest.(check int) "one miss" 1 cs.Solver.Session.cache_misses

(* A session's verdicts are its own: a formula another session decided
   under generous budgets must still stall in a session whose gate
   budget is too small to encode it. *)
let test_session_owns_cache () =
  let x = Expr.bv_var "ox" ~width:16 in
  let e =
    Expr.eq
      (Expr.mul x (Expr.add x (Expr.const ~width:16 3L)))
      (Expr.const ~width:16 40L)
  in
  let first = Solver.Session.create () in
  Solver.Session.push first e;
  (match Solver.Session.check first with
   | Solver.Sat m, st ->
       Alcotest.(check bool) "model satisfies the formula" true (Model.holds m e);
       Alcotest.(check bool) "first session does real work" false (zero_work st)
   | _ -> Alcotest.fail "expected sat");
  let starved = Solver.Session.create ~gate_budget:500 () in
  Solver.Session.push starved e;
  (match Solver.Session.check starved with
   | Solver.Unknown _, _ -> ()
   | _ -> Alcotest.fail "another session's verdict answered this one");
  let cs = Solver.Session.cache_stats starved in
  Alcotest.(check int) "no hit" 0 cs.Solver.Session.cache_hits;
  Alcotest.(check int) "one miss" 1 cs.Solver.Session.cache_misses

(* Popping the contradicting frame must drop the cached UNSAT verdict:
   the remaining stack is satisfiable. *)
let test_session_pop_invalidation () =
  let a = Expr.ult x32 (i32 5) and b = Expr.ult (i32 10) x32 in
  let s = Solver.Session.create () in
  Solver.Session.push s a;
  Solver.Session.push s b;
  (match Solver.Session.check s with
   | Solver.Unsat, _ -> ()
   | _ -> Alcotest.fail "a ∧ b should be unsat");
  Solver.Session.pop s;
  Alcotest.(check int) "depth back to one" 1 (Solver.Session.depth s);
  match Solver.Session.check s with
  | Solver.Sat m, _ ->
      Alcotest.(check bool) "model satisfies the survivor" true (Model.holds m a)
  | _ -> Alcotest.fail "after pop the stack must be sat"

(* Unknown is a budget artifact and must never be served from the cache:
   re-checking a stalled stack is another miss, not a hit. *)
let test_session_unknown_not_cached () =
  let x = Expr.bv_var "ux" ~width:64 in
  let e = Expr.eq (tower 4 x) (Expr.const ~width:64 17L) in
  let s = Solver.Session.create ~gate_budget:500 () in
  Solver.Session.push s e;
  for _ = 1 to 2 do
    match Solver.Session.check s with
    | Solver.Unknown _, _ -> ()
    | _ -> Alcotest.fail "expected gate-budget stall"
  done;
  let cs = Solver.Session.cache_stats s in
  Alcotest.(check int) "no hit" 0 cs.Solver.Session.cache_hits;
  Alcotest.(check int) "two misses" 2 cs.Solver.Session.cache_misses

(* A stall reaches the caller with the reason naming the budget that ran
   out. *)
let test_unknown_reason_surfaced () =
  let x = Expr.bv_var "rx" ~width:64 in
  let e = Expr.eq (tower 4 x) (Expr.const ~width:64 17L) in
  (match Solver.check ~gate_budget:500 [ e ] with
   | Solver.Unknown reason, _ ->
       Alcotest.(check string) "gate-budget stall"
         "gate budget exhausted during bit-blasting" reason
   | _ -> Alcotest.fail "expected a gate-budget stall");
  let y = Expr.bv_var "ry" ~width:16 in
  match
    Solver.check ~budget:1
      [ Expr.eq (Expr.mul y (Expr.add y (Expr.const ~width:16 3L)))
          (Expr.const ~width:16 40L) ]
  with
  | Solver.Unknown reason, _ ->
      Alcotest.(check string) "propagation-budget stall"
        "propagation budget exhausted during search" reason
  | _ -> Alcotest.fail "expected a propagation-budget stall"

(* Property: after an arbitrary push/pop interleaving, [Session.check]
   agrees with a one-shot [Solver.check] of the flattened stack — same
   verdict, and a Sat model satisfies every live assertion. *)
let qcheck_session_vs_oneshot =
  let pool =
    [|
      Expr.ult x32 (i32 50);
      Expr.ult (i32 10) x32;
      Expr.eq y32 (Expr.add x32 (i32 1));
      Expr.ult y32 (i32 12);
      Expr.eq x32 (i32 7);
      Expr.eq (Expr.logand_ x32 (i32 1)) (i32 1);
    |]
  in
  let n = Array.length pool in
  QCheck2.Test.make
    ~name:"session agrees with one-shot check on the flattened stack"
    ~count:50
    QCheck2.Gen.(list_size (int_range 1 24) (int_bound (n + n / 2)))
    (fun ops ->
       let s = Solver.Session.create () in
       let mirror = ref [] in
       List.iter
         (fun op ->
            if op < n then begin
              Solver.Session.push s pool.(op);
              mirror := pool.(op) :: !mirror
            end
            else if !mirror <> [] then begin
              Solver.Session.pop s;
              mirror := List.tl !mirror
            end)
         ops;
       let flat = List.rev !mirror in
       let sv, _ = Solver.Session.check s in
       let ov, _ = Solver.check flat in
       match (sv, ov) with
       | Solver.Sat m, Solver.Sat _ -> List.for_all (Model.holds m) flat
       | Solver.Unsat, Solver.Unsat -> true
       | Solver.Unknown _, _ | _, Solver.Unknown _ -> QCheck2.assume_fail ()
       | _ -> false)

(* --- Solver.Session: storage reuse --------------------------------------- *)

let outcome_string = function
  | Solver.Sat m ->
      "sat "
      ^ String.concat ","
          (List.map (fun (n, v) -> Printf.sprintf "%s=%Ld" n v) (Model.bindings m))
  | Solver.Unsat -> "unsat"
  | Solver.Unknown r -> "unknown: " ^ r

let observe_check s =
  let o, (st : Solver.stats) = Solver.Session.check s in
  Printf.sprintf "%s vars=%d g=%d p=%d c=%d d=%d r=%d cl=%d" (outcome_string o)
    st.Solver.sat_vars st.Solver.gates st.Solver.propagations
    st.Solver.conflicts st.Solver.decisions st.Solver.restarts
    st.Solver.clauses

let sy16 = Expr.bv_var "sy" ~width:16

(* y * (y + 3) = 40 at 16 bits: real search, a few hundred gates. *)
let quadratic = Expr.eq (Expr.mul sy16 (Expr.add sy16 (Expr.const ~width:16 3L)))
    (Expr.const ~width:16 40L)

let script_gate_budget = 5_000

(* Pushes, an unsat-under-assumptions check, a pop, and a stall on a
   gate budget the last push overruns, observed check by check. *)
let session_script s =
  let push = Solver.Session.push s in
  push (Expr.ult x32 (i32 50));
  push quadratic;
  let c1 = observe_check s in
  push (Expr.eq x32 (i32 60));
  let c2 = observe_check s in
  Solver.Session.pop s;
  push (Expr.ult (i32 10) x32);
  let c3 = observe_check s in
  push (Expr.eq (tower 4 (Expr.bv_var "sg" ~width:64)) (Expr.const ~width:64 17L));
  let c4 = observe_check s in
  [ c1; c2; c3; c4 ]

let test_session_reuse_invisible () =
  ignore (Sat.create ());
  let fresh =
    session_script (Solver.Session.create ~gate_budget:script_gate_budget ())
  in
  (match fresh with
   | [ c1; c2; c3; c4 ] ->
       let starts prefix c = String.starts_with ~prefix c in
       Alcotest.(check (list bool)) "sat, unsat, sat, gate stall"
         [ true; true; true; true ]
         [ starts "sat" c1; starts "unsat" c2; starts "sat" c3;
           starts "unknown: gate budget" c4 ]
   | _ -> Alcotest.fail "four checks");
  (* a larger session that searched, released on this domain *)
  let big = Solver.Session.create () in
  Solver.Session.push big (Expr.eq (Expr.mul x32 (Expr.add x32 (i32 7))) (i32 1000));
  Solver.Session.push big (Expr.ult (Expr.mul y32 y32) x32);
  let _, st = Solver.Session.check big in
  Alcotest.(check bool) "the released session saw conflicts" true
    (st.Solver.conflicts > 0 && st.Solver.sat_vars > 400);
  Solver.Session.release big;
  let reused =
    session_script (Solver.Session.create ~gate_budget:script_gate_budget ())
  in
  Alcotest.(check (list string)) "reused = fresh" fresh reused

(* A released session refuses further use, also once a later session
   has taken its storage. *)
let test_session_released () =
  let s = Solver.Session.create () in
  Solver.Session.push s (Expr.ult x32 (i32 5));
  ignore (Solver.Session.check s);
  Solver.Session.release s;
  Solver.Session.release s;
  let taker = Solver.Session.create () in
  Solver.Session.push taker (Expr.ult (i32 1) x32);
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s on a released session did not raise" what
    | exception Invalid_argument _ -> ()
  in
  raises "push" (fun () -> Solver.Session.push s (Expr.ult x32 (i32 3)));
  raises "pop" (fun () -> Solver.Session.pop s);
  raises "check" (fun () -> ignore (Solver.Session.check s));
  Alcotest.(check int) "depth still reads" 1 (Solver.Session.depth s);
  match Solver.Session.check taker with
  | Solver.Sat m, _ ->
      Alcotest.(check bool) "the taker's model" true
        (Model.holds m (Expr.ult (i32 1) x32))
  | _ -> Alcotest.fail "the taker's check must be sat"

(* er_smt_bitblast_vars_total: each solve charges the variables its
   session allocated since the last charge, a gate-budget stall too, so
   a session's charges add up to its variable count. *)
let test_vars_counter () =
  let reg = Er_metrics.default in
  let was = Er_metrics.enabled reg in
  Er_metrics.set_enabled reg true;
  Fun.protect ~finally:(fun () -> Er_metrics.set_enabled reg was) @@ fun () ->
  let charged () =
    Er_metrics.Snapshot.counter_total (Er_metrics.snapshot ())
      "er_smt_bitblast_vars_total"
  in
  let v0 = charged () in
  let s = Solver.Session.create ~gate_budget:script_gate_budget () in
  Solver.Session.push s (Expr.ult x32 (i32 50));
  let _, st1 = Solver.Session.check s in
  Alcotest.(check int) "first check" st1.Solver.sat_vars (charged () - v0);
  Solver.Session.push s quadratic;
  let _, st2 = Solver.Session.check s in
  Alcotest.(check bool) "second check allocated" true
    (st2.Solver.sat_vars > st1.Solver.sat_vars);
  Alcotest.(check int) "second check" st2.Solver.sat_vars (charged () - v0);
  Solver.Session.push s
    (Expr.eq (tower 4 (Expr.bv_var "vg" ~width:64)) (Expr.const ~width:64 17L));
  (match Solver.Session.check s with
   | Solver.Unknown _, st3 ->
       Alcotest.(check bool) "the stall allocated" true
         (st3.Solver.sat_vars > st2.Solver.sat_vars);
       Alcotest.(check int) "gate-budget stall" st3.Solver.sat_vars
         (charged () - v0)
   | _ -> Alcotest.fail "expected a gate-budget stall");
  Solver.Session.release s

let qcheck_of t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "smt.expr",
      [
        Alcotest.test_case "hash-consing" `Quick test_hashcons;
        Alcotest.test_case "constant folding" `Quick test_folding;
        Alcotest.test_case "width truncation" `Quick test_fold_width_truncation;
        Alcotest.test_case "read-over-write rules" `Quick test_row_rules;
        Alcotest.test_case "extract/concat" `Quick test_extract_concat;
      ] );
    ( "smt.sat",
      [
        Alcotest.test_case "basic sat/unsat" `Quick test_sat_basic;
        Alcotest.test_case "pigeonhole unsat" `Quick test_sat_pigeonhole;
        Alcotest.test_case "budget timeout" `Quick test_sat_budget;
        qcheck_of qcheck_sat_random_3cnf;
        Alcotest.test_case "trajectory pins" `Quick test_sat_trajectory_pins;
        Alcotest.test_case "reused storage is invisible" `Quick
          test_sat_reuse_invisible;
        qcheck_of qcheck_top_k;
      ] );
    ( "smt.solver",
      [
        Alcotest.test_case "linear equation" `Quick test_solver_linear;
        Alcotest.test_case "interval unsat" `Quick test_solver_unsat;
        Alcotest.test_case "multiplicative inverse" `Quick test_solver_mul_inverse;
        Alcotest.test_case "div/rem" `Quick test_solver_divrem;
        Alcotest.test_case "shifts" `Quick test_solver_shifts;
        Alcotest.test_case "signed vs unsigned" `Quick test_solver_signed;
        Alcotest.test_case "fig3 write chain" `Quick test_solver_array_chain;
        Alcotest.test_case "ackermann congruence" `Quick test_solver_ackermann;
        Alcotest.test_case "gate budget" `Quick test_solver_gate_budget;
        qcheck_of qcheck_solver_vs_eval;
      ] );
    ( "smt.session",
      [
        Alcotest.test_case "cache hit on repeat query" `Quick
          test_session_cache_repeat;
        Alcotest.test_case "sessions share no answers" `Quick
          test_session_owns_cache;
        Alcotest.test_case "pop invalidates cached unsat" `Quick
          test_session_pop_invalidation;
        Alcotest.test_case "unknown is never cached" `Quick
          test_session_unknown_not_cached;
        Alcotest.test_case "stall reasons surfaced" `Quick
          test_unknown_reason_surfaced;
        Alcotest.test_case "reused storage is invisible" `Quick
          test_session_reuse_invisible;
        Alcotest.test_case "a released session refuses use" `Quick
          test_session_released;
        Alcotest.test_case "variables charged per solve" `Quick
          test_vars_counter;
        qcheck_of qcheck_session_vs_oneshot;
      ] );
  ]
