(* Budgeted check-sat: array elimination, bit-blasting, CDCL search,
   model reconstruction.

   The public face is session-centric: {!Session.create} builds a
   persistent incremental solving context with a push/pop assertion
   stack, and {!Session.check} decides the current stack.  Pushed
   assertions are encoded once — array elimination, Tseitin blasting and
   CDCL learning all persist across checks — and each assertion is
   guarded by a fresh selector variable so that [pop] can retire it
   without invalidating anything the solver has already derived.

   [Unknown] is the solver-timeout outcome that drives ER's iterative
   algorithm.  Budgets are deterministic work counters (gate count for
   blasting, propagation count for search) charged *per check*, relative
   to the session's counters at entry, so that "the solver stalls on
   this formula" remains a property of the formula, not of the machine
   or of how much earlier work the session happens to carry. *)

type outcome =
  | Sat of Model.t
  | Unsat
  | Unknown of string

type stats = {
  sat_vars : int;
  gates : int;
  propagations : int;
  conflicts : int;
  decisions : int;
  restarts : int;
  clauses : int;
}

module M = Er_metrics

let query_counter res =
  M.counter
    ~labels:[ ("result", res) ]
    ~help:"SMT queries, by result." "er_smt_queries_total"

let m_q_sat = query_counter "sat"
and m_q_unsat = query_counter "unsat"
and m_q_unknown = query_counter "unknown"

let m_decisions =
  M.counter ~help:"SAT branching decisions." "er_smt_sat_decisions_total"

let m_propagations =
  M.counter ~help:"SAT unit propagations." "er_smt_sat_propagations_total"

let m_conflicts =
  M.counter ~help:"SAT conflicts analyzed." "er_smt_sat_conflicts_total"

let m_restarts =
  M.counter ~help:"SAT Luby restarts." "er_smt_sat_restarts_total"

let m_gates =
  M.counter ~help:"Bit-blast gates built." "er_smt_bitblast_gates_total"

let m_clauses =
  M.counter ~help:"CNF clauses built (bit-blasting + learning)."
    "er_smt_bitblast_clauses_total"

let m_vars =
  M.counter ~help:"SAT variables allocated by bit-blasting."
    "er_smt_bitblast_vars_total"

let m_minor_words =
  M.counter
    ~help:"Words the checking domain allocated on the minor heap during \
           SMT checks."
    "er_smt_minor_words_total"

let m_query_seconds =
  M.histogram ~help:"Per-query solve wall time."
    ~buckets:[ 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. ]
    "er_smt_query_seconds"

let cache_hit_counter kind =
  M.counter
    ~labels:[ ("kind", kind) ]
    ~help:"Session result-cache hits, by fast path."
    "er_smt_session_cache_hits_total"

let m_cache_exact = cache_hit_counter "exact"
and m_cache_subset = cache_hit_counter "subset_sat"
and m_cache_superset = cache_hit_counter "superset_unsat"

let m_cache_miss =
  M.counter ~help:"Session result-cache misses."
    "er_smt_session_cache_misses_total"

let m_checks_fresh =
  M.counter ~help:"Session checks that built their encoding from scratch."
    "er_smt_session_checks_fresh_total"

let m_checks_incremental =
  M.counter ~help:"Session checks reusing a previously built encoding."
    "er_smt_session_checks_incremental_total"

let m_warm_replays =
  M.counter ~help:"Persisted journal answers replayed in place of solving."
    "er_smt_warm_replays_total"

let m_warm_saved_cost =
  M.counter
    ~help:"Solver cost (gates + propagations) avoided by warm replay."
    "er_smt_warm_saved_cost_total"

(* Hot-spot attribution: the most expensive queries seen so far, keyed
   by the canonical assertion-set id (cost = gates + propagations, the
   same work measure as solver_cost). *)
let m_top_queries =
  M.top ~k:8
    ~help:"Most expensive SMT queries (cost = bit-blast gates + SAT \
           propagations)."
    "er_smt_top_query_cost"

(* A bounded rendering of the canonical key: member count, id range and
   a hash — enough to match a query across snapshots without dumping
   hundreds of ids. *)
let query_key (key : int array) =
  let n = Array.length key in
  Printf.sprintf "n=%d[%d..%d]#%08x" n key.(0)
    key.(n - 1)
    (Hashtbl.hash (Array.to_list key) land 0xffffffff)

let outcome_label = function
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unknown _ -> "unknown"

(* Record one query in the hot-spot table; the key is rendered only
   when metrics are on. *)
let observe_query key o ~cached cost =
  if M.enabled M.default then
    M.top_observe m_top_queries ~key:(query_key key)
      ~labels:[ ("outcome", outcome_label o); ("cached", cached) ]
      cost

(* Default budgets: generous enough for well-conditioned queries, small
   enough that ite towers from long write chains exhaust them. *)
let default_budget = 4_000_000
let default_gate_budget = 400_000

(* --- normalized-constraint-set result cache --------------------------- *)

(* Keyed by the canonical form of the assertion set: the sorted,
   deduplicated hash-consed ids of its (non-trivial) members.  Sat/Unsat
   are pure properties of the formula, independent of which session (or
   which budget) established them, so entries stay valid across
   sessions, across pops, and across occurrences of the same failure.

   The cache is sharded by interning space ({!Expr.space_stamp}): ids
   are only comparable within one space, and sharding by space is also
   what keeps fleet mode deterministic — a bug running in its own fresh
   space can only ever hit entries produced by its own (deterministic)
   query sequence, never entries another domain happened to store first.
   Each shard is guarded by a mutex so that sessions on different
   domains may share one space (and hence one shard) safely; hit/miss
   accounting lives in the session, whose counters are only touched by
   the domain running it, so the tallies stay exact under concurrency.

   [Unknown] is never cached — it is a budget artifact, not a property
   of the formula.  Two fast paths fall out of keeping the sets around:
   a cached UNSAT core refutes any superset, and a cached model of a
   superset satisfies any subset. *)
module Cache = struct
  module ISet = Set.Make (Int)

  type kind = Exact | Subset_sat | Superset_unsat

  type shard = {
    sh_mutex : Mutex.t;
    sh_exact : (int array, outcome) Hashtbl.t;
    mutable sh_sats : (ISet.t * Model.t) list;
    mutable sh_unsats : ISet.t list;
  }

  (* space stamp -> shard; the table itself is touched only under
     [shards_mutex] (shard creation is rare — once per space). *)
  let shards : (int, shard) Hashtbl.t = Hashtbl.create 16
  let shards_mutex = Mutex.create ()

  let shard_for_current_space () =
    let stamp = Expr.space_stamp () in
    Mutex.lock shards_mutex;
    let sh =
      match Hashtbl.find_opt shards stamp with
      | Some sh -> sh
      | None ->
          let sh =
            { sh_mutex = Mutex.create ();
              sh_exact = Hashtbl.create 256;
              sh_sats = [];
              sh_unsats = [] }
          in
          Hashtbl.add shards stamp sh;
          sh
    in
    Mutex.unlock shards_mutex;
    sh

  let clear () =
    Mutex.lock shards_mutex;
    Hashtbl.reset shards;
    Mutex.unlock shards_mutex

  let release () =
    let stamp = Expr.space_stamp () in
    Mutex.lock shards_mutex;
    Hashtbl.remove shards stamp;
    Mutex.unlock shards_mutex

  let count () =
    Mutex.lock shards_mutex;
    let n = Hashtbl.length shards in
    Mutex.unlock shards_mutex;
    n

  let locked sh f =
    Mutex.lock sh.sh_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock sh.sh_mutex) f

  let lookup sh key set =
    locked sh @@ fun () ->
    match Hashtbl.find_opt sh.sh_exact key with
    | Some o -> Some (o, Exact)
    | None -> (
        match
          List.find_opt (fun core -> ISet.subset core set) sh.sh_unsats
        with
        | Some _ -> Some (Unsat, Superset_unsat)
        | None -> (
            match
              List.find_opt (fun (ids, _) -> ISet.subset set ids) sh.sh_sats
            with
            | Some (_, m) -> Some (Sat m, Subset_sat)
            | None -> None))

  let store sh key set o =
    locked sh @@ fun () ->
    if not (Hashtbl.mem sh.sh_exact key) then
      match o with
      | Sat m ->
          Hashtbl.replace sh.sh_exact key o;
          sh.sh_sats <- (set, m) :: sh.sh_sats
      | Unsat ->
          Hashtbl.replace sh.sh_exact key o;
          sh.sh_unsats <- set :: sh.sh_unsats
      | Unknown _ -> ()
end

let reset_cache = Cache.clear
let release_cache = Cache.release
let cache_shards = Cache.count

(* --- incremental sessions --------------------------------------------- *)

module Session = struct
  type frame = {
    f_expr : Expr.t;
    f_sel : int; (* selector DIMACS var; 0 when the assertion is [true] *)
    mutable f_encoded : bool;
  }

  type t = {
    sat : Sat.t;
    blast : Bitblast.ctx;
    elim : Arrays.state;
    cache : Cache.shard; (* the shard of the creating space *)
    persist : Persist.handle option; (* journal bound to the space, if any *)
    budget : int;
    mutable stack : frame list; (* newest first *)
    mutable solves : int; (* checks that reached the SAT core *)
    mutable hits : int;
    mutable misses : int;
    mutable replays : int; (* of [hits]: answered from the journal *)
  }

  type cache_stats = { cache_hits : int; cache_misses : int }

  let create ?(budget = default_budget) ?(gate_budget = default_gate_budget)
      () =
    let sat = Sat.create () in
    {
      sat;
      blast = Bitblast.create ~gate_budget sat;
      elim = Arrays.create_state ();
      cache = Cache.shard_for_current_space ();
      persist = Persist.current ();
      budget;
      stack = [];
      solves = 0;
      hits = 0;
      misses = 0;
      replays = 0;
    }

  let push t e =
    Sat.backtrack_root t.sat;
    let sel = if Expr.is_true e then 0 else Sat.new_var t.sat in
    t.stack <-
      { f_expr = e; f_sel = sel; f_encoded = sel = 0 } :: t.stack

  let pop t =
    match t.stack with
    | [] -> invalid_arg "Solver.Session.pop: empty assertion stack"
    | f :: rest ->
        Sat.backtrack_root t.sat;
        t.stack <- rest;
        (* Permanently disable the frame's guarded clause.  The encoding,
           its Tseitin definitions and anything the solver learned from
           them remain — learned clauses are implied by the (guarded)
           clause database alone, so they stay sound. *)
        if f.f_encoded && f.f_sel <> 0 then Sat.add_clause t.sat [ -f.f_sel ]

  let depth t = List.length t.stack
  let assertions t = List.rev_map (fun f -> f.f_expr) t.stack
  let cache_stats t = { cache_hits = t.hits; cache_misses = t.misses }
  let replays t = t.replays

  let stats_since t ~g0 ~p0 ~c0 ~d0 ~r0 ~cl0 =
    let propagations, conflicts, clauses = Sat.stats t.sat in
    {
      sat_vars = Sat.num_vars t.sat;
      gates = Bitblast.gate_count t.blast - g0;
      propagations = propagations - p0;
      conflicts = conflicts - c0;
      decisions = Sat.decisions t.sat - d0;
      restarts = Sat.restarts t.sat - r0;
      clauses = clauses - cl0;
    }

  let zero_stats t =
    {
      sat_vars = Sat.num_vars t.sat;
      gates = 0;
      propagations = 0;
      conflicts = 0;
      decisions = 0;
      restarts = 0;
      clauses = 0;
    }

  (* Encode every still-pending frame, oldest first.  Raises
     [Bitblast.Too_large] on gate-budget exhaustion; already-encoded
     frames and the blasting memo survive the abort, so the next check
     resumes where this one stopped. *)
  let encode_pending t =
    List.iter
      (fun f ->
        if not f.f_encoded then begin
          let e', axioms = Arrays.eliminate_one t.elim f.f_expr in
          (* Congruence axioms are theory-valid, hence asserted
             unguarded: they may outlive the frame that introduced
             them. *)
          List.iter (Bitblast.assert_true t.blast) axioms;
          let lit = Bitblast.lit_of t.blast e' in
          Sat.add_clause t.sat [ -f.f_sel; lit ];
          f.f_encoded <- true
        end)
      (List.rev t.stack)

  let extract_model t =
    let m = Model.empty () in
    List.iter
      (fun (var, bits) ->
        match Expr.node var with
        | Expr.Var name -> Model.set m name (Bitblast.value_of_bits t.sat bits)
        | _ -> assert false)
      (Bitblast.blasted_vars t.blast);
    (* reconstruct array points from the read witnesses *)
    List.iter
      (fun { Arrays.array; index; value } ->
        match Expr.node array with
        | Expr.Var name ->
            Model.add_array_point m name ~index:(Model.eval m index)
              ~elt:(Model.eval m value)
        | _ -> assert false)
      (Arrays.witnesses t.elim);
    m

  let check_core ?budget ?gate_budget t : outcome * stats =
    let budget = Option.value budget ~default:t.budget in
    (* The propagation budget is a per-check allowance (relative to the
       session's counters at entry); the gate budget is cumulative over
       the session — see {!Bitblast.arm}. *)
    (match gate_budget with
    | Some g -> Bitblast.arm t.blast ~gate_limit:g
    | None -> ());
    let active = List.filter (fun f -> f.f_sel <> 0) t.stack in
    if List.exists (fun f -> Expr.is_false f.f_expr) active then
      (Unsat, zero_stats t)
    else if active = [] then (Sat (Model.empty ()), zero_stats t)
    else begin
      let key =
        let ids = List.map (fun f -> Expr.id f.f_expr) active in
        Array.of_list (List.sort_uniq compare ids)
      in
      let set = Cache.ISet.of_list (Array.to_list key) in
      match Cache.lookup t.cache key set with
      | Some (o, kind) ->
          t.hits <- t.hits + 1;
          let kind_label =
            match kind with
            | Cache.Exact ->
                M.inc m_cache_exact;
                "exact"
            | Cache.Subset_sat ->
                M.inc m_cache_subset;
                "subset_sat"
            | Cache.Superset_unsat ->
                M.inc m_cache_superset;
                "superset_unsat"
          in
          (* zero-cost row: a hit never displaces the original solve's
             cost for the same key, but records that the set was asked
             again and answered from cache *)
          observe_query key o ~cached:kind_label 0;
          (o, zero_stats t)
      | None -> (
          (* The journal's machine-stable name for the active set: a
             digest of its sorted printed formulas, which name no term
             ids.  Computed only on in-memory-cache misses, and only
             with a store attached. *)
          let digest () =
            Digest.to_hex
              (Digest.string
                 (String.concat ";"
                    (List.sort compare
                       (List.map (fun f -> Expr.to_string f.f_expr) active))))
          in
          let digest =
            match t.persist with Some _ -> digest () | None -> ""
          in
          let replayed =
            match t.persist with
            | Some h -> Persist.replay h ~hash:digest ~budget
            | None -> None
          in
          match replayed with
          | Some (answer, saved) ->
              (* Warm replay: adopt the journaled answer at zero cost.
                 Solved answers are stored into the in-memory cache
                 exactly where the cold run stored them, so later
                 subset/superset lookups evolve identically; stalls are
                 returned verbatim and (as in a cold run) not cached. *)
              t.hits <- t.hits + 1;
              t.replays <- t.replays + 1;
              M.inc m_warm_replays;
              M.add m_warm_saved_cost saved;
              let o =
                match answer with
                | Persist.Solved_unsat ->
                    Cache.store t.cache key set Unsat;
                    Unsat
                | Persist.Solved_sat m ->
                    Cache.store t.cache key set (Sat m);
                    Sat m
                | Persist.Stalled reason -> Unknown reason
              in
              observe_query key o ~cached:"warm" 0;
              (o, zero_stats t)
          | None ->
              t.misses <- t.misses + 1;
              M.inc m_cache_miss;
              if t.solves = 0 then M.inc m_checks_fresh
              else M.inc m_checks_incremental;
              t.solves <- t.solves + 1;
              Sat.backtrack_root t.sat;
              let g0 = Bitblast.gate_count t.blast in
              let p0, c0, cl0 = Sat.stats t.sat in
              let d0 = Sat.decisions t.sat and r0 = Sat.restarts t.sat in
              (* Conclude a real solve: report stats and append the
                 verdict — including stalls, which warm runs must
                 reproduce — to the journal. *)
              let conclude o =
                let st = stats_since t ~g0 ~p0 ~c0 ~d0 ~r0 ~cl0 in
                M.add m_gates st.gates;
                M.add m_propagations st.propagations;
                M.add m_conflicts st.conflicts;
                M.add m_decisions st.decisions;
                M.add m_restarts st.restarts;
                M.add m_clauses st.clauses;
                let cost = st.gates + st.propagations in
                observe_query key o ~cached:"no" cost;
                (match t.persist with
                | Some h ->
                    let answer =
                      match o with
                      | Unsat -> Persist.Solved_unsat
                      | Sat m -> Persist.Solved_sat m
                      | Unknown r -> Persist.Stalled r
                    in
                    Persist.record h ~hash:digest ~budget ~cost answer
                | None -> ());
                (o, st)
              in
              match encode_pending t with
              | exception Bitblast.Too_large ->
                  conclude (Unknown "gate budget exhausted during bit-blasting")
              | () -> (
                  M.add m_vars (Sat.num_vars t.sat);
                  (* oldest frame first, matching assertion order *)
                  let assumptions = List.rev_map (fun f -> f.f_sel) active in
                  match Sat.solve ~budget ~assumptions t.sat with
                  | Sat.Unsat ->
                      Cache.store t.cache key set Unsat;
                      conclude Unsat
                  | Sat.Sat ->
                      let m = extract_model t in
                      Cache.store t.cache key set (Sat m);
                      conclude (Sat m)
                  | Sat.Unknown ->
                      conclude
                        (Unknown "propagation budget exhausted during search")))
    end

  let check ?budget ?gate_budget t : outcome * stats =
    if not (M.enabled M.default) then check_core ?budget ?gate_budget t
    else begin
      let w0 = Gc.minor_words () in
      let t0 = M.now M.default in
      let ((res, _) as out) = check_core ?budget ?gate_budget t in
      M.observe m_query_seconds (M.now M.default -. t0);
      M.add m_minor_words (int_of_float (Gc.minor_words () -. w0));
      (match res with
      | Sat _ -> M.inc m_q_sat
      | Unsat -> M.inc m_q_unsat
      | Unknown _ -> M.inc m_q_unknown);
      out
    end
end

(* --- one-shot conveniences -------------------------------------------- *)

(* [check assertions] decides a conjunction with a throwaway session.
   The returned stats are the work this call performed; on a result-cache
   hit they are all zero. *)
let check ?budget ?gate_budget (assertions : Expr.t list) : outcome * stats =
  let s = Session.create ?budget ?gate_budget () in
  List.iter (Session.push s) assertions;
  Session.check s

let is_satisfiable ?budget ?gate_budget assertions =
  match fst (check ?budget ?gate_budget assertions) with
  | Sat _ -> Ok true
  | Unsat -> Ok false
  | Unknown why -> Error why

(* Is [e] forced true under [assumptions]?  (valid iff ¬e unsat) *)
let must_be_true ?budget ?gate_budget assumptions e =
  match fst (check ?budget ?gate_budget (Expr.not_ e :: assumptions)) with
  | Unsat -> Ok true
  | Sat _ -> Ok false
  | Unknown why -> Error why
