(* Tests for the persistent solver-knowledge store (Er_smt.Persist):
   serialized-entry round-trips, the rejection paths that force a clean
   cold start (truncation, corruption, version bump, fingerprint
   mismatch), concurrent fleet writers sharing one cache directory,
   warm-start replay through real solver sessions, and the journal's
   divergence self-heal. *)

module P = Er_smt.Persist
module Expr = Er_smt.Expr
module Solver = Er_smt.Solver
module Model = Er_smt.Model
module J = Er_json

(* -- helpers --------------------------------------------------------- *)

let fresh_dir =
  let c = ref 0 in
  fun () ->
    incr c;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "er-persist-test-%d-%d" (Unix.getpid ()) !c)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Sys.mkdir d 0o755;
    d

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let tbl_sorted t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare

let answer_eq a b =
  match (a, b) with
  | P.Solved_unsat, P.Solved_unsat -> true
  | P.Stalled x, P.Stalled y -> String.equal x y
  | P.Solved_sat m, P.Solved_sat n ->
      tbl_sorted m.Model.values = tbl_sorted n.Model.values
      && tbl_sorted m.Model.array_points = tbl_sorted n.Model.array_points
  | _ -> false

let entry_eq (a : P.entry) (b : P.entry) =
  String.equal a.P.en_hash b.P.en_hash
  && a.P.en_budget = b.P.en_budget
  && a.P.en_cost = b.P.en_cost
  && answer_eq a.P.en_answer b.P.en_answer
  && a.P.en_summary = b.P.en_summary

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* -- generators ------------------------------------------------------ *)

let gen_name =
  QCheck.Gen.(
    map (fun s -> "v" ^ s)
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)))

(* include the extremes: model values are int64s that exceed OCaml's
   63-bit int, which is why the codec stringifies them *)
let gen_i64 =
  QCheck.Gen.(
    oneof
      [ map Int64.of_int int; return Int64.min_int; return Int64.max_int;
        return 0x7fffffffffffffffL ])

let gen_model =
  QCheck.Gen.(
    list_size (int_range 0 4) (pair gen_name gen_i64) >>= fun values ->
    list_size (int_range 0 3)
      (pair gen_name (list_size (int_range 1 3) (pair gen_i64 gen_i64)))
    >>= fun points ->
    return
      (let m = Model.empty () in
       List.iter (fun (k, v) -> Model.set m k v) values;
       List.iter
         (fun (k, pts) ->
            List.iter
              (fun (i, e) -> Model.add_array_point m k ~index:i ~elt:e)
              pts)
         points;
       m))

(* finite floats only; "%h" round-trips them exactly *)
let gen_activity = QCheck.Gen.(map (fun i -> float_of_int i /. 7.) int)

let gen_summary =
  QCheck.Gen.(
    int_range 0 1000 >>= fun cf ->
    int_range 0 1000 >>= fun dc ->
    int_range 0 50 >>= fun rs ->
    int_range 0 500 >>= fun cl ->
    list_size (int_range 0 4) (pair (int_range 1 99) gen_activity)
    >>= fun top ->
    return
      { P.sm_conflicts = cf; sm_decisions = dc; sm_restarts = rs;
        sm_clauses = cl; sm_top = top })

let gen_answer =
  QCheck.Gen.(
    oneof
      [ return P.Solved_unsat;
        map (fun m -> P.Solved_sat m) gen_model;
        map (fun s -> P.Stalled ("stall: " ^ s)) gen_name ])

let gen_entry =
  QCheck.Gen.(
    gen_name >>= fun hash_seed ->
    int_range 1 100_000 >>= fun budget ->
    int_range 0 100_000 >>= fun cost ->
    gen_answer >>= fun answer ->
    opt gen_summary >>= fun summary ->
    return
      { P.en_hash = Digest.to_hex (Digest.string hash_seed);
        en_budget = budget; en_cost = cost; en_answer = answer;
        en_summary = summary })

(* -- round-trips ----------------------------------------------------- *)

let test_entry_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"entry survives JSON text round-trip"
       (QCheck.make gen_entry)
       (fun e ->
          match J.parse (J.to_string (P.entry_to_json e)) with
          | None -> false
          | Some j -> (
              match P.entry_of_json j with
              | Some e' -> entry_eq e e'
              | None -> false)))

let test_store_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"rendered store parses back to the same journal"
       (QCheck.make QCheck.Gen.(list_size (int_range 0 8) gen_entry))
       (fun entries ->
          let fp = "qc-fingerprint" in
          match P.parse ~fingerprint:fp (P.render ~fingerprint:fp entries) with
          | Error _ -> false
          | Ok arr ->
              Array.length arr = List.length entries
              && List.for_all2 entry_eq entries (Array.to_list arr)))

(* -- rejection paths: every bad store is a clean cold start ---------- *)

let sample_entries =
  [ { P.en_hash = Digest.to_hex (Digest.string "a"); en_budget = 500;
      en_cost = 77; en_answer = P.Solved_unsat; en_summary = None };
    { P.en_hash = Digest.to_hex (Digest.string "b"); en_budget = 500;
      en_cost = 12;
      en_answer = P.Stalled "budget exhausted"; en_summary = None } ]

(* [store] with its header's version replaced by [v]; the current
   version is one digit, so the header prefix is 15 bytes. *)
let with_version v store =
  "er-smt-cache " ^ v ^ String.sub store 15 (String.length store - 15)

(* A v2 store's entries carry a term-id key that v3 dropped; the version
   gate rejects it, so the job starts cold and rewrites the store. *)
let v2_store fp = with_version "v2" (P.render ~fingerprint:fp sample_entries)

let test_rejections () =
  let fp = "fp-a" in
  let good = P.render ~fingerprint:fp sample_entries in
  let expect name result sub =
    match result with
    | Ok _ -> Alcotest.failf "%s: store was accepted" name
    | Error reason ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: reason %S mentions %S" name reason sub)
          true (contains ~sub reason)
  in
  expect "no header" (P.parse ~fingerprint:fp "garbage with no newline")
    "truncated";
  expect "bad magic"
    (P.parse ~fingerprint:fp ("er-other v1 fp=x md5=y\n{}"))
    "bad magic";
  (* version bump: patch the header to a future version *)
  let v99 = with_version "v99" good in
  Alcotest.(check string) "patched header shape" "er-smt-cache v99 fp="
    (String.sub v99 0 20);
  expect "version bump" (P.parse ~fingerprint:fp v99) "version mismatch";
  Alcotest.(check int) "current format" 3 P.format_version;
  expect "previous version" (P.parse ~fingerprint:fp (v2_store fp))
    "version mismatch (v2, want v3)";
  (* fingerprint change: config drift must cold-start *)
  expect "fingerprint mismatch" (P.parse ~fingerprint:"fp-b" good)
    "fingerprint mismatch";
  (* truncation inside the payload *)
  let nl = String.index good '\n' in
  let truncated = String.sub good 0 (nl + 1 + ((String.length good - nl) / 2)) in
  expect "truncated payload" (P.parse ~fingerprint:fp truncated) "checksum";
  (* single flipped byte in the payload *)
  let corrupt = Bytes.of_string good in
  Bytes.set corrupt (String.length good - 2)
    (if Bytes.get corrupt (String.length good - 2) = 'x' then 'y' else 'x');
  expect "flipped byte"
    (P.parse ~fingerprint:fp (Bytes.to_string corrupt))
    "checksum"

let test_attach_cold_fallback () =
  let dir = fresh_dir () in
  List.iter
    (fun (label, contents, reasons) ->
       write_file (P.store_path ~dir ~label) contents;
       Expr.in_fresh_space (fun () ->
           (match P.attach ~dir ~label ~fingerprint:"fp" with
            | P.Cold { reason = Some r } ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: reason %S names the failure" label r)
                  true
                  (List.exists (fun sub -> contains ~sub r) reasons)
            | P.Cold { reason = None } ->
                Alcotest.failf "%s: store reported as absent" label
            | P.Loaded _ -> Alcotest.failf "%s: store was loaded" label);
           (* the rejection surfaces as a flush warning too *)
           match P.detach_and_flush () with
           | None -> Alcotest.fail "no slot attached"
           | Some fl ->
               Alcotest.(check bool)
                 (label ^ ": warning mentions the stale store") true
                 (List.exists
                    (contains ~sub:"stale store rejected")
                    fl.P.fl_warnings)))
    [ ("cold-fallback", "er-smt-cache v1 half a hea",
       [ "truncated"; "malformed" ]);
      ("v2-store", v2_store "fp", [ "version mismatch (v2, want v3)" ]) ]

(* -- concurrent writers to one cache directory ----------------------- *)

(* Four domains, each in its own interning space, flush to the same
   label; writer [i] records at budget [100 + i].  The final store must
   be exactly one writer's journal (last writer wins), parse cleanly
   (tmp+rename forbids torn files), and the directory must hold no
   leftover tmp files. *)
let test_concurrent_writers () =
  let dir = fresh_dir () in
  let label = "shared" and fp = "shared-fp" in
  let hash i k = Digest.to_hex (Digest.string (Printf.sprintf "%d.%d" i k)) in
  let writer i () =
    Expr.in_fresh_space (fun () ->
        ignore (P.attach ~dir ~label ~fingerprint:fp);
        let h = Option.get (P.current ()) in
        for k = 0 to 2 + i do
          P.record h ~hash:(hash i k) ~budget:(100 + i) ~cost:(10 * k)
            P.Solved_unsat
        done;
        P.detach_and_flush ())
  in
  let flushes =
    Array.map Domain.join (Array.init 4 (fun i -> Domain.spawn (writer i)))
  in
  Array.iter
    (fun fl ->
       match fl with
       | Some fl -> Alcotest.(check bool) "every writer flushed" true fl.P.fl_wrote
       | None -> Alcotest.fail "a writer lost its slot")
    flushes;
  (match Sys.readdir dir with
   | [| f |] ->
       Alcotest.(check string) "only the store file remains" "shared.ercache" f
   | files ->
       Alcotest.failf "expected one file, found %d (torn tmp files?)"
         (Array.length files));
  match
    P.parse ~fingerprint:fp
      (In_channel.with_open_bin (P.store_path ~dir ~label) In_channel.input_all)
  with
  | Error r -> Alcotest.failf "final store does not parse: %s" r
  | Ok entries ->
      let owner = entries.(0).P.en_budget - 100 in
      Alcotest.(check int)
        "the store is one writer's complete journal"
        (3 + owner) (Array.length entries);
      Array.iteri
        (fun k e ->
           Alcotest.(check bool) "entries all from the same writer" true
             (e.P.en_budget = 100 + owner
              && String.equal e.P.en_hash (hash owner k)))
        entries

(* -- warm-start replay through real solver sessions ------------------ *)

let session_queries () =
  let x = Expr.bv_var "persist_x" ~width:16 in
  Array.init 5 (fun i ->
      Expr.eq
        (Expr.urem x (Expr.const ~width:16 (Int64.of_int (i + 2))))
        (Expr.const ~width:16 1L))

let run_session_pass ~dir ~label =
  Expr.in_fresh_space (fun () ->
      let status = P.attach ~dir ~label ~fingerprint:"sess-fp" in
      let s = Solver.Session.create () in
      let cost = ref 0 in
      Array.iter
        (fun q ->
           Solver.Session.push s q;
           let _, st = Solver.Session.check s in
           cost := !cost + st.Solver.gates + st.Solver.propagations;
           Solver.Session.pop s)
        (session_queries ());
      let replays = Solver.Session.replays s in
      let fl = P.detach_and_flush () in
      (status, !cost, replays, fl))

let test_warm_replay () =
  let dir = fresh_dir () in
  let label = "warm-session" in
  let st_cold, cost_cold, replays_cold, fl_cold =
    run_session_pass ~dir ~label
  in
  (match st_cold with
   | P.Cold { reason = None } -> ()
   | _ -> Alcotest.fail "first pass should find no store");
  Alcotest.(check bool) "cold pass paid solver cost" true (cost_cold > 0);
  Alcotest.(check int) "cold pass replayed nothing" 0 replays_cold;
  Alcotest.(check bool) "cold pass wrote the journal" true
    (Option.get fl_cold).P.fl_wrote;
  let st_warm, cost_warm, replays_warm, fl_warm =
    run_session_pass ~dir ~label
  in
  (match st_warm with
   | P.Loaded { entries; replayable_cost } ->
       Alcotest.(check int) "journal holds every query" 5 entries;
       Alcotest.(check int) "replayable cost is the cold cost" cost_cold
         replayable_cost
   | P.Cold _ -> Alcotest.fail "second pass should load the store");
  Alcotest.(check int) "warm pass replays every answer" 5 replays_warm;
  Alcotest.(check int) "warm pass pays zero solver cost" 0 cost_warm;
  let fl = Option.get fl_warm in
  Alcotest.(check int) "warm pass saved the full cold cost" cost_cold
    fl.P.fl_saved_cost;
  Alcotest.(check bool) "pure replay leaves the store untouched" false
    fl.P.fl_wrote

(* -- divergence self-heal -------------------------------------------- *)

(* A journal recorded for queries [A; B] replayed against [A; C] must
   replay A, disable itself at the mismatch, and rewrite the store as
   [A; C] at flush — after which a third [A; C] run replays fully. *)
let test_divergence_self_heal () =
  let dir = fresh_dir () in
  let label = "diverge" in
  let pass mk_queries =
    Expr.in_fresh_space (fun () ->
        ignore (P.attach ~dir ~label ~fingerprint:"div-fp");
        let x = Expr.bv_var "div_x" ~width:16 in
        let s = Solver.Session.create () in
        let cost = ref 0 in
        List.iter
          (fun q ->
             Solver.Session.push s q;
             let _, st = Solver.Session.check s in
             cost := !cost + st.Solver.gates + st.Solver.propagations;
             Solver.Session.pop s)
          (mk_queries x);
        (Solver.Session.replays s, !cost, Option.get (P.detach_and_flush ())))
  in
  let q_mod m x =
    Expr.eq
      (Expr.urem x (Expr.const ~width:16 m))
      (Expr.const ~width:16 1L)
  in
  let a x = q_mod 3L x and b x = q_mod 5L x and c x = q_mod 7L x in
  let _, _, fl1 = pass (fun x -> [ a x; b x ]) in
  Alcotest.(check int) "first pass journals both queries" 2 fl1.P.fl_entries;
  let replays2, _, fl2 = pass (fun x -> [ a x; c x ]) in
  Alcotest.(check int) "prefix replays before the divergence" 1 replays2;
  Alcotest.(check bool) "divergence is reported" true
    (List.exists (contains ~sub:"diverged") fl2.P.fl_warnings);
  Alcotest.(check bool) "diverged journal is rewritten" true fl2.P.fl_wrote;
  Alcotest.(check int) "healed journal: kept prefix + fresh tail" 2
    fl2.P.fl_entries;
  let replays3, cost3, fl3 = pass (fun x -> [ a x; c x ]) in
  Alcotest.(check int) "healed journal replays fully" 2 replays3;
  Alcotest.(check int) "healed replay is free" 0 cost3;
  Alcotest.(check bool) "healed replay rewrites nothing" false fl3.P.fl_wrote

(* -- the job layer: cold-fallback warning events, warm identity ------ *)

(* Corrupt a job's store, run it through Job.execute with an events
   sink: the run must fall back cold, emit the rejection as events, and
   still produce a result whose rerun (now warm) is identical modulo
   the masked cost fields. *)
module Events = Er_core.Events

(* Corpus bug [name] run as a job whose store lives in [dir]: its result
   and its events in order. *)
let run_job ~dir name =
  let module Job = Er_core.Job in
  let s =
    match Er_corpus.Registry.find name with
    | Some s -> s
    | None -> Alcotest.failf "corpus bug %s disappeared" name
  in
  let events = ref [] in
  let h =
    Job.create
      ~events:(fun e -> events := e :: !events)
      (Er_corpus.Bug.request
         ~configure:(fun c -> { c with Job.Config.cache_dir = Some dir })
         s)
  in
  Job.execute h;
  match Job.poll h with
  | Some (Job.Finished r) -> (r, List.rev !events)
  | _ -> Alcotest.fail "job did not finish"

let test_job_cold_warning_and_warm_identity () =
  let module Json = Er_core.Json in
  let dir = fresh_dir () in
  write_file
    (P.store_path ~dir ~label:"bash-108885")
    "er-smt-cache v1 fp=dead md5=beef\n{\"not\":\"a payload\"}";
  let run () = run_job ~dir "bash-108885" in
  let r1, events1 = run () in
  let cache_events =
    List.filter_map
      (function
        | Events.Cache_status { state; detail; _ } -> Some (state, detail)
        | _ -> None)
      events1
  in
  Alcotest.(check bool) "cold event carries the rejection reason" true
    (List.exists
       (fun (state, detail) ->
          state = "cold" && contains ~sub:"mismatch" detail)
       cache_events);
  Alcotest.(check bool) "flush emits the stale-store warning" true
    (List.exists
       (fun (state, detail) ->
          state = "warning" && contains ~sub:"stale store rejected" detail)
       cache_events);
  Alcotest.(check bool) "cold run rewrote the store" true
    (List.exists (fun (state, _) -> state = "flushed") cache_events);
  (* second run: warm, byte-identical modulo the masked cost fields *)
  let r2, events2 = run () in
  Alcotest.(check bool) "second run warm-started" true
    (List.exists
       (function
         | Events.Cache_status { state = "warm"; _ } -> true
         | _ -> false)
       events2);
  let mask_fields = [ "solver_cost"; "cache_hits"; "cache_misses" ] in
  let rec mask = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
                if List.mem k mask_fields then (k, Json.Int 0)
                else (k, mask v))
             fields)
    | Json.List l -> Json.List (List.map mask l)
    | j -> j
  in
  let view r =
    Json.to_string
      (mask
         (Er_core.Fleet.normalize_json (Er_core.Pipeline.result_to_json_value r)))
  in
  Alcotest.(check string) "warm trajectory identical to cold" (view r1)
    (view r2)

(* sqlite-4e8e485's warm run skips encodes its cold run paid for, so it
   interns fewer terms and its queries' formulas carry other term ids
   than the journal saw.  Replay matches on the formulas' digest, so the
   warm run replays the whole journal at zero cost and leaves the store
   as it was. *)
let test_job_warm_replays_whole_journal () =
  let dir = fresh_dir () in
  ignore (run_job ~dir "sqlite-4e8e485");
  let r, events = run_job ~dir "sqlite-4e8e485" in
  let cache =
    List.filter_map
      (function
        | Events.Cache_status { state; entries; detail; _ } ->
            Some (state, entries, detail)
        | _ -> None)
      events
  in
  (match cache with
   | [ ("warm", n, _); ("replayed", n', detail) ] ->
       Alcotest.(check int) "the store keeps every entry" n n';
       Alcotest.(check bool)
         (Printf.sprintf "%S replays all %d entries" detail n)
         true
         (contains ~sub:(Printf.sprintf "%d replayed," n) detail)
   | _ ->
       let show (s, n, d) = Printf.sprintf "%s %d %s" s n d in
       Alcotest.failf "warm run's cache events: %s"
         (String.concat "; " (List.map show cache)));
  Alcotest.(check int) "warm run pays no solver cost" 0
    (List.fold_left
       (fun a it -> a + it.Er_core.Pipeline.solver_cost)
       0 r.Er_core.Pipeline.iterations)

let suites =
  [
    ( "persist",
      [
        test_entry_roundtrip;
        test_store_roundtrip;
        Alcotest.test_case "rejected stores name their failure" `Quick
          test_rejections;
        Alcotest.test_case "corrupt store attaches cold with a warning" `Quick
          test_attach_cold_fallback;
        Alcotest.test_case "concurrent writers: last one wins, no torn files"
          `Slow test_concurrent_writers;
        Alcotest.test_case "warm session replays the journal at zero cost"
          `Quick test_warm_replay;
        Alcotest.test_case "diverged journal self-heals" `Quick
          test_divergence_self_heal;
        Alcotest.test_case "job layer: cold-fallback events + warm identity"
          `Slow test_job_cold_warning_and_warm_identity;
        Alcotest.test_case "job layer: warm run replays the whole journal"
          `Slow test_job_warm_replays_whole_journal;
      ] );
  ]
