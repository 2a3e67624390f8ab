(* Tests for the bench trajectory checker (bench/trajectory.ml): the
   newest committed step, BENCH_12 -> BENCH_13, passes, a document
   holding one job's section passes, a warm section without the retired
   stall-time trial passes, and for each rule a copy of BENCH_13 broken
   in memory fails against the unbroken one, every failure naming the
   rule's section. *)

module J = Er_json

(* Under `dune runtest` the committed files sit one directory up. *)
let bench n =
  let f = Printf.sprintf "BENCH_%d.json" n in
  let f = if Sys.file_exists f then f else Filename.concat ".." f in
  match J.parse (In_channel.with_open_bin f In_channel.input_all) with
  | Some doc -> doc
  | None -> Alcotest.failf "%s does not parse" f

(* [j] with [f] applied at [path]; a numeric step indexes a list. *)
let rec update path f (j : J.t) =
  match (path, j) with
  | [], _ -> f j
  | k :: rest, J.Obj fields ->
      J.Obj
        (List.map
           (fun (k', v) -> (k', if k' = k then update rest f v else v))
           fields)
  | k :: rest, J.List items ->
      J.List
        (List.mapi
           (fun i v -> if string_of_int i = k then update rest f v else v)
           items)
  | _ -> j

let set path v = update path (fun _ -> v)

let failures ?(reference = bench 10) current =
  List.filter
    (fun v -> not v.Trajectory.ok)
    (Trajectory.check ~reference ~current)

let test_committed_step () =
  Alcotest.(check (list string)) "BENCH_12 -> BENCH_13 has no failures" []
    (List.map
       (fun v -> v.Trajectory.label)
       (failures ~reference:(bench 12) (bench 13)))

(* [doc] reduced to its [section], as `bench JOB -o FILE` writes it. *)
let only section = function
  | J.Obj fields ->
      J.Obj (List.filter (fun (k, _) -> k = "bench" || k = section) fields)
  | j -> j

(* What `bench vm -o FILE` writes: the other sections are n/a. *)
let test_one_section () =
  Alcotest.(check int) "a vm-only document passes" 0
    (List.length (failures (only "vm" (bench 11))))

(* What `bench warm -o FILE` writes now that the stall-time trial is
   gone: BENCH_11 with that trial's subsection dropped from its warm
   section, checked against a reference that still has it. *)
let test_warm_without_stall_trial () =
  let trial = "portfolio" in
  let doc =
    update [ "warm" ]
      (function
        | J.Obj fields -> J.Obj (List.remove_assoc trial fields)
        | j -> j)
      (only "warm" (bench 11))
  in
  Alcotest.(check bool) "the copy lacks the subsection" true
    (Option.bind (J.member "warm" doc) (J.member trial) = None);
  Alcotest.(check (list string)) "it passes against BENCH_10" []
    (List.map (fun v -> v.Trajectory.label) (failures doc))

let bump = function J.Int n -> J.Int (n + 1) | j -> j

let broken =
  [ ("solver-cost drift", "totals",
     set [ "totals"; "solver_cost" ] (J.Int 204_037));
    ("per-bug counter drift", "bugs",
     set [ "bugs"; "0"; "iterations" ] (J.Int 4));
    ("per-bug SAT decisions drift", "bugs",
     update [ "bugs"; "0"; "sat_decisions" ] bump);
    ("per-bug SAT conflicts drift", "bugs",
     update [ "bugs"; "1"; "sat_conflicts" ] bump);
    ("per-bug bit-blast gates drift", "bugs",
     update [ "bugs"; "2"; "bitblast_gates" ] bump);
    ("vm speedup under 4x", "vm", set [ "vm"; "speedup" ] (J.Float 3.9));
    ("vm speedup 10% under the reference", "vm",
     update [ "vm"; "speedup" ]
       (function J.Float f -> J.Float (0.85 *. f) | j -> j));
    ("traced ratio 1.5", "vm", set [ "vm"; "traced_ratio" ] (J.Float 1.5));
    ("long trace never resumes", "long_trace",
     set [ "long_trace"; "resumes" ] (J.Int 0));
    ("warm pass saves nothing", "warm",
     fun d ->
       set [ "warm"; "saved_cost" ] (J.Int 0)
         (set [ "warm"; "solver_cost_warm" ] (J.Int 204_036) d));
    ("warm trajectories differ", "warm",
     set [ "warm"; "trajectories_identical" ] (J.Bool false));
    ("fleet not deterministic", "fleet",
     set [ "fleet"; "deterministic" ] (J.Bool false));
    ("fleet digest drift", "fleet",
     set [ "fleet"; "digest" ] (J.Str (String.make 32 '0')));
    ("a present section lacks a field", "vm",
     update [ "vm" ] (function
       | J.Obj fields -> J.Obj (List.remove_assoc "traced_ratio" fields)
       | j -> j)) ]

let test_broken (name, section, break) =
  Alcotest.test_case name `Quick (fun () ->
      match failures ~reference:(bench 13) (break (bench 13)) with
      | [] -> Alcotest.fail "the broken document passed"
      | bad ->
          List.iter
            (fun v ->
               Alcotest.(check string)
                 (v.Trajectory.label ^ " names its section")
                 section v.Trajectory.section)
            bad)

let suites =
  [ ( "trajectory",
      Alcotest.test_case "BENCH_12 -> BENCH_13 passes" `Quick
        test_committed_step
      :: Alcotest.test_case "one job's section alone passes" `Quick
           test_one_section
      :: List.map test_broken broken
      @ [ Alcotest.test_case "a warm section without the stall trial passes"
            `Quick test_warm_without_stall_trial ] ) ]
