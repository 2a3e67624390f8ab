(* Tests for the bench trajectory checker (bench/trajectory.ml): the
   committed BENCH_10 -> BENCH_11 step passes, a document holding one
   job's section passes, and for each rule a copy of BENCH_11 broken in
   memory fails, every failure naming the rule's section. *)

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

let failures current =
  List.filter
    (fun v -> not v.Trajectory.ok)
    (Trajectory.check ~reference:(bench 10) ~current)

let test_committed_step () =
  Alcotest.(check (list string)) "BENCH_10 -> BENCH_11 has no failures" []
    (List.map (fun v -> v.Trajectory.label) (failures (bench 11)))

(* What `bench vm -o FILE` writes: the other sections are n/a. *)
let test_one_section () =
  let vm_only =
    match bench 11 with
    | J.Obj fields ->
        J.Obj (List.filter (fun (k, _) -> k = "bench" || k = "vm") fields)
    | j -> j
  in
  Alcotest.(check int) "a vm-only document passes" 0
    (List.length (failures vm_only))

let broken =
  [ ("solver-cost drift", "totals",
     set [ "totals"; "solver_cost" ] (J.Int 204_037));
    ("per-bug counter drift", "bugs",
     set [ "bugs"; "0"; "iterations" ] (J.Int 4));
    ("vm speedup under 4x", "vm", set [ "vm"; "speedup" ] (J.Float 3.9));
    ("vm speedup 10% under the reference", "vm",
     set [ "vm"; "speedup" ] (J.Float 4.3));
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
    ("a present section lacks a field", "vm",
     update [ "vm" ] (function
       | J.Obj fields -> J.Obj (List.remove_assoc "traced_ratio" fields)
       | j -> j)) ]

let test_broken (name, section, break) =
  Alcotest.test_case name `Quick (fun () ->
      match failures (break (bench 11)) with
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
      Alcotest.test_case "BENCH_10 -> BENCH_11 passes" `Quick
        test_committed_step
      :: Alcotest.test_case "one job's section alone passes" `Quick
           test_one_section
      :: List.map test_broken broken ) ]
