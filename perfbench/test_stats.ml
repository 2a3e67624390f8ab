(* Self-tests of the benchmark's statistics helpers: the tail percentile
   rule, latency measured from the due time, and span self time.  Run by
   `dune runtest`. *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* highest ladder percentile with at least 10 samples beyond it *)
  List.iter
    (fun (n, want) ->
       expect
         (Printf.sprintf "tail_percentile %d" n)
         (Stats.tail_percentile n = want))
    [ (19, None); (20, Some 50.); (40, Some 75.); (50, Some 80.); (99, Some 80.); (100, Some 90.);
      (199, Some 90.); (200, Some 95.); (999, Some 95.); (1000, Some 99.);
      (10_000, Some 99.9) ];
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail xs in
  expect "tail of 1..100 is p90 = 90" (t.Stats.pct = 90. && close t.Stats.value 90.);
  expect "ten samples lie beyond it"
    (List.length (List.filter (fun x -> x > t.Stats.value) xs) = 10);
  let t = Stats.tail ~pct:90. (List.init 50 float_of_int) in
  expect "a fixed percentile is kept and flagged unsupported"
    (t.Stats.pct = 90. && not t.Stats.supported);
  expect "median of an even count interpolates" (close (Stats.median [ 3.; 1.; 2.; 10. ]) 2.5);
  expect "median of an odd count" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  expect "geomean" (close (Stats.geomean [ 2.; 8. ]) 4.);
  (* open-loop latency counts from the due time, so generator lag and
     queueing both show *)
  let r = Stats.request_times ~due:1.0 ~sent:1.5 ~acked:1.6 ~received:3.0 ~exec:1.0 in
  expect "latency from due" (close r.Stats.latency 2.0);
  expect "lag" (close r.Stats.lag 0.5);
  expect "ack" (close r.Stats.ack 0.1);
  expect "wait excludes execution" (close r.Stats.wait 0.5);
  (* self time: overlapping children counted once, a child running past
     its parent's end clipped, inner (counter-attributed) time removed *)
  Spans.reset ();
  Spans.recording := true;
  let p = Spans.add "stage" ~start:0. ~stop:10. ~inner:[ ("smt", 1.) ] in
  ignore (Spans.add ~parent:p "a" ~start:1. ~stop:3.);
  ignore (Spans.add ~parent:p "b" ~start:2. ~stop:5.);
  ignore (Spans.add ~parent:p "c" ~start:9. ~stop:12.);
  Spans.recording := false;
  let layers = Spans.by_layer !Spans.spans in
  let self n = List.assoc n layers in
  expect "parent self time" (close (self "stage") 4.);
  expect "inner layer credited" (close (self "smt") 1.);
  expect "children keep their own time"
    (close (self "a") 2. && close (self "b") 3. && close (self "c") 3.);
  expect "nothing recorded while off"
    (Spans.add "x" ~start:0. ~stop:1. = 0 && List.length !Spans.spans = 4);
  if !failures > 0 then exit 1;
  print_endline "perfbench statistics self-tests: ok"
