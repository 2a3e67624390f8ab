(* The repository benchmark's entry point.

     main.exe --workload record|reconstruct|serve --seed N --seconds S
              --trace 0|1

   Prints a human report, then as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones BENCHMARK.json gates; with --trace 1
   the per-layer ones, from a run that also records spans (written to
   _perfbench/trace-<workload>.json).  Exits 1 when any output check
   failed. *)

let usage =
  "main.exe --workload record|reconstruct|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace = 1 in
  let run =
    match !workload with
    | "record" -> Record.run
    | "reconstruct" -> Reconstruct.run
    | "serve" -> Serve.run
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
  let r =
    try run ~seed:!seed ~seconds:!seconds ~traced
    with e ->
      prerr_endline ("perfbench: " ^ !workload ^ " aborted: " ^ Printexc.to_string e);
      exit 1
  in
  let metrics =
    if not traced then r.Common.gated
    else begin
      List.iter
        (fun mt ->
           if not (List.exists (fun (n, _, _) -> n = mt.Common.name) Common.layer_metrics)
           then prerr_endline ("perfbench: unlisted layer metric " ^ mt.Common.name))
        r.Common.layers;
      List.map
        (fun (name, unit_, _) ->
           match List.find_opt (fun mt -> mt.Common.name = name) r.Common.layers with
           | Some mt -> mt
           | None -> Common.m name unit_ 0.)
        Common.layer_metrics
    end
  in
  let bad = List.filter (fun mt -> not (Float.is_finite mt.Common.value)) metrics in
  List.iter
    (fun mt -> prerr_endline ("perfbench: metric " ^ mt.Common.name ^ " is not finite"))
    bad;
  let failed = r.Common.failed + List.length bad in
  Printf.printf "\n%s: %d attempted, %d failed (failed_share %s ratio)\n" !workload
    r.Common.attempted failed
    (Common.fmt_value (float_of_int failed /. float_of_int (max 1 r.Common.attempted)));
  List.iter
    (fun (name, v, u) -> Printf.printf "  %-28s %14s %s\n" name v u)
    r.Common.named;
  List.iter
    (fun mt ->
       Printf.printf "  %-28s %14s %s\n" mt.Common.name (Common.fmt_value mt.Common.value)
         mt.Common.unit_)
    metrics;
  if traced then begin
    let path = Printf.sprintf "_perfbench/trace-%s.json" !workload in
    Spans.write_chrome path;
    Printf.printf "  spans: %d written to %s\n" (List.length !Spans.spans) path
  end;
  let metrics =
    List.map
      (fun mt -> if Float.is_finite mt.Common.value then mt else { mt with Common.value = 0. })
      metrics
  in
  print_endline
    (Common.json_line ~correct:(failed = 0) ~attempted:(max 1 r.Common.attempted) ~failed
       metrics);
  exit (if failed = 0 then 0 else 1)
