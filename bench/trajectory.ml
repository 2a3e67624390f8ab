(* The rules over persisted bench trajectories (BENCH_N.json): one table,
   walked by one checker.

   A row names a JSON path and the rule its value in the checked
   document obeys, mostly relative to the reference document's value.
   Paths are dotted; a segment [f[k]] is the list under [f], its items
   matched between the two documents by their [k] field, so
   "bugs[name].solver_cost" is every bug's solver cost.  A path's first
   field is its section.

   - A section the checked document lacks is n/a: each bench job writes
     only its own section.
   - A present section must carry every field its rows name, and its
     lists must be non-empty.
   - A rule that needs the reference's value is n/a where the reference
     lacks it (an older schema).

   Every failure names its section. *)

module J = Er_json

type better = Higher | Lower

type mode =
  | Exact                     (* identical to the reference's value *)
  | Within of better * float  (* at most this fraction worse than it *)
  | Bound of better * float   (* no worse than this absolute value *)
  | True                      (* must be true *)
  | Info                      (* printed with its delta, never gated *)

(* ER's production run, under the recording plan its reconstruction
   selects, over the untraced run: `bench vm` fails above it too. *)
let max_traced_ratio = 1.4

(* Deterministic work counters: they do not depend on the machine, so
   any drift is a change of behaviour. *)
let exact prefix fields = List.map (fun f -> (prefix ^ "." ^ f, Exact)) fields

let table =
  exact "bugs[name]"
    [ "reproduced"; "iterations"; "occurrences"; "runs"; "trace_bytes";
      "solver_calls"; "solver_cost"; "cache_hits"; "cache_misses";
      "recording_points"; "sat_decisions"; "sat_conflicts";
      "bitblast_gates" ]
  @ exact "totals"
      [ "bugs"; "reproduced"; "trace_bytes"; "solver_calls"; "solver_cost";
        "cache_hits"; "cache_misses" ]
  @ [ ("totals.mean_er_overhead_pct", Info);
      ("totals.mean_rr_overhead_pct", Info) ]
  @ exact "vm" [ "total_instrs" ]
  @ [ (* speedups and the traced ratio are ratios of times taken on one
         machine, so they carry across machines *)
      ("vm.speedup", Bound (Higher, 4.0));
      ("vm.speedup", Within (Higher, 0.10));
      ("vm.traced_ratio", Bound (Lower, max_traced_ratio));
      ("vm.bugs[name].speedup", Info);
      ("fleet.deterministic", True);
      ("fleet.digest", Exact);
      ("fleet.trials[jobs].wall", Info) ]
  @ exact "long_trace"
      [ "checkpoints_taken"; "resumes"; "saved_instrs"; "executed_instrs" ]
  @ [ ("long_trace.resumes", Bound (Higher, 1.));
      ("long_trace.speedup", Info) ]
  @ exact "warm" [ "solver_cost_cold" ]
  @ [ (* a warm pass saves solver work and changes nothing it computes *)
      ("warm.saved_cost", Bound (Higher, 1.));
      ("warm.solver_cost_warm", Within (Lower, 0.));
      ("warm.trajectories_identical", True) ]

type segment = Field of string | Each of string * string

let segments path =
  List.map
    (fun s ->
       match String.index_opt s '[' with
       | Some i ->
           let key = String.sub s (i + 1) (String.length s - i - 2) in
           Each (String.sub s 0 i, key)
       | None -> Field s)
    (String.split_on_char '.' path)

(* The values at [segs] below [j], each under its concrete path; [None]
   marks a missing field or an empty list. *)
let rec leaves prefix j = function
  | [] -> [ (prefix, Some j) ]
  | seg :: rest -> (
      let field = match seg with Field f | Each (f, _) -> f in
      let here = if prefix = "" then field else prefix ^ "." ^ field in
      match (seg, J.member field j) with
      | _, None -> [ (here, None) ]
      | Field _, Some v -> leaves here v rest
      | Each (_, key), Some v -> (
          match J.to_list v with
          | None | Some [] -> [ (here, None) ]
          | Some items ->
              List.concat_map
                (fun item ->
                   match J.member key item with
                   | None -> [ (here ^ "[]." ^ key, None) ]
                   | Some (J.Str k) -> leaves (here ^ "[" ^ k ^ "]") item rest
                   | Some k ->
                       leaves (here ^ "[" ^ J.to_string k ^ "]") item rest)
                items))

let show = function J.Float f -> Printf.sprintf "%.4g" f | v -> J.to_string v

let holds better x limit = if better = Higher then x >= limit else x <= limit
let sign better = if better = Higher then ">=" else "<="

(* Whether [cur] obeys [mode] against the reference's value, and why. *)
let judge mode cur reference =
  let num what v k =
    match J.to_float v with
    | Some x -> k x
    | None -> (false, Printf.sprintf "%s %s is not a number" what (show v))
  in
  match (mode, reference) with
  | True, _ -> (J.to_bool cur = Some true, show cur ^ ", must be true")
  | Bound (better, b), _ ->
      num "value" cur (fun c ->
          (holds better c b, Printf.sprintf "%s, bound %s %g" (show cur)
             (sign better) b))
  | (Exact | Within _ | Info), None ->
      (true, show cur ^ ", n/a in the reference")
  | Exact, Some r ->
      (cur = r, Printf.sprintf "%s -> %s, exact" (show r) (show cur))
  | Within (better, tol), Some r ->
      num "value" cur (fun c ->
          num "reference" r (fun r' ->
              let limit =
                if better = Higher then r' *. (1. -. tol) else r' *. (1. +. tol)
              in
              (holds better c limit, Printf.sprintf "%s -> %s, limit %s %.4g"
                 (show r) (show cur) (sign better) limit)))
  | Info, Some r ->
      let delta =
        match (J.to_float r, J.to_float cur) with
        | Some r, Some c when r <> 0. ->
            Printf.sprintf " (%+.1f%%)" (100. *. (c -. r) /. r)
        | _ -> ""
      in
      (true, Printf.sprintf "%s -> %s%s" (show r) (show cur) delta)

type verdict = { section : string; label : string; ok : bool; text : string }

(* Every row's verdicts on [current] against [reference].  A list row
   whose items all pass collapses to one verdict. *)
let check ~reference ~current =
  List.concat_map
    (fun (path, mode) ->
       let segs = segments path in
       let section =
         match segs with (Field s | Each (s, _)) :: _ -> s | [] -> path
       in
       if J.member section current = None then
         [ { section; label = path; ok = true; text = "n/a" } ]
       else
         let refs = leaves "" reference segs in
         let vs =
           List.map
             (fun (label, v) ->
                let ok, text =
                  match v with
                  | None -> (false, "missing from a present section")
                  | Some cur ->
                      judge mode cur (Option.join (List.assoc_opt label refs))
                in
                { section; label; ok; text })
             (leaves "" current segs)
         in
         match vs with
         | _ :: _ :: _ when mode <> Info && List.for_all (fun v -> v.ok) vs ->
             [ { section; label = path; ok = true;
                 text = Printf.sprintf "all %d ok" (List.length vs) } ]
         | vs -> vs)
    table

(* Prints every verdict, then each failure under its section to stderr;
   true when nothing failed. *)
let report ~reference:(ref_name, reference) ~current:(cur_name, current) =
  Printf.printf "bench diff: %s -> %s\n" ref_name cur_name;
  let vs = check ~reference ~current in
  List.iter
    (fun v ->
       Printf.printf "  %-38s %s%s\n" v.label v.text
         (if v.ok then "" else "  REGRESSION"))
    vs;
  match List.filter (fun v -> not v.ok) vs with
  | [] ->
      print_endline "no regressions";
      true
  | bad ->
      List.iter
        (fun v ->
           Printf.eprintf "REGRESSION [%s]: %s: %s\n" v.section v.label v.text)
        bad;
      let sections =
        List.sort_uniq compare (List.map (fun v -> v.section) bad)
      in
      Printf.eprintf "bench diff: %d regression(s) in section(s): %s\n"
        (List.length bad) (String.concat ", " sections);
      false
