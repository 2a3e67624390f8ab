(* Clocks and the statistics every workload reports with.

   Wall time comes from the monotonic clock bechamel installs (ns since
   an arbitrary origin, immune to NTP steps); CPU time from [Unix.times]
   (user + system of the whole process, all domains).  The two are never
   mixed: a wall-clock metric is never derived from CPU time or the
   other way round. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the 1-based rank of the smallest sample with at least
   [p] percent of the samples at or below it. *)
let rank p n =
  (* the epsilon keeps 99.9% of 10000 at rank 9990, not 9991 *)
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      a.(rank p (Array.length a) - 1)

(* The conventional median: the mean of the two middle samples when
   their count is even. *)
let median xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (mean (List.map log xs))

(* The percentiles a tail may be reported at.  A fixed ladder keeps the
   reported percentile the same across runs whose sample counts differ
   by a few, so run-to-run spread measures the system, not a percentile
   that moved. *)
let ladder = [ 50.; 75.; 80.; 90.; 95.; 99.; 99.9 ]

(* The highest ladder percentile with at least [beyond] samples ranked
   above it, if any. *)
let tail_percentile ?(beyond = 10) n =
  List.fold_left
    (fun best p -> if n - rank p n >= beyond then Some p else best)
    None ladder

type tail = { pct : float; value : float; n : int; supported : bool }

(* The tail of [xs]: at [pct] when given, else at the highest ladder
   percentile the sample supports.  A workload whose sample count can
   vary between runs passes a fixed [pct] chosen for its smallest
   count, so that a faster change is not compared at another
   percentile; [supported] says whether ten samples lie beyond it.
   With fewer than 20 samples and no [pct], the median is reported. *)
let tail ?pct xs =
  let n = List.length xs in
  let p =
    match (pct, tail_percentile n) with
    | Some p, _ | None, Some p -> p
    | None, None -> 50.
  in
  { pct = p; value = percentile p xs; n; supported = n - rank p n >= 10 }

let tail_label t =
  Printf.sprintf "p%g of %d%s" t.pct t.n
    (if t.supported then "" else ", fewer than 10 beyond any percentile")

(* One open-loop request, timed from when it was due rather than when
   it was sent, so a late generator or a stalled daemon shows in the
   latency of every request it delays. *)
type request_times = {
  latency : float;  (** result received - due *)
  lag : float;      (** sent - due: how late the generator ran *)
  ack : float;      (** accepted - sent *)
  wait : float;     (** received - sent - execution *)
}

let request_times ~due ~sent ~acked ~received ~exec =
  {
    latency = received -. due;
    lag = sent -. due;
    ack = acked -. sent;
    wait = received -. sent -. exec;
  }
