(* Tests for the PT-like trace substrate: packet encode/decode round
   trips, ring-buffer overwrite semantics, and randomized event-stream
   properties. *)

open Er_trace

let test_tnt_byte_roundtrip () =
  (* every TNT payload of 1..6 bits survives encode/decode *)
  for n = 1 to 6 do
    for bits = 0 to (1 lsl n) - 1 do
      let l = List.init n (fun i -> bits land (1 lsl (n - 1 - i)) <> 0) in
      let b = Packet.encode_tnt l in
      Alcotest.(check (list bool))
        (Printf.sprintf "tnt %d/%d" n bits)
        l (Packet.decode_tnt b)
    done
  done

let test_ring_overwrite () =
  let r = Ring.create 8 in
  for i = 0 to 11 do
    Ring.write_byte r i
  done;
  Alcotest.(check bool) "overflowed" true (Ring.overflowed r);
  Alcotest.(check int) "overwritten counts lost bytes" 4 (Ring.overwritten r);
  Alcotest.(check int) "wrapped once" 1 (Ring.wraps r);
  let c = Ring.contents r in
  Alcotest.(check int) "keeps capacity bytes" 8 (Bytes.length c);
  (* a ring that never filled loses nothing *)
  let r2 = Ring.create 8 in
  Ring.write_byte r2 1;
  Alcotest.(check int) "no loss before wrap" 0 (Ring.overwritten r2);
  Alcotest.(check int) "no wraps" 0 (Ring.wraps r2);
  Alcotest.(check int) "oldest live byte is 4" 4 (Char.code (Bytes.get c 0));
  Alcotest.(check int) "newest byte is 11" 11
    (Char.code (Bytes.get c (Bytes.length c - 1)))

let test_decoder_needs_psb () =
  let enc = Encoder.create () in
  (* no [start]: stream lacks the sync packet *)
  Encoder.branch enc true;
  match Decoder.decode (Encoder.finish enc) with
  | Error (Decoder.Lost_sync _) -> ()
  | Error (Decoder.Truncated _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "decoded without PSB"

let test_encode_decode_mixed () =
  let enc = Encoder.create () in
  Encoder.start enc;
  Encoder.branch enc true;
  Encoder.branch enc false;
  Encoder.ptwrite enc 0xDEADBEEFL;
  Encoder.branch enc true;
  Encoder.thread_switch enc ~tid:1 ~clock:500;
  Encoder.branch enc false;
  match Decoder.decode (Encoder.finish enc) with
  | Error e -> Alcotest.fail (Decoder.error_to_string e)
  | Ok events ->
      let s = Decoder.split events in
      Alcotest.(check (array bool)) "branches" [| true; false; true; false |]
        s.Decoder.branches;
      Alcotest.(check int) "one data value" 1 (Array.length s.Decoder.data);
      Alcotest.(check int64) "payload" 0xDEADBEEFL s.Decoder.data.(0);
      Alcotest.(check int) "one switch" 1 (Array.length s.Decoder.schedule);
      Alcotest.(check int) "tid" 1 (fst s.Decoder.schedule.(0))

let test_clock_widening () =
  (* MTC carries 16 bits; the decoder reconstructs a monotone clock *)
  let enc = Encoder.create () in
  Encoder.start enc;
  Encoder.thread_switch enc ~tid:1 ~clock:65_000;
  Encoder.thread_switch enc ~tid:0 ~clock:66_000;   (* wrapped low bits *)
  Encoder.thread_switch enc ~tid:1 ~clock:140_000;
  match Decoder.decode (Encoder.finish enc) with
  | Error e -> Alcotest.fail (Decoder.error_to_string e)
  | Ok events ->
      let s = Decoder.split events in
      let clocks = Array.map snd s.Decoder.schedule in
      Alcotest.(check bool) "monotone" true
        (clocks.(0) < clocks.(1) && clocks.(1) < clocks.(2))

let qcheck_stream_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (oneof
           [
             map (fun b -> `B b) bool;
             map (fun v -> `D (Int64.of_int v)) (int_bound 1_000_000);
           ]))
  in
  QCheck2.Test.make ~name:"random branch/data streams round trip" ~count:100
    gen
    (fun ops ->
       let enc = Encoder.create () in
       Encoder.start enc;
       List.iter
         (function
           | `B b -> Encoder.branch enc b
           | `D v -> Encoder.ptwrite enc v)
         ops;
       match Decoder.decode (Encoder.finish enc) with
       | Error _ -> false
       | Ok events ->
           let s = Decoder.split events in
           let want_b =
             List.filter_map (function `B b -> Some b | `D _ -> None) ops
           in
           let want_d =
             List.filter_map (function `D v -> Some v | `B _ -> None) ops
           in
           Array.to_list s.Decoder.branches = want_b
           && Array.to_list s.Decoder.data = want_d)

let test_stats_counting () =
  let enc = Encoder.create () in
  Encoder.start enc;
  for _ = 1 to 100 do
    Encoder.branch enc true
  done;
  ignore (Encoder.finish enc);
  let st = Encoder.stats enc in
  Alcotest.(check int) "branches" 100 st.Encoder.branches;
  (* 100 branches = 16 full TNT packets + 1 partial + PSB *)
  Alcotest.(check int) "packets" 18 st.Encoder.packets

(* --- direct ring writes vs the Packet oracle ----------------------------- *)

type event = Br of bool | Ptw of int64 | Switch of int * int

(* The packet sequence an encoder must emit for [events]:
   [Packet.append_bytes] of these packets is the byte oracle. *)
let oracle_packets events =
  let out = ref [ Packet.Psb ] and tnt = ref [] in
  let flush () =
    if !tnt <> [] then begin
      out := Packet.Tnt (List.rev !tnt) :: !out;
      tnt := []
    end
  in
  List.iter
    (function
      | Br b ->
          tnt := b :: !tnt;
          if List.length !tnt = Packet.max_tnt_bits then flush ()
      | Ptw v ->
          flush ();
          out := Packet.Ptw v :: !out
      | Switch (tid, clock) ->
          flush ();
          out := Packet.Mtc clock :: Packet.Tip tid :: !out)
    events;
  flush ();
  List.rev !out

let oracle_bytes packets =
  let buf = Buffer.create 64 in
  List.iter (Packet.append_bytes buf) packets;
  Buffer.to_bytes buf

let gen_event =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun b -> Br b) bool);
        ( 3,
          map
            (fun v -> Ptw v)
            (oneof
               [
                 oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ];
                 map Int64.of_int int;
                 ui64;
               ]) );
        ( 1,
          map2
            (fun tid clock -> Switch (tid, clock))
            (int_range 0 5) (int_bound 200_000) );
      ])

(* Byte offsets at which the PTW packets of [packets] start, in order. *)
let ptw_offsets packets =
  let rec go off acc = function
    | [] -> List.rev acc
    | p :: rest ->
        go (off + Packet.size p)
          (match p with Packet.Ptw _ -> off :: acc | _ -> acc)
          rest
  in
  go 0 [] packets

(* Byte offset at which the [k]-th PTW packet (mod the PTW count) of
   [packets] starts, or the stream length when there is none. *)
let ptw_offset packets k =
  match ptw_offsets packets with
  | [] -> List.fold_left (fun n p -> n + Packet.size p) 0 packets
  | offsets -> List.nth offsets (k mod List.length offsets)

(* Feed [events] to [enc] after its PSB. *)
let feed enc events =
  List.iter
    (function
      | Br b -> Encoder.branch enc b
      | Ptw v -> Encoder.ptwrite enc v
      | Switch (tid, clock) -> Encoder.thread_switch enc ~tid ~clock)
    events

(* A capture of [events] into a ring of [cap] bytes snapshots the last
   [cap] bytes of the oracle stream, counts what the oracle counts, and
   decodes back to [events] when nothing was lost. *)
let matches_oracle events cap =
  let packets = oracle_packets events in
  let stream = oracle_bytes packets in
  let len = Bytes.length stream in
  let enc = Encoder.create ~ring_bytes:cap () in
  Encoder.start enc;
  feed enc events;
  let snap = Encoder.finish enc in
  let keep = min len cap in
  let st = Encoder.stats enc in
  let count f = List.length (List.filter f events) in
  Bytes.equal snap (Bytes.sub stream (len - keep) keep)
  && st.Encoder.branches = count (function Br _ -> true | _ -> false)
  && st.Encoder.ptwrites = count (function Ptw _ -> true | _ -> false)
  && st.Encoder.switches = count (function Switch _ -> true | _ -> false)
  && st.Encoder.packets = List.length packets
  && st.Encoder.bytes = len
  && Encoder.overwritten enc = len - keep
  && (Encoder.overwritten enc > 0
     ||
     match Decoder.decode snap with
     | Error _ -> false
     | Ok decoded ->
         decoded
         = List.map
             (function
               | Br b -> Decoder.Branch b
               | Ptw v -> Decoder.Data v
               | Switch (tid, clock) ->
                   Decoder.Switch { tid; clock = clock land 0xFFFF })
             events)

(* The ring is sized so that either one PTW starts 0-9 bytes before the
   wrap point (its payload splits at every position, or lands exactly on
   the boundary), or the whole stream ends 0-9 bytes short of it.  The
   snapshot must be the last [capacity] bytes of the oracle stream. *)
let qcheck_encoder_bytes_oracle =
  let gen =
    QCheck2.Gen.(
      quad (list_size (int_range 0 60) gen_event) nat (int_range 0 9) bool)
  in
  QCheck2.Test.make ~name:"encoder ring bytes match the Packet oracle"
    ~count:500 gen (fun (events, k, d, at_ptw) ->
      let packets = oracle_packets events in
      let len = Bytes.length (oracle_bytes packets) in
      matches_oracle events ((if at_ptw then ptw_offset packets k else len) + d))

(* --- ring storage grown on demand --------------------------------------- *)

(* Words [f] allocates on this domain.  [Gc.minor_words] is exact; the
   minor count of [Gc.counters] is not in OCaml 5.1 (it divides the
   unflushed part of the minor heap by the word size twice), so only its
   promoted and major counts are used. *)
let allocated_words f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor = Gc.minor_words () and _, promoted, major = Gc.counters () in
  (r, int_of_float (minor -. minor0 +. (major -. major0) -. (promoted -. promoted0)))

let check_at_most what limit n =
  Alcotest.(check bool) (Printf.sprintf "%s: %d (<= %d)" what n limit) true
    (n <= limit)

(* The storage growth points up to 16 KiB of a ring whose capacity lies
   above them. *)
let growth_points =
  List.filter (fun g -> g <= 16_384)
    (List.init 4 (fun k -> Ring.first_chunk lsl k))

let oracle_length events = Bytes.length (oracle_bytes (oracle_packets events))

(* Events that, appended to [events], put a PTW of [v] at byte offset
   [target] >= the oracle length of [events]: nine-byte PTWs, then
   one-byte full TNT packets, fill the gap. *)
let ptw_at events target v =
  let gap = target - oracle_length events in
  events
  @ List.init (gap / 9) (fun i -> Ptw (Int64.of_int (i * 0x0101_0101)))
  @ List.init (Packet.max_tnt_bits * (gap mod 9)) (fun i -> Br (i mod 3 = 0))
  @ [ Ptw v ]

let gen_growth_case =
  QCheck2.Gen.(
    let* prefix = list_size (int_range 0 40) gen_event in
    let* g = oneofl growth_points and* j = int_range 0 9 in
    let* v = ui64 and* suffix = list_size (int_range 0 40) gen_event in
    let events = ptw_at prefix (g - j) v @ suffix in
    let len = oracle_length events in
    let* d = int_range (-9) 9 in
    let* base = oneofl (len :: growth_points) in
    return (events, g - j, base + d))

(* Streams of several KB with a PTW starting 0-9 bytes before a growth
   point (so it starts on it, straddles it at every offset or ends
   exactly on it), captured into rings whose capacity
   sits 0-9 bytes either side of a growth point or of the stream length:
   growth clamps to any capacity, and the bytes, counts and decode
   match the oracle exactly as for a ring that never grows. *)
let qcheck_encoder_growth_oracle =
  QCheck2.Test.make ~name:"grown ring matches the Packet oracle" ~count:300
    gen_growth_case (fun (events, at, cap) ->
      (List.mem at (ptw_offsets (oracle_packets events))
      || QCheck2.Test.fail_reportf "no PTW at byte %d" at)
      && matches_oracle events cap)

(* An encoder whose ring already spans its whole capacity: one capture
   that fills it, then [reset], which keeps the storage. *)
let pregrown cap =
  let enc = Encoder.create ~ring_bytes:cap () in
  while (Encoder.stats enc).Encoder.bytes < cap do
    Encoder.ptwrite enc 0L
  done;
  Encoder.reset enc;
  enc

(* A checkpoint taken before growth and reverted after it: [can_revert],
   [revert] and everything the capture reports afterwards agree with a
   ring that held its whole capacity from the start, and the snapshot is
   the oracle stream of what the revert kept. *)
let qcheck_revert_across_growth =
  let gen =
    QCheck2.Gen.(
      let* before = list_size (int_range 0 40) gen_event in
      let* grow = int_range 0 20_000 and* v = ui64 in
      let* middle = list_size (int_range 0 40) gen_event in
      let* after = list_size (int_range 0 40) gen_event in
      let between = ptw_at middle (oracle_length middle + grow) v in
      let len = oracle_length (before @ between) in
      let* cap = oneof [ int_range 1 24_000; map (( + ) len) (int_range (-9) 9) ] in
      return (before, between, after, cap))
  in
  QCheck2.Test.make ~name:"revert across growth agrees with a full ring"
    ~count:300 gen (fun (before, between, after, cap) ->
      let run enc =
        Encoder.start enc;
        feed enc before;
        let ck = Encoder.checkpoint enc in
        feed enc between;
        let can = Encoder.can_revert enc ck in
        let did = Encoder.revert enc ck in
        feed enc after;
        let snap = Encoder.finish enc in
        let st = Encoder.stats enc in
        ( (can, did),
          (snap, Encoder.overwritten enc, Encoder.wraps enc),
          (st.Encoder.branches, st.Encoder.ptwrites, st.Encoder.switches,
           st.Encoder.packets, st.Encoder.bytes) )
      in
      let (_, did), (snap, _, _), _ as grown =
        run (Encoder.create ~ring_bytes:cap ())
      in
      let kept = if did then before @ after else before @ between @ after in
      let stream = oracle_bytes (oracle_packets kept) in
      let keep = min cap (Bytes.length stream) in
      grown = run (pregrown cap)
      && Bytes.equal snap
           (Bytes.sub stream (Bytes.length stream - keep) keep))

(* Storage starts at [first_chunk] (exactly the capacity below it),
   doubles up to the capacity as the head reaches its end, and a
   cleared ring keeps it. *)
let test_ring_storage_grows () =
  List.iter
    (fun cap ->
       let r = Ring.create cap in
       Alcotest.(check int)
         (Printf.sprintf "cap %d: first chunk" cap)
         (min cap Ring.first_chunk) (Bytes.length r.Ring.data);
       for i = 1 to cap + 3 do
         Ring.write_byte r i
       done;
       Alcotest.(check int)
         (Printf.sprintf "cap %d: storage spans the capacity" cap)
         cap (Bytes.length r.Ring.data);
       let storage = r.Ring.data in
       Ring.clear r;
       for i = 1 to cap do
         Ring.write_byte r i
       done;
       Alcotest.(check bool)
         (Printf.sprintf "cap %d: a cleared ring does not regrow" cap)
         true (r.Ring.data == storage))
    [ 1; 100; Ring.first_chunk - 1; Ring.first_chunk; Ring.first_chunk + 1;
      (3 * Ring.first_chunk) + 7; 4 * Ring.first_chunk ]

(* A fresh encoder allocates its first chunk, not its capacity: the
   default 4 MiB ring costs a job a few KB until its trace needs more. *)
let test_encoder_create_allocation () =
  let enc, words = allocated_words (fun () -> Encoder.create ()) in
  ignore (Sys.opaque_identity enc);
  check_at_most "Encoder.create () bytes" 65_536 (words * (Sys.word_size / 8))

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "TNT byte round trip" `Quick test_tnt_byte_roundtrip;
        Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
        Alcotest.test_case "decoder requires PSB" `Quick test_decoder_needs_psb;
        Alcotest.test_case "mixed stream decode" `Quick test_encode_decode_mixed;
        Alcotest.test_case "MTC clock widening" `Quick test_clock_widening;
        Alcotest.test_case "encoder stats" `Quick test_stats_counting;
        QCheck_alcotest.to_alcotest qcheck_stream_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_encoder_bytes_oracle;
        Alcotest.test_case "ring storage grows to its capacity" `Quick
          test_ring_storage_grows;
        Alcotest.test_case "Encoder.create allocates a first chunk" `Quick
          test_encoder_create_allocation;
        QCheck_alcotest.to_alcotest qcheck_encoder_growth_oracle;
        QCheck_alcotest.to_alcotest qcheck_revert_across_growth;
      ] );
  ]
