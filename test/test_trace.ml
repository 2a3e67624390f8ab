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

(* Byte offset at which the [k]-th PTW packet (mod the PTW count) of
   [packets] starts, or the stream length when there is none. *)
let ptw_offset packets k =
  let ptws =
    List.length (List.filter (function Packet.Ptw _ -> true | _ -> false) packets)
  in
  let target = if ptws = 0 then -1 else k mod ptws in
  let rec go off i = function
    | [] -> off
    | (Packet.Ptw _ as p) :: rest ->
        if i = target then off else go (off + Packet.size p) (i + 1) rest
    | p :: rest -> go (off + Packet.size p) i rest
  in
  go 0 0 packets

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
      let stream = oracle_bytes packets in
      let len = Bytes.length stream in
      let cap = (if at_ptw then ptw_offset packets k else len) + d in
      let enc = Encoder.create ~ring_bytes:cap () in
      Encoder.start enc;
      List.iter
        (function
          | Br b -> Encoder.branch enc b
          | Ptw v -> Encoder.ptwrite enc v
          | Switch (tid, clock) -> Encoder.thread_switch enc ~tid ~clock)
        events;
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
                 events))

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
      ] );
  ]
