(* In-memory spans recorded by the benchmark around its calls into the
   program's layers (never inside them), written once at exit as
   Chrome trace-event JSON.

   A span has a layer name, start and end (monotonic seconds), the span
   that was open when it started, and the job or request it belongs
   to.  [inner] carries child time that is known only from the
   program's own counters (e.g. SMT query seconds inside a symex call):
   it is credited to the named layer and taken out of the span's self
   time, exactly as a child span would be. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0: no parent *)
  job : string;
  tid : int;     (** track in the rendered trace *)
  inner : (string * float) list;
  args : (string * float) list;  (** counter deltas, rendered as args *)
}

let recording = ref false
let spans : span list ref = ref []
let open_ : int list ref = ref []
let next_id = ref 0

let reset () =
  spans := [];
  open_ := [];
  next_id := 0

let fresh_id () =
  incr next_id;
  !next_id

(* Record a span timed elsewhere (e.g. a request's send/ack/result,
   whose ends are seen by the generator's event loop). *)
let add ?(parent = 0) ?(job = "") ?(tid = 1) ?(inner = []) ?(args = []) name
    ~start ~stop =
  if !recording then begin
    let id = fresh_id () in
    spans := { id; name; start; stop; parent; job; tid; inner; args } :: !spans;
    id
  end
  else 0

(* Time [f] as a span nested under whichever span is open.  [measure]
   is called before [f]; the closure it returns is called after [f] and
   yields the span's inner layer times and counter deltas. *)
let with_span ?(job = "") ?measure name f =
  if not !recording then f ()
  else begin
    let id = fresh_id () in
    let parent = match !open_ with p :: _ -> p | [] -> 0 in
    open_ := id :: !open_;
    let after =
      match measure with Some m -> m () | None -> fun () -> ([], [])
    in
    let start = Stats.now () in
    let close () =
      let stop = Stats.now () in
      let inner, args = after () in
      open_ := List.tl !open_;
      spans :=
        { id; name; start; stop; parent; job; tid = 1; inner; args } :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
         let a = Float.max a lo and b = Float.min b hi in
         if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None sorted

(* Self time of every span: its duration minus the part of it that its
   child spans cover, minus its inner (counter-attributed) time. *)
let self_times (all : span list) : (span * float) list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent <> 0 then
         Hashtbl.replace children s.parent
           ((s.start, s.stop)
            :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    all;
  List.map
    (fun s ->
       let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
       let inner = List.fold_left (fun a (_, t) -> a +. t) 0. s.inner in
       (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids -. inner))
    all

(* Self seconds per layer, inner layers included, in first-seen order. *)
let by_layer (all : span list) : (string * float) list =
  let tbl = Hashtbl.create 16 and order = ref [] in
  let credit name t =
    (match Hashtbl.find_opt tbl name with
     | None ->
         order := name :: !order;
         Hashtbl.replace tbl name t
     | Some v -> Hashtbl.replace tbl name (v +. t))
  in
  List.iter
    (fun (s, self) ->
       credit s.name self;
       List.iter (fun (n, t) -> credit n t) s.inner)
    (self_times (List.rev all));
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let write_chrome path =
  let oc = open_out_bin path in
  let t0 =
    List.fold_left (fun m s -> Float.min m s.start) infinity !spans
  in
  let us t = Int64.to_string (Int64.of_float ((t -. t0) *. 1e6)) in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
       if i > 0 then output_string oc ",\n";
       let args =
         ("id", Er_json.Int s.id) :: ("parent", Er_json.Int s.parent)
         :: ("job", Er_json.Str s.job)
         :: List.map (fun (k, v) -> (k, Er_json.Float v)) (s.inner @ s.args)
       in
       Printf.fprintf oc
         "{\"name\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":%s}"
         (Er_json.to_string (Er_json.Str s.name))
         (us s.start)
         (Int64.to_string (Int64.of_float ((s.stop -. s.start) *. 1e6)))
         s.tid
         (Er_json.to_string (Er_json.Obj args)))
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
