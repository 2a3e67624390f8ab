(* Persistent solver knowledge: an on-disk answer journal per interning
   space.

   The in-memory result cache ({!Solver.Cache}) dies with the process,
   so every fleet run, daemon restart and CI job re-pays the full solver
   cost from zero.  This module persists what a reconstruction's solver
   actually established — in the order it established it — so the next
   run of the same job *replays* those answers instead of re-searching.

   Why a journal and not a bag of entries: warm-vs-cold trajectory
   identity.  The in-memory cache has temporal semantics (a query asked
   at time t can only hit entries stored before t, and [Unknown] is a
   property of the solver state at t, not of the formula).  Replaying
   the journal at each in-memory cache *miss* — and storing each
   replayed Sat/Unsat into the in-memory cache exactly where the
   original solve stored it — rebuilds the cold run's cache evolution
   step by step, so every later lookup (exact, subset, superset) answers
   identically.  Stalls are replayed too: the journal records "this
   query, at this budget, stalled with this reason", which is exactly
   what the warm run must answer to keep the ER iteration trajectory
   byte-identical while paying none of the cost.

   An entry is matched by its position in the journal, its budget and a
   structural digest of the active formulas (their sorted printed
   forms), which a deterministic client reproduces across processes.
   Term ids are no part of the match: they count every term interned so
   far, and a warm run that skips an encode interns fewer, so the same
   formulas can carry different ids.  A mismatch during replay (the
   program, the corpus or a budget changed under an unchanged label)
   permanently stops replay for the space — the run continues with real
   solving and the flush rewrites the journal from the divergence point,
   so a stale store self-heals instead of poisoning trajectories.

   File format (one file per label under the cache dir):

     er-smt-cache v<version> fp=<md5 of fingerprint> md5=<md5 of payload>
     <payload: one JSON document>

   The version gate, the fingerprint (a digest of every knob that could
   change the query sequence) and the checksum each independently force
   a clean cold start — a corrupt or mismatched store is never trusted.
   Flushes write a tmp file in the same directory and [Sys.rename] it
   into place, so concurrent writers to one cache dir are last-writer-
   wins and a reader never observes a torn file. *)

module J = Er_json

let format_version = 3
let magic = "er-smt-cache"

(* --- journal entries --------------------------------------------------- *)

type answer =
  | Solved_unsat
  | Solved_sat of Model.t
  | Stalled of string           (* the stall reason, replayed verbatim *)

type entry = {
  en_hash : string;             (* structural digest of the active set *)
  en_budget : int;              (* propagation budget of the check *)
  en_cost : int;                (* gates + propagations the cold run paid *)
  en_answer : answer;
}

(* --- JSON codec -------------------------------------------------------- *)

(* int64 model values can exceed OCaml's 63-bit [int], so they are
   serialized as decimal strings. *)

let model_to_json (m : Model.t) =
  let values =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.Model.values []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, v) -> J.List [ J.Str k; J.Str (Int64.to_string v) ])
  in
  let points =
    Hashtbl.fold (fun k pts acc -> (k, pts) :: acc) m.Model.array_points []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, pts) ->
           J.List
             [ J.Str k;
               J.List
                 (List.map
                    (fun (i, e) ->
                      J.List
                        [ J.Str (Int64.to_string i);
                          J.Str (Int64.to_string e) ])
                    pts) ])
  in
  [ ("v", J.List values); ("p", J.List points) ]

let model_of_json j =
  let ( let* ) = Option.bind in
  let* values = Option.bind (J.member "v" j) J.to_list in
  let* points = Option.bind (J.member "p" j) J.to_list in
  let m = Model.empty () in
  let* () =
    List.fold_left
      (fun acc el ->
        let* () = acc in
        match el with
        | J.List [ J.Str k; J.Str v ] -> (
            match Int64.of_string_opt v with
            | Some v ->
                Model.set m k v;
                Some ()
            | None -> None)
        | _ -> None)
      (Some ()) values
  in
  let* () =
    List.fold_left
      (fun acc el ->
        let* () = acc in
        match el with
        | J.List [ J.Str k; J.List pts ] ->
            List.fold_left
              (fun acc p ->
                let* () = acc in
                match p with
                | J.List [ J.Str i; J.Str e ] -> (
                    match (Int64.of_string_opt i, Int64.of_string_opt e) with
                    | Some i, Some e ->
                        (* replay points oldest-first so the rebuilt
                           per-array lists match the original order *)
                        Model.add_array_point m k ~index:i ~elt:e;
                        Some ()
                    | _ -> None)
                | _ -> None)
              (Some ()) (List.rev pts)
        | _ -> None)
      (Some ()) points
  in
  Some m

let entry_to_json (e : entry) : J.t =
  let base =
    [ ("h", J.Str e.en_hash); ("b", J.Int e.en_budget);
      ("c", J.Int e.en_cost) ]
  in
  match e.en_answer with
  | Solved_unsat -> J.Obj (("a", J.Str "unsat") :: base)
  | Solved_sat m -> J.Obj ((("a", J.Str "sat") :: base) @ model_to_json m)
  | Stalled reason ->
      J.Obj ((("a", J.Str "stall") :: base) @ [ ("r", J.Str reason) ])

let entry_of_json (j : J.t) : entry option =
  let ( let* ) = Option.bind in
  let* hash = Option.bind (J.member "h" j) J.to_str in
  let* budget = Option.bind (J.member "b" j) J.to_int in
  let* cost = Option.bind (J.member "c" j) J.to_int in
  let* answer =
    match Option.bind (J.member "a" j) J.to_str with
    | Some "unsat" -> Some Solved_unsat
    | Some "sat" ->
        let* m = model_of_json j in
        Some (Solved_sat m)
    | Some "stall" ->
        let* r = Option.bind (J.member "r" j) J.to_str in
        Some (Stalled r)
    | _ -> None
  in
  Some { en_hash = hash; en_budget = budget; en_cost = cost; en_answer = answer }

(* --- file I/O ---------------------------------------------------------- *)

let sanitize_label label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    label

let store_path ~dir ~label =
  Filename.concat dir (sanitize_label label ^ ".ercache")

let payload_to_string ~fingerprint entries =
  J.to_string
    (J.Obj
       [ ("version", J.Int format_version);
         ("fingerprint", J.Str fingerprint);
         ("entries", J.List (List.map entry_to_json entries)) ])

let render ~fingerprint entries =
  let payload = payload_to_string ~fingerprint entries in
  Printf.sprintf "%s v%d fp=%s md5=%s\n%s" magic format_version
    (Digest.to_hex (Digest.string fingerprint))
    (Digest.to_hex (Digest.string payload))
    payload

(* Parse a store file's bytes.  Every failure mode is a [Error reason]
   — the caller falls back to a cold start and reports the reason. *)
let parse ~fingerprint (contents : string) : (entry array, string) result =
  match String.index_opt contents '\n' with
  | None -> Error "truncated store: no header line"
  | Some nl -> (
      let header = String.sub contents 0 nl in
      let payload =
        String.sub contents (nl + 1) (String.length contents - nl - 1)
      in
      match String.split_on_char ' ' header with
      | [ m; v; fp; md5 ] -> (
          if not (String.equal m magic) then Error "bad magic"
          else if not (String.equal v (Printf.sprintf "v%d" format_version))
          then Error (Printf.sprintf "version mismatch (%s, want v%d)" v format_version)
          else if
            not
              (String.equal fp
                 ("fp=" ^ Digest.to_hex (Digest.string fingerprint)))
          then Error "fingerprint mismatch (config changed)"
          else if
            not
              (String.equal md5
                 ("md5=" ^ Digest.to_hex (Digest.string payload)))
          then Error "checksum mismatch (corrupt or torn store)"
          else
            match J.parse payload with
            | None -> Error "unparseable payload"
            | Some doc -> (
                match
                  ( Option.bind (J.member "version" doc) J.to_int,
                    Option.bind (J.member "fingerprint" doc) J.to_str,
                    Option.bind (J.member "entries" doc) J.to_list )
                with
                | Some v, Some fpr, Some entries
                  when v = format_version && String.equal fpr fingerprint -> (
                    let decoded = List.map entry_of_json entries in
                    if List.exists Option.is_none decoded then
                      Error "undecodable entry"
                    else
                      Ok
                        (Array.of_list
                           (List.map Option.get decoded)))
                | _ -> Error "payload header mismatch"))
      | _ -> Error "malformed header")

let tmp_counter = Atomic.make 0

let write_atomically path contents =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

(* --- per-space slots --------------------------------------------------- *)

type slot = {
  sl_mutex : Mutex.t;
  sl_path : string;
  sl_fingerprint : string;
  sl_replay : entry array;          (* the loaded journal *)
  mutable sl_cursor : int;
  mutable sl_diverged : bool;       (* replay stopped; journal rewrites *)
  mutable sl_fresh : entry list;    (* newly recorded, newest first *)
  mutable sl_replayed : int;
  mutable sl_saved_cost : int;      (* cold cost of replayed entries *)
  mutable sl_warnings : string list;
}

(* space stamp -> slot, same discipline as {!Solver.Cache.shards} *)
let slots : (int, slot) Hashtbl.t = Hashtbl.create 16
let slots_mutex = Mutex.create ()

type handle = slot

let current () : handle option =
  let stamp = Expr.space_stamp () in
  Mutex.lock slots_mutex;
  let s = Hashtbl.find_opt slots stamp in
  Mutex.unlock slots_mutex;
  s

type status =
  | Loaded of { entries : int; replayable_cost : int }
  | Cold of { reason : string option }
      (** [None]: no store file yet; [Some r]: a store existed but was
          rejected — the run proceeds cold and overwrites it at flush. *)

let attach ~dir ~label ~fingerprint : status =
  let path = store_path ~dir ~label in
  let loaded, status =
    if not (Sys.file_exists path) then ([||], Cold { reason = None })
    else
      let contents =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> Ok (really_input_string ic (in_channel_length ic)))
        with Sys_error m -> Error m
      in
      match Result.bind contents (parse ~fingerprint) with
      | Ok entries ->
          let cost =
            Array.fold_left (fun a e -> a + e.en_cost) 0 entries
          in
          (entries, Loaded { entries = Array.length entries; replayable_cost = cost })
      | Error reason -> ([||], Cold { reason = Some reason })
  in
  let slot =
    {
      sl_mutex = Mutex.create ();
      sl_path = path;
      sl_fingerprint = fingerprint;
      sl_replay = loaded;
      sl_cursor = 0;
      sl_diverged = false;
      sl_fresh = [];
      sl_replayed = 0;
      sl_saved_cost = 0;
      sl_warnings =
        (match status with
        | Cold { reason = Some r } ->
            [ Printf.sprintf "stale store rejected (%s): cold start" r ]
        | _ -> []);
    }
  in
  let stamp = Expr.space_stamp () in
  Mutex.lock slots_mutex;
  Hashtbl.replace slots stamp slot;
  Mutex.unlock slots_mutex;
  status

(* --- solver-side hooks ------------------------------------------------- *)

let locked sl f =
  Mutex.lock sl.sl_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sl.sl_mutex) f

(* The next journal answer, iff the run is still in lock-step with the
   recorded one: same structural digest and same budget, at the same
   position.  A mismatch permanently disables replay for the space (the
   journal tail is rewritten from here at flush). *)
let replay (sl : handle) ~hash ~budget : (answer * int) option =
  locked sl @@ fun () ->
  if sl.sl_diverged || sl.sl_cursor >= Array.length sl.sl_replay then None
  else
    let e = sl.sl_replay.(sl.sl_cursor) in
    if e.en_budget = budget && String.equal e.en_hash hash then begin
      sl.sl_cursor <- sl.sl_cursor + 1;
      sl.sl_replayed <- sl.sl_replayed + 1;
      sl.sl_saved_cost <- sl.sl_saved_cost + e.en_cost;
      Some (e.en_answer, e.en_cost)
    end
    else begin
      sl.sl_diverged <- true;
      sl.sl_warnings <-
        Printf.sprintf
          "journal diverged at entry %d: replay disabled, store will be \
           rewritten"
          sl.sl_cursor
        :: sl.sl_warnings;
      None
    end

let record (sl : handle) ~hash ~budget ~cost answer : unit =
  locked sl @@ fun () ->
  sl.sl_fresh <-
    { en_hash = hash; en_budget = budget; en_cost = cost; en_answer = answer }
    :: sl.sl_fresh

let saved_cost (sl : handle) = locked sl @@ fun () -> sl.sl_saved_cost
let replayed (sl : handle) = locked sl @@ fun () -> sl.sl_replayed

(* --- flush ------------------------------------------------------------- *)

type flush_result = {
  fl_path : string;
  fl_entries : int;     (* entries in the final store *)
  fl_appended : int;    (* recorded fresh this run *)
  fl_replayed : int;
  fl_saved_cost : int;
  fl_wrote : bool;      (* a flush happened (journal changed) *)
  fl_warnings : string list;
}

(* Detach the current space's slot and write the journal back if it
   changed.  Final contents: the consumed (still-valid) prefix of the
   loaded journal, then everything recorded fresh this run.  A run that
   replayed a prefix and recorded nothing keeps the store untouched —
   including its unconsumed tail, so an interrupted warm run cannot
   erase knowledge it did not get to use. *)
let detach_and_flush () : flush_result option =
  let stamp = Expr.space_stamp () in
  Mutex.lock slots_mutex;
  let slot = Hashtbl.find_opt slots stamp in
  Hashtbl.remove slots stamp;
  Mutex.unlock slots_mutex;
  match slot with
  | None -> None
  | Some sl ->
      locked sl @@ fun () ->
      let fresh = List.rev sl.sl_fresh in
      let dirty = sl.sl_diverged || fresh <> [] in
      let entries =
        if not dirty then Array.to_list sl.sl_replay
        else
          Array.to_list (Array.sub sl.sl_replay 0 sl.sl_cursor) @ fresh
      in
      let wrote =
        if dirty then begin
          (try
             write_atomically sl.sl_path
               (render ~fingerprint:sl.sl_fingerprint entries)
           with Sys_error m ->
             sl.sl_warnings <-
               Printf.sprintf "flush failed: %s" m :: sl.sl_warnings);
          true
        end
        else false
      in
      Some
        {
          fl_path = sl.sl_path;
          fl_entries = List.length entries;
          fl_appended = List.length fresh;
          fl_replayed = sl.sl_replayed;
          fl_saved_cost = sl.sl_saved_cost;
          fl_wrote = wrote;
          fl_warnings = List.rev sl.sl_warnings;
        }
