(** Persistent solver knowledge: an on-disk, per-job answer journal.

    A solver session's result cache dies with the session, so every
    fleet run, daemon restart and CI job re-pays the full solver cost
    from zero.  This module persists the *ordered journal* of answers a
    reconstruction's solver established — Sat models, Unsat verdicts,
    and budget stalls alike — so the next run of the same job replays
    them at zero search cost.  An entry holds an answer, the digest and
    budget it answered and the cost the cold run paid, nothing about the
    search itself: a warm session's variable numbering need not match
    the cold one's, so learned clauses and activities would not carry
    over.

    Replay is lock-step: at each result-cache miss the solver asks for
    the next journal entry, and it is used only if its structural digest
    and budget match the live query.  Replayed Sat/Unsat answers are
    stored into the session's result cache exactly where the cold run
    stored them, so later lookups hit identically; replayed stalls
    return their recorded reason verbatim.  This makes a warm run's
    trajectory byte-identical to the cold run's by construction — only
    the cost disappears.  Any mismatch permanently stops replay for the
    journal (the run continues with real solving) and the flush
    rewrites the journal from the divergence point: stale stores
    self-heal, never poison.

    Stores are versioned, fingerprinted (a digest of every knob that
    could change the query sequence) and checksummed; any mismatch or
    corruption yields a clean cold start.  Flushes are tmp-file +
    [Sys.rename], so concurrent writers to one cache directory are
    last-writer-wins and readers never observe torn files.

    One store file per job label lives under the cache directory; an
    attached journal is bound to the domain that attached it, and a job
    attaches, solves and detaches on one domain, so concurrent fleet
    jobs never share a journal. *)

val format_version : int

type answer =
  | Solved_unsat
  | Solved_sat of Model.t
  | Stalled of string  (** the stall reason, replayed verbatim *)

type entry = {
  en_hash : string;
      (** structural digest of the active formulas: their sorted
          printed forms, which name no term ids *)
  en_budget : int;     (** propagation budget of the check *)
  en_cost : int;       (** gates + propagations the cold run paid *)
  en_answer : answer;
}

(* --- attach / detach (job lifecycle) ---------------------------------- *)

type status =
  | Loaded of { entries : int; replayable_cost : int }
  | Cold of { reason : string option }
      (** [None]: no store file yet; [Some r]: a store existed but was
          rejected (version/fingerprint/checksum/parse) — the run
          proceeds cold and overwrites it at flush. *)

(** Bind a store to the calling domain, replacing any store attached
    there.  Call before any solving and detach on the same domain.
    [label] names the store file ([<dir>/<sanitized-label>.ercache]);
    [fingerprint] must digest every configuration knob that could alter
    the query sequence. *)
val attach : dir:string -> label:string -> fingerprint:string -> status

type flush_result = {
  fl_path : string;
  fl_entries : int;   (** entries in the final store *)
  fl_appended : int;  (** recorded fresh this run *)
  fl_replayed : int;
  fl_saved_cost : int;
  fl_wrote : bool;    (** the file was (re)written — journal changed *)
  fl_warnings : string list;
}

(** Unbind the calling domain's store and write the journal back if it
    changed (divergence or fresh records); [None] if nothing was
    attached.  A pure replay run leaves the file untouched — including
    its unconsumed tail, so an interrupted warm run cannot erase
    knowledge it did not get to use. *)
val detach_and_flush : unit -> flush_result option

(* --- solver-side hooks ------------------------------------------------- *)

type handle

(** The store attached on the calling domain, if any.  Captured once per
    {!Solver.Session}. *)
val current : unit -> handle option

(** The next journal answer together with its recorded cold cost, iff
    the run is still in lock-step with the journal (same structural
    digest, same budget, same position).  A mismatch permanently
    disables replay for this journal. *)
val replay : handle -> hash:string -> budget:int -> (answer * int) option

(** Append a freshly established answer to the journal (written back at
    {!detach_and_flush}). *)
val record : handle -> hash:string -> budget:int -> cost:int -> answer -> unit

(** Cold solver cost avoided by replay so far. *)
val saved_cost : handle -> int

(** Journal entries replayed so far. *)
val replayed : handle -> int

(* --- store internals, exposed for tests -------------------------------- *)

val store_path : dir:string -> label:string -> string
val render : fingerprint:string -> entry list -> string
val parse : fingerprint:string -> string -> (entry array, string) result
val entry_to_json : entry -> Er_json.t
val entry_of_json : Er_json.t -> entry option
