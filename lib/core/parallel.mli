(** The per-document outcome every extraction surface reports.

    Batch and served extraction both run through {!Supervisor} (the one
    domain pool); this module only fixes the shape of a finished document
    — character matches under an {!Outcome.t} — and the projection from an
    {!Extractor.report} to it. *)

type outcome = Types.char_match list Outcome.t

val outcome_of_report : Extractor.report -> outcome
(** Project an {!Extractor.report} down to its outcome, discarding stats:
    results become character matches sorted by
    {!Types.compare_char_match}. {!Supervisor} applies it to every
    attempt; single-document callers apply it to {!Extractor.run}. *)
