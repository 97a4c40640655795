(** The single-heap filtering algorithm (Sections 3.3–5).

    One min-heap merges the inverted lists of every document token position,
    streaming each entity's complete, sorted position list off the heap
    while scanning every inverted list exactly once. Occurrence counting /
    candidate generation then runs at one of four pruning levels
    ({!Types.pruning}); [Binary_window] is the full Faerie filter.

    Entities on the {!Problem.Fallback} or {!Problem.Impossible} paths are
    ignored here — {!Fallback.run} completes the answer. *)

val run :
  ?pruning:Types.pruning ->
  ?verifier:Faerie_sim.Verify.verifier ->
  Problem.t ->
  Faerie_tokenize.Document.t ->
  Types.token_match list * Types.stats
(** [run ?pruning ?verifier problem doc] returns the verified matches
    (deduplicated, sorted by (entity, start, len)) and filtering
    statistics. Default pruning is [Binary_window]; [verifier] selects the
    edit-distance engine for character-based verification (default
    [Auto]). *)

type report = {
  matches : Types.token_match list;
      (** verified matches, deduplicated, sorted by (entity, start, len) *)
  stats : Types.stats;  (** filtering statistics for this run *)
  exhausted : Budget.exhaustion option;
      (** [Some _] when a budget limit tripped and [matches] is a sound
          subset of the full result set (never a superset) *)
}

val run_budgeted :
  ?pruning:Types.pruning ->
  ?budget:Budget.t ->
  ?verifier:Faerie_sim.Verify.verifier ->
  Problem.t ->
  Faerie_tokenize.Document.t ->
  report
(** Like {!run}, but charges the filter loop (one candidate per emitted
    candidate, one deadline tick per entity and per verification) against
    [budget]. If a limit trips, filtering/verification stops early and the
    matches verified so far are returned in {!report.matches} together with
    the exhaustion reason. *)

val candidates :
  pruning:Types.pruning ->
  Problem.t ->
  Faerie_tokenize.Document.t ->
  Types.candidate list * Types.stats
(** Filter only — the deduplicated surviving substring–entity pairs, before
    verification. Exposed for testing and for the Fig. 14 candidate-count
    experiment. *)
