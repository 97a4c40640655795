(** Memory/self-profiling: GC telemetry and flame profiles.

    Two halves share this module. {e GC telemetry} captures
    [Gc.quick_stat] deltas around instrumented pipeline stages and around
    each document in [Extractor.run], and publishes them through
    {!Metrics} (so they inherit shard merging, suppression and the
    export formats). {e Flame profiles} fold a drained {!Trace} span list
    into Brendan-Gregg folded-stack frames with self-time attribution.

    Profiling is off by default, with the same discipline as Trace and
    Explain: a disabled {!with_stage}/{!with_doc} is exactly one atomic
    flag check plus the call to the wrapped function — zero
    [Gc.quick_stat] calls (asserted by [test_obs] via {!captures}).

    Published metrics, all on the default registry:
    - [gc_minor_words], [gc_promoted_words], [gc_major_collections] —
      counters, per-document deltas summed (from {!with_doc});
    - [gc_minor_words_STAGE], [gc_promoted_words_STAGE] for each stage —
      counters, per-stage deltas (from {!with_stage}). Stage deltas are
      {e inclusive}: a stage nested inside another (windows inside a heap
      merge) counts toward both;
    - [gc_top_heap_bytes] — [`Max] gauge, largest heap watermark seen by
      any domain;
    - [doc_alloc_words] — histogram of words allocated per document
      (minor + major - promoted), the input to allocation percentiles in
      bench snapshots. *)

type stage = Tokenize | Heap_merge | Windows | Verify

val stage_name : stage -> string
(** Lowercase metric suffix: ["tokenize"], ["heap_merge"], ["windows"],
    ["verify"]. *)

val enable : unit -> unit

val disable : unit -> unit

val enabled : unit -> bool

val captures : unit -> int
(** Number of GC captures ([Gc.quick_stat] or [Gc.counters]) taken since
    process start. Test hook for the disabled-overhead contract: an
    extraction run with profiling disabled must leave this unchanged. *)

val with_stage : stage -> (unit -> 'a) -> 'a
(** Run the function, attributing its GC deltas to [stage]. Records on
    exceptional exit too; always re-raises. *)

val with_doc : (unit -> 'a) -> 'a
(** Run one document's extraction, recording total GC deltas, the
    allocated-words histogram observation and the heap watermark. *)

val max_rss_bytes : unit -> int
(** The process's peak resident set size in bytes — Linux [VmHWM] from
    [/proc/self/status] (the counter [getrusage]'s [ru_maxrss] reads);
    [0] where procfs is unavailable. *)

val note_rss : unit -> unit
(** Record {!max_rss_bytes} into the [`Max]-agg [max_rss_bytes] gauge.
    Not gated on {!enabled}: the serve path samples it at stats and
    health time, so merged snapshots carry the cluster-wide high-water
    mark like [gc_top_heap_bytes]. *)

(** {1 Flame profiles} *)

type frame = {
  stack : string list;  (** outermost-first span names *)
  self_ns : int64;  (** duration minus children's durations; may be
                        negative if child spans overlap pathologically *)
  calls : int;  (** spans aggregated into this frame *)
}

val flame_of_spans : Trace.span list -> frame list
(** Fold a {!Trace.drain} result into frames. Nesting is reconstructed
    per domain from span [depth] and interval containment; identical
    stacks from different domains merge. Frames are sorted by stack. *)

val to_folded : frame list -> string
(** Brendan-Gregg folded-stack lines, ["a;b;c SELF_NS\n"], one per frame
    with positive self time (schema locked by [test_obs]). Feed to
    flamegraph.pl or speedscope. *)

val render_top : ?top:int -> frame list -> string
(** Human table of the [top] (default 10) frames by self time. *)
