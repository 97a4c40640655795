(** The [faerie serve] request loop, over a pluggable serving backend.

    {!run} owns everything that does not depend on where extraction
    runs: the EINTR/EPIPE-hardened NDJSON reader and writer, reload
    triggers (SIGHUP, [--index] mtime), the stats ticker, admin dispatch,
    the WAL, the [--index] save after [compact], slow-query capture, SLO
    assessment and the summary line. A {!backend} — {!local} or
    {!cluster} — runs the extraction. One contract holds for both:
    responses in request order (a reorder buffer holds early finishers
    back), matches in {!Types.compare_span} order, and every document
    sees exactly the mutations before it in the stream ([barrier] runs
    before [dict_add], [dict_remove], [compact] and every reload). So
    [--shards 0], [1] and [N] write the same bytes for the same stream,
    except [health]'s shard array, [uptime_s] and [max_rss_bytes].
    DESIGN.md §4d has the full contract. *)

type config = {
  sim : Faerie_sim.Sim.t;
  q : int;
  source : Problem.source;
      (** an [Index] is also the mtime reload trigger and the durable
          target of [compact] *)
  pruning : Types.pruning;
  pool : Supervisor.config;
      (** worker pool; a cluster runs one per shard and also uses
          [pool.retry] for its cross-shard retries *)
  timeout_ms : int option;  (** default per-document budget *)
  max_doc_bytes : int option;  (** chunked-extraction threshold *)
  shards : int;  (** [0]: {!local}; [N > 0]: {!cluster} with N shards *)
  shard_timeout_ms : int option;
  metrics_format : [ `Jsonl | `Prometheus ];
  stats_interval_s : int;  (** [0] disables the stderr ticker *)
  trace_sample_rate : float;
  trace_seed : int;
  slow_ms : float option;
  slowlog : string option;
  slowlog_k : int;
  slo : Faerie_obs.Slo.objective;
  wal : string option;
  inject : Faerie_util.Fault.config option;
      (** fault campaign armed for the whole session (testing hook) *)
}

type timing = { wall_ns : float; stages_ns : (string * float) list }
(** Wall time and per-stage breakdown of one document, for the slowlog. *)

type backend = {
  submit :
    ord:int ->
    id:string option ->
    timeout_ms:int option ->
    trace:int ->
    string ->
    on_done:(Parallel.outcome -> timing option -> unit) ->
    unit;
      (** Start one document ([ord] is its arrival ordinal, [trace] its
          sampling trace id or [0]). [on_done] fires exactly once, with
          matches in span order and [Some] timing when slow-query capture
          is armed — possibly on another domain, possibly before
          [submit] returns. *)
  barrier : unit -> unit;  (** wait until every submitted document is done *)
  stats : unit -> Faerie_obs.Metrics.snapshot * int list;
      (** merged metrics snapshot and the shards missing from it *)
  health : unit -> string * Serve_proto.shard_health list;
  dict_add : string -> [ `Added of int | `Exists of int ];
  dict_remove : string -> [ `Removed of int | `Absent ];
      (** in-memory mutation; the loop has already made it durable *)
  compact : unit -> (int * int, string) result;
      (** fold pending mutations into a new generation: [(gen, folded)] *)
  reload : unit -> (int, string) result;
      (** re-read {!source} as a new generation, dropping pending
          mutations (the loop re-applies the WAL) *)
  generation : unit -> int;
  live_count : unit -> int;
  snapshot : unit -> Problem.t;
      (** the live dictionary as a problem [Faerie_index.Codec.save] can
          write *)
  close : unit -> Faerie_obs.Metrics.snapshot * (string * int) list;
      (** drain and stop; the final metrics and any extra integer
          summary fields *)
}

val local : config -> backend
(** In-process serving: a {!Supervisor} pool over a
    {!Faerie_index.Delta} overlay of the source dictionary. Mutations
    republish the extractor lazily, at the next submit. *)

val cluster : config -> backend
(** [config.shards] forked shard processes behind {!Cluster}. [submit]
    blocks and calls [on_done] before returning. Must be created while
    the calling process runs a single domain. *)

val run : ?input:Unix.file_descr -> ?output:Unix.file_descr -> config -> int
(** Serve requests from [input] (default stdin) to [output] (default
    stdout) until end of input or until the client closes [output], then
    print the summary line to stderr and return the exit code ([0]).
    Installs process-wide SIGPIPE, SIGHUP and (with a ticker) SIGALRM
    handlers. Picks {!cluster} when [config.shards > 0], else {!local}.
    @raise Faerie_index.Codec.Corrupt and friends when the source or the
    WAL cannot be loaded at startup. *)
