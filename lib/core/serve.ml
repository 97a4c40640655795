module Ix = Faerie_index
module Fault = Faerie_util.Fault
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace
module Prof = Faerie_obs.Prof
module Sampling = Faerie_obs.Sampling
module Slowlog = Faerie_obs.Slowlog
module Slo = Faerie_obs.Slo

type config = {
  sim : Faerie_sim.Sim.t;
  q : int;
  source : Problem.source;
  pruning : Types.pruning;
  pool : Supervisor.config;
  timeout_ms : int option;
  max_doc_bytes : int option;
  shards : int;
  shard_timeout_ms : int option;
  metrics_format : [ `Jsonl | `Prometheus ];
  stats_interval_s : int;
  trace_sample_rate : float;
  trace_seed : int;
  slow_ms : float option;
  slowlog : string option;
  slowlog_k : int;
  slo : Slo.objective;
  wal : string option;
  inject : Fault.config option;
}

type timing = { wall_ns : float; stages_ns : (string * float) list }

type backend = {
  submit :
    ord:int ->
    id:string option ->
    timeout_ms:int option ->
    trace:int ->
    string ->
    on_done:(Parallel.outcome -> timing option -> unit) ->
    unit;
  barrier : unit -> unit;
  stats : unit -> Metrics.snapshot * int list;
  health : unit -> string * Serve_proto.shard_health list;
  dict_add : string -> [ `Added of int | `Exists of int ];
  dict_remove : string -> [ `Removed of int | `Absent ];
  compact : unit -> (int * int, string) result;
  reload : unit -> (int, string) result;
  generation : unit -> int;
  live_count : unit -> int;
  snapshot : unit -> Problem.t;
  close : unit -> Metrics.snapshot * (string * int) list;
}

let index_file c =
  match c.source with Problem.Index p -> Some p | Dict _ -> None
let slowlog_on c = c.slow_ms <> None || c.slowlog <> None

let budget c timeout_ms =
  { Budget.spec_unlimited with timeout_ms; max_bytes = c.max_doc_bytes }

(* ---- Local: a supervised domain pool over a Delta overlay ---- *)

let by_span : Parallel.outcome -> Parallel.outcome = function
  | Outcome.Ok ms -> Outcome.Ok (List.sort Types.compare_span ms)
  | Outcome.Degraded (ms, why) ->
      Outcome.Degraded (List.sort Types.compare_span ms, why)
  | Outcome.Failed _ as f -> f

let local c =
  let load () = Problem.load ~sim:c.sim ~q:c.q c.source in
  let problem_of d = Problem.of_index ~sim:c.sim (Ix.Delta.view d) in
  let p0 = load () in
  let delta = ref (Ix.Delta.create (Problem.index p0)) in
  (* Delta.view is copy-on-write, so publishing a new extractor never
     races the extractions still holding the previous one. [stale] defers
     the rebuild from each mutation to the next document, so replaying a
     long WAL pays for one rebuild, not one per record. *)
  let ex = Atomic.make (Extractor.of_problem p0) in
  let stale = ref false in
  let gen = ref 0 in
  let applied = ref 0 in
  let adopted_at = ref (Unix.gettimeofday ()) in
  let pool = Supervisor.create ~config:c.pool (fun () -> Atomic.get ex) in
  let adopt p =
    delta := Ix.Delta.create (Problem.index p);
    Atomic.set ex (Extractor.of_problem p);
    stale := false;
    incr gen;
    applied := 0;
    adopted_at := Unix.gettimeofday ();
    Supervisor.note_generation pool !gen;
    !gen
  in
  let mutated id =
    incr applied;
    stale := true;
    id
  in
  let submit ~ord ~id ~timeout_ms ~trace text ~on_done =
    if !stale then begin
      Atomic.set ex (Extractor.of_problem (problem_of !delta));
      stale := false
    end;
    let opts =
      {
        Extractor.default_opts with
        pruning = c.pruning;
        budget = budget c timeout_ms;
      }
    in
    let trace = if trace = 0 then None else Some (trace, 0) in
    ignore
      (Supervisor.submit pool ?id ~opts ~doc_id:ord ?trace text
         ~on_done:(fun out ->
           (* Runs on the worker domain that extracted, so the sealed
              stage scratch is this document's. *)
           let timing =
             if not (Slowlog.armed ()) then None
             else
               Option.map
                 (fun (d : Slowlog.doc) ->
                   {
                     wall_ns = d.Slowlog.wall_ns;
                     stages_ns =
                       List.init Slowlog.n_stages (fun i ->
                           (Slowlog.stage_name i, d.Slowlog.stages_ns.(i)));
                   })
                 (Slowlog.last_doc ())
           in
           on_done (by_span out) timing)
        : [ `Queued | `Shed ])
  in
  let compact () =
    match
      Fault.with_context (!gen + 1) (fun () ->
          (* compact_save: dies while building; compact_commit: dies on
             the brink of adoption. Either way nothing changed. *)
          Fault.site "compact_save";
          let p = Problem.of_index ~sim:c.sim (Ix.Delta.compact !delta) in
          Fault.site "compact_commit";
          p)
    with
    | exception Fault.Injected site ->
        Error (Printf.sprintf "injected fault at %s" site)
    | p ->
        let folded = !applied in
        Ok (adopt p, folded)
  in
  {
    submit;
    barrier = (fun () -> Supervisor.drain pool);
    stats =
      (fun () ->
        Supervisor.note_queue_depth pool;
        Prof.note_rss ();
        (Metrics.snapshot (), []));
    health =
      (fun () ->
        ( "ok",
          [
            {
              Serve_proto.h_shard = 0;
              h_up = true;
              h_gen = !gen;
              h_restarts = Supervisor.worker_restarts pool;
              h_queue_depth = Supervisor.queue_depth pool;
              h_delta = Ix.Delta.pending !delta;
              h_compact_age_s = Some (Unix.gettimeofday () -. !adopted_at);
            };
          ] ));
    dict_add =
      (fun raw ->
        match Ix.Delta.add !delta raw with
        | Ix.Delta.Added id -> `Added (mutated id)
        | Ix.Delta.Exists id -> `Exists id);
    dict_remove =
      (fun raw ->
        match Ix.Delta.remove !delta raw with
        | Ix.Delta.Removed id -> `Removed (mutated id)
        | Ix.Delta.Absent -> `Absent);
    compact;
    reload =
      (fun () ->
        match load () with
        | p -> Ok (adopt p)
        | exception
            (( Ix.Codec.Corrupt _ | Ix.Codec.Truncated _ | Fault.Injected _
             | Sys_error _ ) as e) ->
            Error (Printexc.to_string e));
    generation = (fun () -> !gen);
    live_count = (fun () -> Ix.Delta.live_count !delta);
    snapshot = (fun () -> problem_of !delta);
    close =
      (fun () ->
        Supervisor.shutdown pool;
        Prof.note_rss ();
        (Metrics.snapshot (), []));
  }

(* ---- Cluster: forked shard processes behind a coordinator ---- *)

let cluster c =
  let config =
    {
      Cluster.shards = c.shards;
      pool = c.pool;
      retry = c.pool.Supervisor.retry;
      shard_timeout_ms = c.shard_timeout_ms;
      pruning = c.pruning;
      budget = budget c c.timeout_ms;
      snapshot_dir = None;
      slow_stages = slowlog_on c;
    }
  in
  let t =
    Cluster.create ~config ~sim:c.sim ~q:c.q (fun () ->
        Problem.entities_of_source c.source)
  in
  let stats () =
    Prof.note_rss ();
    let merged, per_shard = Cluster.stats t in
    ( merged,
      List.filter_map
        (fun (sid, snap) -> if snap = None then Some sid else None)
        per_shard )
  in
  {
    submit =
      (fun ~ord ~id ~timeout_ms ~trace:_ text ~on_done ->
        (* The coordinator makes its own (identical) sampling decision
           and grafts shard spans under it. *)
        let stages = ref [] in
        let stages_out = if config.slow_stages then Some stages else None in
        let t0 = Trace.now_ns () in
        let out = Cluster.submit t ?id ?timeout_ms ?stages_out ~doc:ord text in
        let wall_ns = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) in
        on_done out
          (Option.map (fun s -> { wall_ns; stages_ns = !s }) stages_out));
    barrier = ignore;
    stats;
    health = (fun () -> Cluster.health t);
    dict_add = Cluster.dict_add t;
    dict_remove = Cluster.dict_remove t;
    compact = (fun () -> Cluster.compact t);
    reload = (fun () -> Cluster.reload t);
    generation = (fun () -> Cluster.generation t);
    live_count = (fun () -> Cluster.live_count t);
    snapshot =
      (fun () ->
        Problem.create ~sim:c.sim ~q:c.q
          (Array.to_list (Cluster.live_entities t)));
    close =
      (fun () ->
        (* The merged snapshot must be pulled while the shards live. *)
        let final, _ = stats () in
        Cluster.shutdown t;
        let tot = Cluster.totals t in
        ( final,
          [
            ("shards", c.shards);
            ("shard_restarts", tot.Cluster.shard_restarts);
            ("shard_timeouts", tot.Cluster.shard_timeouts);
            ("docs_partial", tot.Cluster.docs_partial);
            ("quarantined_pairs", tot.Cluster.quarantined_pairs);
          ] ));
  }

(* ---- the loop ---- *)

let m_index_reloads =
  Metrics.counter ~help:"successful hot index reloads in serve mode"
    "index_reloads"

let g_index_generation =
  Metrics.gauge ~help:"current index snapshot generation in serve mode"
    ~agg:`Max "index_generation"

let ignore_signal_errors f =
  try f () with Invalid_argument _ | Sys_error _ | Unix.Unix_error _ -> ()

let run ?(input = Unix.stdin) ?(output = Unix.stdout) c =
  Option.iter Fault.configure c.inject;
  (* Request diagnostics are armed before any fork, so shard processes
     inherit the memoized git revision and the sampling/slowlog flags. *)
  let t_start = Unix.gettimeofday () in
  Faerie_obs.Build_info.note ();
  if c.trace_sample_rate > 0. then begin
    Sampling.configure ~seed:c.trace_seed c.trace_sample_rate;
    (* Selective recording: only spans tagged with a sampled request's
       trace id are kept. *)
    Trace.enable ();
    Trace.set_selective true
  end;
  if slowlog_on c then
    Slowlog.configure ~capacity:c.slowlog_k ?slow_ms:c.slow_ms ?path:c.slowlog
      ();
  (* A client that disconnects mid-response must look like EPIPE on the
     stream, not kill the server with SIGPIPE. *)
  ignore_signal_errors (fun () -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore);
  (* Reload triggers: SIGHUP or a changed --index mtime, checked between
     requests. A failed reload keeps the current generation serving. *)
  let sighup = Atomic.make false in
  ignore_signal_errors (fun () ->
      Sys.set_signal Sys.sighup
        (Sys.Signal_handle (fun _ -> Atomic.set sighup true)));
  let mtime p =
    try Some (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> None
  in
  let index_mtime = ref (Option.bind (index_file c) mtime) in
  let mtime_changed () =
    match Option.bind (index_file c) mtime with
    | Some _ as m when m <> !index_mtime ->
        index_mtime := m;
        true
    | _ -> false
  in
  (* --stats-interval-s: SIGALRM only sets a flag; the snapshot is taken
     from the loop (a cluster pull does frame round-trips, nothing a
     signal handler may do). No timer domain: a cluster coordinator must
     stay single-domain or later shard forks would be undefined. *)
  let stats_tick = Atomic.make false in
  if c.stats_interval_s > 0 then begin
    ignore_signal_errors (fun () ->
        Sys.set_signal Sys.sigalrm
          (Sys.Signal_handle (fun _ -> Atomic.set stats_tick true)));
    let s = float_of_int c.stats_interval_s in
    ignore_signal_errors (fun () ->
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_interval = s; it_value = s }))
  end;
  let b = if c.shards > 0 then cluster c else local c in
  Metrics.set g_index_generation 0.;
  (* ---- SLO and stats ---- *)
  let slo_tracker = Slo.tracker () in
  let last_slo = ref None in
  let peak_rss = ref 0. in
  let pull_stats () =
    let snap, missing = b.stats () in
    peak_rss := Float.max !peak_rss (Metrics.gauge_value snap "max_rss_bytes");
    if not (Slo.is_empty c.slo) then
      last_slo := Some (Slo.assess slo_tracker c.slo snap);
    (snap, missing)
  in
  let stats_line () =
    let snap, missing = pull_stats () in
    Serve_proto.stats_response_json ~missing ~format:c.metrics_format snap
  in
  let maybe_tick () =
    if Atomic.exchange stats_tick false then begin
      prerr_endline (stats_line ());
      Option.iter
        (fun a -> prerr_endline ("faerie: serve: " ^ Slo.render a))
        !last_slo
    end
  in
  let health_line () =
    if c.stats_interval_s <= 0 && not (Slo.is_empty c.slo) then
      ignore (pull_stats ());
    let status, shards = b.health () in
    Serve_proto.health_response_json
      ~uptime_s:(Unix.gettimeofday () -. t_start)
      ~max_rss_bytes:
        (Float.max (float_of_int (Prof.max_rss_bytes ())) !peak_rss)
      ?slo:(Option.map Slo.to_json !last_slo)
      ~status:
        (match !last_slo with
        | Some a when a.Slo.burning -> "slo_burn"
        | _ -> status)
      shards
  in
  (* ---- output: request-ordered, EPIPE-tolerant ----
     Every response carries its input position; a line is written once
     all earlier positions are. [client_gone] flips once the peer closed
     the output; from then on responses are dropped and the loop winds
     down (the summary still reaches stderr). *)
  let client_gone = Atomic.make false in
  let out_lock = Mutex.create () in
  let held = Hashtbl.create 64 in
  let next_out = ref 0 in
  let counts = Hashtbl.create 5 in
  let count cls = Option.value (Hashtbl.find_opt counts cls) ~default:0 in
  (* One write(2) per response line, retried on EINTR from the exact
     byte it stopped at; EPIPE means the client is gone. *)
  let write_line s =
    let b = Bytes.unsafe_of_string (s ^ "\n") in
    let rec go off =
      if off < Bytes.length b && not (Atomic.get client_gone) then
        match Unix.single_write output b off (Bytes.length b - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
            Atomic.set client_gone true
    in
    go 0
  in
  let respond ?out pos line =
    Mutex.lock out_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_lock)
      (fun () ->
        Option.iter
          (fun o ->
            let cls = Outcome.classify o in
            Hashtbl.replace counts cls (count cls + 1))
          out;
        Hashtbl.replace held pos line;
        let rec drain () =
          match Hashtbl.find_opt held !next_out with
          | Some l ->
              Hashtbl.remove held !next_out;
              incr next_out;
              write_line l;
              drain ()
          | None -> ()
        in
        drain ())
  in
  (* ---- input: raw fd, not a buffered channel ----
     Channel reads restart on EINTR transparently, which would sit on a
     pending tick until the next request arrives; parking in select lets
     SIGALRM surface ticks while the server is idle. *)
  let lines = Queue.create () in
  let acc = Buffer.create 4096 in
  let rbuf = Bytes.create 65536 in
  let eof = ref false in
  let rec read_line () =
    if not (Queue.is_empty lines) then Some (Queue.take lines)
    else if !eof then None
    else begin
      maybe_tick ();
      match Unix.select [ input ] [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
      | _ -> (
          match Unix.read input rbuf 0 (Bytes.length rbuf) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
          | 0 ->
              eof := true;
              if Buffer.length acc = 0 then None
              else begin
                let l = Buffer.contents acc in
                Buffer.clear acc;
                Some l
              end
          | n ->
              for i = 0 to n - 1 do
                match Bytes.get rbuf i with
                | '\n' ->
                    Queue.add (Buffer.contents acc) lines;
                    Buffer.clear acc
                | ch -> Buffer.add_char acc ch
              done;
              read_line ())
    end
  in
  (* ---- WAL ----
     Startup recovery replays the whole-record prefix, repairs a torn tail
     in place (expected crash debris) and keeps the handle for appends. A
     Corrupt log — bad checksum, not a torn tail — aborts startup: silently
     dropping records would lose acknowledged mutations. *)
  let apply_op = function
    | Wal.Add raw -> ignore (b.dict_add raw)
    | Wal.Remove raw -> ignore (b.dict_remove raw)
  in
  let replay_wal path ~verb =
    let n, tail = Wal.replay path apply_op in
    if n > 0 then
      Printf.eprintf "faerie: serve: %s %d wal mutation(s)\n%!" verb n;
    tail
  in
  let wal =
    Option.map
      (fun path ->
        (match replay_wal path ~verb:"replayed" with
        | Wal.Clean -> ()
        | Wal.Torn { at; len } as tail ->
            Printf.eprintf
              "faerie: serve: wal torn tail repaired (whole records up to \
               byte %d of %d)\n\
               %!"
              at len;
            Wal.repair path tail);
        Wal.openfile path)
      c.wal
  in
  let reloads = ref 0 in
  let reload () =
    b.barrier ();
    match b.reload () with
    | Ok g -> (
        incr reloads;
        Metrics.incr m_index_reloads;
        Metrics.set g_index_generation (float_of_int g);
        Printf.eprintf "faerie: serve: reloaded index (generation %d)\n%!" g;
        (* The source predates the WAL's pending mutations; re-apply them
           so a reload never rolls back accepted writes (no-ops for any
           the source already absorbed). *)
        match
          Option.iter
            (fun w -> ignore (replay_wal (Wal.path w) ~verb:"re-applied"))
            wal
        with
        | () -> ()
        | exception e ->
            Printf.eprintf
              "faerie: serve: wal re-apply after reload failed: %s\n%!"
              (Printexc.to_string e))
    | Error msg ->
        Printf.eprintf
          "faerie: serve: reload failed, keeping generation %d: %s\n%!"
          (b.generation ()) msg
  in
  (* Durability order is the contract: fsynced WAL append first, only then
     the in-memory mutation. A failed append (an injected wal_append fault
     included) refuses the mutation with the dictionary untouched. *)
  let mutate opname wop =
    b.barrier ();
    match Option.iter (fun w -> Wal.append w wop) wal with
    | exception Fault.Injected site ->
        Serve_proto.admin_error_json ~op:opname
          (Printf.sprintf "injected fault at %s: mutation not applied" site)
    | exception e ->
        Serve_proto.admin_error_json ~op:opname
          ("wal append failed: " ^ Printexc.to_string e)
    | () ->
        let applied, entity =
          match wop with
          | Wal.Add raw -> (
              match b.dict_add raw with
              | `Added id -> (true, id)
              | `Exists id -> (false, id))
          | Wal.Remove raw -> (
              match b.dict_remove raw with
              | `Removed id -> (true, id)
              | `Absent -> (false, -1))
        in
        Serve_proto.dict_response_json ~op:opname ~applied ~entity
          ~entities:(b.live_count ()) ~gen:(b.generation ())
  in
  (* Compaction folds the overlay into a new generation, then saves it to
     --index and drops the WAL. A crash between the steps is safe: the WAL
     replays idempotently against whichever snapshot the restart loads. *)
  let compact () =
    let index = index_file c in
    if wal <> None && index = None then
      Serve_proto.admin_error_json ~op:"compact"
        "compact with --wal requires --index (a durable snapshot to fold into)"
    else begin
      b.barrier ();
      match b.compact () with
      | Error msg -> Serve_proto.admin_error_json ~op:"compact" msg
      | Ok (g, folded) -> (
          Metrics.set g_index_generation (float_of_int g);
          match
            Option.iter
              (fun path ->
                let p = b.snapshot () in
                Ix.Codec.save (Problem.dictionary p) (Problem.index p) path;
                (* our own save touched --index: not a reload trigger *)
                ignore (mtime_changed () : bool))
              index;
            Option.iter Wal.truncate wal
          with
          | exception Fault.Injected site ->
              Serve_proto.admin_error_json ~op:"compact"
                (Printf.sprintf "injected fault at %s" site)
          | exception Sys_error m ->
              Serve_proto.admin_error_json ~op:"compact" m
          | () ->
              Serve_proto.compact_response_json ~gen:g ~folded
                ~entities:(b.live_count ()))
    end
  in
  let admin = function
    | Serve_proto.Stats -> stats_line ()
    | Serve_proto.Health -> health_line ()
    | Serve_proto.Slowlog_dump ->
        Serve_proto.slowlog_response_json ~total:(Slowlog.total ())
          (List.map snd (Slowlog.drain ()))
    | Serve_proto.Dict_add raw -> mutate "dict_add" (Wal.Add raw)
    | Serve_proto.Dict_remove raw -> mutate "dict_remove" (Wal.Remove raw)
    | Serve_proto.Compact -> compact ()
  in
  (* Admin ops never consume a document ordinal, so a probed server keeps
     the exact fault schedule of an unprobed one. *)
  let ord = ref 0 in
  let document pos line =
    let o = !ord in
    incr ord;
    match Serve_proto.parse_request ~ord:o line with
    | Error e -> respond pos (Serve_proto.error_json ~ord:o e)
    | Ok { Serve_proto.id; text; timeout_ms } ->
        let timeout_ms =
          match timeout_ms with Some _ as t -> t | None -> c.timeout_ms
        in
        let tid =
          if Sampling.armed () && Sampling.decide o then Sampling.trace_id o
          else 0
        in
        let gen = b.generation () in
        let on_done out timing =
          (* Draining the sampled trace bounds span memory whether or not
             the request makes the slowlog ring. *)
          if tid <> 0 then ignore (Trace.drain_trace tid : Trace.span list);
          Option.iter
            (fun { wall_ns; stages_ns } ->
              if Slowlog.should_capture ~wall_ns then
                Slowlog.capture ~wall_ns
                  (Serve_proto.Slowrec.to_json
                     {
                       Serve_proto.Slowrec.doc_id = o;
                       id;
                       trace = tid;
                       gen;
                       wall_ms = wall_ns /. 1e6;
                       outcome = Outcome.class_name (Outcome.classify out);
                       stages_ms =
                         List.map (fun (n, v) -> (n, v /. 1e6)) stages_ns;
                       sim = c.sim;
                       q = c.q;
                       pruning = c.pruning;
                       budget = budget c timeout_ms;
                       fault = Fault.current ();
                       text;
                     }))
            timing;
          respond ~out pos (Serve_proto.response_json ~ord:o ~id ~gen out)
        in
        b.submit ~ord:o ~id ~timeout_ms ~trace:tid text ~on_done
  in
  let pos = ref 0 in
  let rec loop () =
    match read_line () with
    | None -> ()
    | Some line ->
        if Atomic.exchange sighup false || mtime_changed () then reload ();
        maybe_tick ();
        if not (Atomic.get client_gone) then begin
          if String.trim line <> "" then begin
            let p = !pos in
            incr pos;
            match Serve_proto.parse_admin line with
            | Some (Error e) ->
                respond p
                  (Serve_proto.admin_error_json
                     (Serve_proto.parse_error_to_string e))
            | Some (Ok op) -> respond p (admin op)
            | None -> document p line
          end;
          loop ()
        end
  in
  loop ();
  let final, extra = b.close () in
  Slowlog.disarm ();
  if not (Slo.is_empty c.slo) then
    last_slo := Some (Slo.assess slo_tracker c.slo final);
  let summary =
    {
      Outcome.n_docs = Hashtbl.fold (fun _ n acc -> n + acc) counts 0;
      n_ok = count `Ok;
      n_degraded = count `Degraded;
      n_failed = count `Failed;
      n_shed = count `Shed;
      n_quarantined = count `Quarantined;
      failures = [];
      elapsed_ns = 0L;
    }
  in
  prerr_endline
    (Serve_proto.summary_json ~metrics:final
       ?slo:(Option.map Slo.to_json !last_slo)
       ~extra ~reloads:!reloads summary);
  0
