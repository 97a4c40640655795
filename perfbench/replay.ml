(* The traced run: replays the workload's generated inputs in-process
   through each layer's public functions and records a span (name, start,
   end, parent, request id) around every call into a layer. Spans stay in
   memory and are written out at the end; the per-layer metrics are read
   off them.

   Layers and the calls timed:
   - setup: Problem.create, Codec.save / Codec.load, Cluster.create;
   - Cluster: Cluster.submit against the slowest Extractor.run over the
     Shard_plan.partition slices (the fan-out overhead), and
     Cluster.dict_add / dict_remove;
   - Delta and Problem: Delta.add / remove, Delta.view, Problem.of_index,
     mirrored on the slice that owns each mutation;
   - Extractor, decomposed: Extractor.tokenize, Single_heap.candidates
     (Binary_window), Problem.verify_candidate, Fallback.run; the rest of
     the run is the "unattributed" residual;
   - Multiway: Inverted_index.decode_document + Multiway.iter_entity_positions,
     timed on their own (Single_heap.candidates runs them inside);
   - Serve_proto: parse_admin + parse_request, response_json;
   - Supervisor: submit to the extractor-getter call (queue wait) and to
     on_done (sojourn), with one worker domain as `serve --domains 1` runs.

   The workloads are served in-process (--shards 0); the replay runs the
   Cluster layer with two shards, so every layer has a number on every
   workload, though the end-to-end run does not use the cluster. *)

module W = Workload
module Sim = Faerie_sim.Sim
module Score = Faerie_sim.Verify.Score
module Tk = Faerie_tokenize
module Ix = Faerie_index
module Core = Faerie_core
module Problem = Core.Problem
module Extractor = Core.Extractor
module Types = Core.Types
module Multiway = Faerie_heaps.Multiway

(* ---- span recorder ---- *)

module Spans = struct
  type t = {
    mutable name : string array;
    mutable start : int array;
    mutable stop : int array;
    mutable parent : int array;
    mutable req : int array;
    mutable n : int;
    mutable cur : int;  (** innermost open span, -1 when none *)
    mutable on : bool;
  }

  let create () =
    let k = 1 lsl 16 in
    {
      name = Array.make k "";
      start = Array.make k 0;
      stop = Array.make k 0;
      parent = Array.make k 0;
      req = Array.make k 0;
      n = 0;
      cur = -1;
      on = true;
    }

  let grow t =
    let k = 2 * Array.length t.start in
    let ext a x =
      let b = Array.make k x in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.name <- ext t.name "";
    t.start <- ext t.start 0;
    t.stop <- ext t.stop 0;
    t.parent <- ext t.parent 0;
    t.req <- ext t.req 0

  (* Record a span measured elsewhere (e.g. across domains). *)
  let add t name ~req ~parent ~start ~stop =
    if t.n = Array.length t.start then grow t;
    let id = t.n in
    t.name.(id) <- name;
    t.start.(id) <- start;
    t.stop.(id) <- stop;
    t.parent.(id) <- parent;
    t.req.(id) <- req;
    t.n <- id + 1;
    id

  let with_ t name ~req f =
    if not t.on then f ()
    else begin
      let id = add t name ~req ~parent:t.cur ~start:(Stats.now ()) ~stop:0 in
      t.cur <- id;
      let close () =
        t.stop.(id) <- Stats.now ();
        t.cur <- t.parent.(id)
      in
      match f () with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e
    end

  let dur t i = t.stop.(i) - t.start.(i)

  (* Self time: the span's duration minus the time its children cover
     (children of one span run one after another, inside it). *)
  let self_times t =
    let child = Array.make t.n 0 in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then child.(p) <- child.(p) + dur t i
    done;
    Array.init t.n (fun i -> dur t i - child.(i))

  let select t name f =
    let acc = Stats.Samples.create () in
    for i = 0 to t.n - 1 do
      if t.name.(i) = name then Stats.Samples.add acc (f i)
    done;
    Stats.Samples.to_array acc

  let write t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        for i = 0 to t.n - 1 do
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\
             \"req\":%d}\n"
            i t.name.(i) t.start.(i) t.stop.(i) t.parent.(i) t.req.(i)
        done)
end

(* ---- the decomposed extraction ---- *)

type counts = {
  tokens : int;
  entities_seen : int;
  candidates : int;
  survivors : int;
  verify_calls : int;
  verified : int;
}

let decomposed sp ~req p ex text =
  let sim = Problem.sim p in
  Spans.with_ sp "extractor.run" ~req (fun () ->
      let doc = Spans.with_ sp "tokenize" ~req (fun () -> Extractor.tokenize ex text) in
      let cands, (st : Types.stats) =
        Spans.with_ sp "single_heap.filter" ~req (fun () ->
            Core.Single_heap.candidates ~pruning:Types.Binary_window p doc)
      in
      let matches =
        Spans.with_ sp "verify" ~req (fun () ->
            List.filter_map
              (fun (c : Types.candidate) ->
                let score = Problem.verify_candidate p doc c in
                if Score.passes sim score then
                  let c_start, c_len =
                    Tk.Document.char_extent doc ~start:c.start ~len:c.len
                  in
                  Some { Types.c_entity = c.entity; c_start; c_len; c_score = score }
                else None)
              cands)
      in
      let fallback = Spans.with_ sp "fallback" ~req (fun () -> Core.Fallback.run p doc) in
      let all =
        List.sort_uniq Types.compare_char_match (List.rev_append fallback matches)
      in
      let results = Extractor.results_of_char_matches ex doc all in
      let n_cands = List.length cands in
      ( results,
        {
          tokens = Tk.Document.n_tokens doc;
          entities_seen = st.entities_seen;
          candidates = st.candidates;
          survivors = st.survivors;
          verify_calls = n_cands;
          verified = List.length matches;
        } ))

(* The multiway merge alone: decode every token's postings, stream the
   entity position lists. Returns the postings the merge visits. *)
let merge sp ~req ws index doc =
  Spans.with_ sp "multiway.merge" ~req (fun () ->
      let buf, offs, lens = Ix.Inverted_index.decode_document index ws doc in
      let n = Tk.Document.n_tokens doc in
      Multiway.iter_entity_positions ~n_positions:n ~buf ~offs ~lens
        ~f:(fun ~entity:_ ~positions:_ ~n:_ -> ())
        ();
      snd (Multiway.heap_stats ~n_positions:n ~length_at:(fun i -> lens.(i))))

let result_key (r : Extractor.result) = (r.entity, r.start_char, r.len_chars)

(* ---- the run ---- *)

let median_of reps f = Stats.median (Array.init reps (fun _ -> f ()))

(* Tolerances of the attribution checks; on the benchmark's workloads the
   unattributed share is about 1% and the decomposed replay's p50 within 5%
   of Extractor.run's. *)
let max_unattributed_share = 0.10

let max_decomposed_gap = 0.25

let run (w : W.t) (inputs : W.inputs) ~dir ~work ~seconds ~seed =
  let sp = Spans.create () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let attempted = ref 0 and failed = ref 0 in
  let reqs = ref 0 in
  let next_req () =
    incr reqs;
    !reqs
  in
  let share frac = int_of_float (frac *. float_of_int seconds *. 1e9) in
  let sim = w.sim and q = w.q in
  let ents = Array.to_list inputs.W.entities in
  let docs = inputs.W.docs in
  let timed name f =
    let req = next_req () in
    let t0 = Stats.now () in
    let v = Spans.with_ sp name ~req f in
    (v, Stats.now () - t0)
  in
  (* -- setup layers -- *)
  let base = ref None in
  let problem_create_s =
    median_of 3 (fun () ->
        let p, ns = timed "problem.create" (fun () -> Problem.create ~sim ~q ents) in
        base := Some p;
        Stats.s ns)
  in
  let base = Option.get !base in
  let snap = Filename.concat dir "index.faerie" in
  let codec_save_s =
    median_of 3 (fun () ->
        Stats.s
          (snd
             (timed "codec.save" (fun () ->
                  Ix.Codec.save (Problem.dictionary base) (Problem.index base) snap))))
  in
  let codec_load_s =
    median_of 3 (fun () ->
        Stats.s (snd (timed "codec.load" (fun () -> Ix.Codec.load snap))))
  in
  (* -- Cluster, Delta and Problem (forks shard processes, so it runs
        before any worker domain exists) -- *)
  let shards = 2 in
  let snapshot_dir = Filename.concat dir "cluster" in
  Unix.mkdir snapshot_dir 0o755;
  let config =
    {
      Core.Cluster.default_config with
      shards;
      pool = { Core.Supervisor.default_config with domains = 1 };
      snapshot_dir = Some snapshot_dir;
    }
  in
  let cluster, create_ns =
    timed "cluster.create" (fun () ->
        Core.Cluster.create ~config ~sim ~q (fun () -> ents))
  in
  let ranges = Core.Shard_plan.partition ~n_entities:(List.length ents) ~shards in
  let slices =
    Array.map
      (fun (r : Core.Shard_plan.range) ->
        let slice = Array.sub inputs.W.entities r.lo (Core.Shard_plan.width r) in
        Ix.Delta.create (Problem.index (Problem.create ~sim ~q (Array.to_list slice))))
      ranges
  in
  let slice_ex =
    Array.map
      (fun d -> Extractor.of_problem (Problem.of_index ~sim (Ix.Delta.view d)))
      slices
  in
  let quiet = { Extractor.default_opts with metrics = false } in
  let overhead = Stats.Samples.create () in
  let doc_stream = W.Docs.all inputs and muts = W.Mutations.create inputs ~seed in
  let cluster_op op =
    incr attempted;
    let req = next_req () in
    match op with
    | W.Doc d ->
        let t0 = Stats.now () in
        let out =
          Spans.with_ sp "cluster.submit" ~req (fun () ->
              Core.Cluster.submit cluster ~doc:req docs.(d))
        in
        let submit = Stats.now () - t0 in
        (match out with Core.Outcome.Ok _ -> () | _ -> incr failed);
        let slowest =
          Array.fold_left
            (fun acc ex ->
              let t0 = Stats.now () in
              ignore
                (Spans.with_ sp "cluster.slice_run" ~req (fun () ->
                     Extractor.run ~opts:quiet ex (`Text docs.(d))));
              max acc (Stats.now () - t0))
            0 slice_ex
        in
        Stats.Samples.add overhead (Stats.ms (submit - slowest))
    | W.Add raw | W.Remove raw ->
        let owner =
          Spans.with_ sp "cluster.mutate" ~req (fun () ->
              match op with
              | W.Add _ -> (
                  match Core.Cluster.dict_add cluster raw with
                  | `Added id -> Some id
                  | `Exists _ -> None)
              | _ -> (
                  match Core.Cluster.dict_remove cluster raw with
                  | `Removed id -> Some id
                  | `Absent -> None))
        in
        (match owner with
        | None -> incr failed
        | Some id ->
            let s = Core.Shard_plan.owner_dyn ranges id in
            let d = slices.(s) in
            Spans.with_ sp "delta.apply" ~req (fun () ->
                match op with
                | W.Add _ -> ignore (Ix.Delta.add d raw : Ix.Delta.add_result)
                | _ -> ignore (Ix.Delta.remove d raw : Ix.Delta.remove_result));
            let view = Spans.with_ sp "delta.view" ~req (fun () -> Ix.Delta.view d) in
            let p =
              Spans.with_ sp "problem.of_index" ~req (fun () ->
                  Problem.of_index ~sim view)
            in
            slice_ex.(s) <- Extractor.of_problem p)
  in
  (* at most 2,000 operations, so the fresh and removable raws last *)
  let loop ~share_ns ~min next =
    let t0 = Stats.now () and k = ref 0 in
    while !k < min || (Stats.now () - t0 < share_ns && !k < 2000) do
      cluster_op (next ());
      incr k
    done
  in
  loop ~share_ns:(share 0.15) ~min:20 (fun () -> W.Doc (W.Docs.next doc_stream));
  loop ~share_ns:(share 0.1) ~min:100 (fun () -> W.Mutations.next muts);
  let shard_restarts = (Core.Cluster.totals cluster).Core.Cluster.shard_restarts in
  Core.Cluster.shutdown cluster;
  (* -- Extractor, decomposed: one exact-count pass, then timing -- *)
  let ex = Extractor.of_problem base in
  let index = Problem.index base in
  let ws = Ix.Inverted_index.Workspace.create () in
  let n = min w.replay_docs (Array.length docs) in
  let per_doc = Array.make n None in
  let outcomes = Array.make n (Core.Outcome.Ok []) in
  let alloc = ref 0. and postings = ref 0 in
  sp.on <- false;
  for i = 0 to n - 1 do
    incr attempted;
    let results, c = decomposed sp ~req:0 base ex docs.(i) in
    let doc = Extractor.tokenize ex docs.(i) in
    postings := !postings + merge sp ~req:0 ws index doc;
    let w0 = Gc.minor_words () in
    let rep = Extractor.run ex (`Text docs.(i)) in
    alloc := !alloc +. (Gc.minor_words () -. w0);
    outcomes.(i) <- Core.Parallel.outcome_of_report rep;
    (match rep.Extractor.outcome with
    | Core.Outcome.Ok api ->
        if List.sort compare (List.map result_key api)
           <> List.sort compare (List.map result_key results)
        then problem "doc %d: decomposed replay and Extractor.run disagree" i
    | _ -> incr failed);
    per_doc.(i) <- Some c
  done;
  let sum f = Array.fold_left (fun acc c -> acc + f (Option.get c)) 0 per_doc in
  let total =
    {
      tokens = sum (fun c -> c.tokens);
      entities_seen = sum (fun c -> c.entities_seen);
      candidates = sum (fun c -> c.candidates);
      survivors = sum (fun c -> c.survivors);
      verify_calls = sum (fun c -> c.verify_calls);
      verified = sum (fun c -> c.verified);
    }
  in
  (* exact counts repeat across runs of one seed *)
  let counts_line =
    Printf.sprintf
      "docs=%d tokens=%d postings=%d entities_seen=%d candidates=%d survivors=%d \
       verify_calls=%d verified=%d"
      n total.tokens !postings total.entities_seen total.candidates total.survivors
      total.verify_calls total.verified
  in
  (* keyed by the binary too: another build may legitimately count
     differently *)
  let counts_file =
    Filename.concat work
      (Printf.sprintf "counts-%s-%d-%s.txt" w.name seed
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  (match Loadgen.read_file counts_file with
  | "" ->
      let oc = open_out counts_file in
      output_string oc counts_line;
      close_out oc
  | prev when prev <> counts_line ->
      problem "exact counts differ from an earlier run of this seed: %s vs %s" prev
        counts_line
  | _ -> ());
  Printf.printf "# exact counts: %s\n" counts_line;
  let untraced = Stats.Samples.create () and api = Stats.Samples.create () in
  let t0 = Stats.now () and k = ref 0 in
  let untraced_run i text =
    sp.on <- false;
    let a = Stats.now () in
    let _, c = decomposed sp ~req:0 base ex text in
    Stats.Samples.add untraced (Stats.ms (Stats.now () - a));
    sp.on <- true;
    if Some c <> per_doc.(i) then problem "doc %d: filter counts changed between passes" i
  in
  let traced_run text =
    let req = next_req () in
    Spans.with_ sp "replay.doc" ~req (fun () ->
        ignore (decomposed sp ~req base ex text);
        ignore (merge sp ~req ws index (Extractor.tokenize ex text) : int))
  in
  while !k < n || Stats.now () - t0 < share 0.4 do
    let i = !k mod n in
    let text = docs.(i) in
    (* alternate which replay meets the document first, so neither gets
       the warm caches every time *)
    if !k land 1 = 0 then begin
      untraced_run i text;
      traced_run text
    end
    else begin
      traced_run text;
      untraced_run i text
    end;
    sp.on <- false;
    let a = Stats.now () in
    ignore (Extractor.run ~opts:quiet ex (`Text text) : Extractor.report);
    Stats.Samples.add api (Stats.ms (Stats.now () - a));
    sp.on <- true;
    incr k
  done;
  Printf.printf "# traced replay: %d documents (%d distinct) in the timing passes\n" !k n;
  (* -- Serve_proto -- *)
  for pass = 0 to 2 do
    for i = 0 to n - 1 do
      let req = next_req () in
      let line = W.request_line ~id:(string_of_int i) inputs i in
      (match
         Spans.with_ sp "serve_proto.parse" ~req (fun () ->
             match Core.Serve_proto.parse_admin line with
             | None -> Core.Serve_proto.parse_request ~ord:i line
             | Some _ -> Error (Core.Serve_proto.Malformed "admin"))
       with
      | Ok _ -> ()
      | Error _ -> if pass = 0 then problem "doc %d: request line does not parse" i);
      ignore
        (Spans.with_ sp "serve_proto.render" ~req (fun () ->
             Core.Serve_proto.response_json ~ord:i ~id:(Some (string_of_int i)) ~gen:0
               outcomes.(i))
          : string)
    done
  done;
  (* -- Supervisor -- *)
  let cap = 1 lsl 20 in
  let submitted = Array.make cap 0
  and picked = Array.make cap 0
  and finished = Array.make cap 0 in
  let picks = Atomic.make 0 in
  let m = Mutex.create () and cv = Condition.create () in
  let inflight = ref 0 and sup_failed = ref 0 in
  let pool =
    Core.Supervisor.create
      ~config:{ Core.Supervisor.default_config with domains = 1 }
      (fun () ->
        (* one worker domain, no retries: attempts run in submit order *)
        let k = Atomic.fetch_and_add picks 1 in
        if k < cap then picked.(k) <- Stats.now ();
        ex)
  in
  let conc = W.concurrency in
  let t0 = Stats.now () and k = ref 0 in
  while !k < cap && (!k < 200 || Stats.now () - t0 < share 0.15) do
    Mutex.lock m;
    while !inflight >= conc do
      Condition.wait cv m
    done;
    incr inflight;
    Mutex.unlock m;
    let j = !k in
    submitted.(j) <- Stats.now ();
    ignore
      (Core.Supervisor.submit pool ~doc_id:j docs.(j mod Array.length docs)
         ~on_done:(fun out ->
           finished.(j) <- Stats.now ();
           Mutex.lock m;
           (match out with Core.Outcome.Ok _ -> () | _ -> incr sup_failed);
           decr inflight;
           Condition.signal cv;
           Mutex.unlock m)
        : [ `Queued | `Shed ]);
    incr k
  done;
  Core.Supervisor.drain pool;
  let worker_restarts = Core.Supervisor.worker_restarts pool in
  Core.Supervisor.shutdown pool;
  attempted := !attempted + !k;
  failed := !failed + !sup_failed;
  if Atomic.get picks <> !k then
    problem "supervisor: %d extractor-getter calls for %d documents"
      (Atomic.get picks) !k;
  for j = 0 to !k - 1 do
    let req = next_req () in
    let s =
      Spans.add sp "supervisor.sojourn" ~req ~parent:(-1) ~start:submitted.(j)
        ~stop:finished.(j)
    in
    ignore
      (Spans.add sp "supervisor.queue_wait" ~req ~parent:s ~start:submitted.(j)
         ~stop:picked.(j)
        : int)
  done;
  (* -- attribution. The unattributed time is the extractor.run span's
        self time, so per document the layer self times plus it add up to
        the span by construction. What can go wrong is the decomposition
        itself, and two checks catch it: the layer spans must cover nearly
        all of the run, and the untraced decomposed replay must cost about
        what the real Extractor.run does on the same documents (it does
        not when Extractor.run gains work, or a fast path, that the replay
        skips). -- *)
  let self = Spans.self_times sp in
  let run_mean f = Stats.mean (Spans.select sp "extractor.run" f) in
  let unattributed_share =
    run_mean (fun i -> float_of_int self.(i))
    /. run_mean (fun i -> float_of_int (Spans.dur sp i))
  in
  let decomposed_ratio = Stats.p50 untraced /. Stats.p50 api in
  Printf.printf
    "# attribution: unattributed %.2f%% of extractor.run (at most %.0f%%); untraced \
     decomposed replay p50 %.4f ms = %.3f x Extractor.run p50 (within %.2f)\n"
    (100. *. unattributed_share) (100. *. max_unattributed_share) (Stats.p50 untraced)
    decomposed_ratio max_decomposed_gap;
  if not (unattributed_share <= max_unattributed_share) then
    problem "attribution: %.1f%% of extractor.run is outside every layer span"
      (100. *. unattributed_share);
  if not (Float.abs (decomposed_ratio -. 1.) <= max_decomposed_gap) then
    problem
      "attribution: the decomposed replay costs %.3f x what Extractor.run does on \
       the same documents"
      decomposed_ratio;
  let spans_file = Filename.concat work (Printf.sprintf "spans-%s.jsonl" w.name) in
  Spans.write sp spans_file;
  Printf.printf "# spans: %d written to %s\n" sp.n spans_file;
  List.iter (fun p -> Printf.printf "# problem: %s\n" p) (List.rev !problems);
  (* -- metrics, read off the spans -- *)
  let durs name = Spans.select sp name (fun i -> float_of_int (Spans.dur sp i)) in
  let ms_med name = Stats.ms (int_of_float (Stats.median (durs name))) in
  let mean_ms name = Stats.mean (durs name) /. 1e6 in
  let run_ms = Array.map (fun x -> x /. 1e6) (durs "extractor.run") in
  let unattributed =
    Spans.select sp "extractor.run" (fun i -> float_of_int self.(i) /. 1e6)
  in
  let queue_wait = Array.map (fun x -> x /. 1e6) (durs "supervisor.queue_wait") in
  let per_doc_f x = float_of_int x /. float_of_int n in
  let metrics =
    [
      ("serve_proto.parse_us", "us", Stats.median (durs "serve_proto.parse") /. 1e3);
      ("serve_proto.render_us", "us", Stats.median (durs "serve_proto.render") /. 1e3);
      ("supervisor.queue_wait_ms_p50", "ms", Stats.median queue_wait);
      ("supervisor.queue_wait_ms_p99", "ms", Stats.quantile queue_wait 0.99);
      ("supervisor.sojourn_ms", "ms", ms_med "supervisor.sojourn");
      ("supervisor.worker_restarts", "count", float_of_int worker_restarts);
      ("extractor.run_ms_p50", "ms", Stats.median run_ms);
      ("extractor.run_ms_p99", "ms", Stats.quantile run_ms 0.99);
      ("extractor.run_ms_mean", "ms", Stats.mean run_ms);
      ("extractor.api_run_ms_p50", "ms", Stats.p50 api);
      ( "extractor.alloc_words_per_token",
        "words/token",
        !alloc /. float_of_int total.tokens );
      ("extractor.unattributed_ms", "ms", Stats.mean unattributed);
      ("extractor.tracing_overhead_ms", "ms", Stats.median run_ms -. Stats.p50 untraced);
      ("tokenize.us_per_doc", "us", mean_ms "tokenize" *. 1e3);
      ("tokenize.tokens_per_doc", "count", per_doc_f total.tokens);
      ("multiway.merge_ms", "ms", mean_ms "multiway.merge");
      ("multiway.postings_per_doc", "count", per_doc_f !postings);
      ("single_heap.filter_ms", "ms", mean_ms "single_heap.filter");
      ( "single_heap.count_ms",
        "ms",
        mean_ms "single_heap.filter" -. mean_ms "multiway.merge" );
      ("single_heap.entities_seen_per_doc", "count", per_doc_f total.entities_seen);
      ("single_heap.candidates_per_doc", "count", per_doc_f total.candidates);
      ("single_heap.survivors_per_doc", "count", per_doc_f total.survivors);
      ("verify.ms_per_doc", "ms", mean_ms "verify");
      ("verify.calls_per_doc", "count", per_doc_f total.verify_calls);
      ( "verify.hit_ratio",
        "ratio",
        float_of_int total.verified /. float_of_int (max 1 total.survivors) );
      ("fallback.ms_per_doc", "ms", mean_ms "fallback");
      ("cluster.submit_ms", "ms", ms_med "cluster.submit");
      ("cluster.fanout_overhead_ms", "ms", Stats.p50 overhead);
      ("cluster.mutate_ms", "ms", ms_med "cluster.mutate");
      ("cluster.shard_restarts", "count", float_of_int shard_restarts);
      ("delta.apply_us", "us", Stats.median (durs "delta.apply") /. 1e3);
      ("delta.view_ms", "ms", ms_med "delta.view");
      ("problem.of_index_ms", "ms", ms_med "problem.of_index");
      ("problem.create_s", "s", problem_create_s);
      ("codec.save_s", "s", codec_save_s);
      ("codec.load_s", "s", codec_load_s);
      ("cluster.create_s", "s", Stats.s create_ns);
    ]
  in
  (!problems = [], !attempted, !failed, metrics)
