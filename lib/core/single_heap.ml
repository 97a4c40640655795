module Tk = Faerie_tokenize
module S = Faerie_sim
module Heaps = Faerie_heaps
module Ix = Faerie_index
module Dynarray = Faerie_util.Dynarray
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace
module Prof = Faerie_obs.Prof
module Explain = Faerie_obs.Explain
open Types

type report = {
  matches : Types.token_match list;
  stats : Types.stats;
  exhausted : Budget.exhaustion option;
}

let m_candidates =
  Metrics.counter ~help:"candidate substrings generated, all pruning levels"
    "candidates_generated"

let m_cand_none =
  Metrics.counter ~help:"candidates generated at pruning level none"
    "candidates_generated_none"

let m_cand_lazy =
  Metrics.counter ~help:"candidates generated at pruning level lazy"
    "candidates_generated_lazy"

let m_cand_bucket =
  Metrics.counter ~help:"candidates generated at pruning level bucket"
    "candidates_generated_bucket"

let m_cand_binary =
  Metrics.counter ~help:"candidates generated at pruning level binary"
    "candidates_generated_binary"

let m_cand_level = function
  | No_prune -> m_cand_none
  | Lazy_count -> m_cand_lazy
  | Bucket_count -> m_cand_bucket
  | Binary_window -> m_cand_binary

let m_entities_seen =
  Metrics.counter ~help:"indexed entities streamed off the heap" "entities_seen"

let m_pruned_lazy =
  Metrics.counter ~help:"entities pruned by the lazy-count bound"
    "entities_pruned_lazy"

let m_buckets_pruned =
  Metrics.counter ~help:"position buckets pruned by the bucket-count bound"
    "buckets_pruned"

let m_survivors =
  Metrics.counter ~help:"deduplicated candidates surviving the filter"
    "filter_survivors"

let m_matches =
  Metrics.counter ~help:"candidates confirmed by verification" "matches_verified"

(* Per-domain posting-decode workspace, reused across every filter run on
   the domain — the steady-state merge allocates nothing per document. *)
let workspace_key : Ix.Inverted_index.Workspace.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Ix.Inverted_index.Workspace.create ())

(* Per-domain candidate accumulator, likewise reused across runs so the
   triple buffer's growth amortizes to zero. Each [collect] clears and
   refills it, and every caller fully consumes the result (copying what it
   keeps) before the next filter run on the domain. *)
let acc_key : int Dynarray.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Dynarray.create ())

(* Auditing: [ex] is the explain sink resolved once per filter run
   ([Explain.current] at the top of [collect]). Disabled it is [None] and
   every hook below is a single immediate-value branch — the candidate hot
   path allocates nothing extra. *)
let note_candidate ex ~entity ~start ~len ~count ~t =
  match ex with
  | None -> ()
  | Some sink ->
      Explain.emit sink
        (Explain.Candidate { entity; start; len; count; t; survived = count >= t })

(* Occurrence counting for one entity over one slice of its position list,
   at one substring length: emit survivors with count >= T. *)
let count_slice problem (stats : stats) ~ex ~entity
    ~(info : Problem.entity_info) ~positions ~first ~last ~n_tokens ~emit =
  for len = info.lower to min info.upper n_tokens do
    let t = Problem.overlap_t problem ~e_len:info.e_len ~s_len:len in
    Counting.iter_nonzero ~positions ~first ~last ~len ~n_tokens
      ~f:(fun ~start ~count ->
        stats.candidates <- stats.candidates + 1;
        note_candidate ex ~entity ~start ~len ~count ~t;
        if count >= t then emit entity start len)
  done

(* Candidate enumeration from a maximal window [first..last] (Section 4.1's
   batch-count, driven by the windows of Section 4.2). Substring starts are
   restricted to (p_{first-1}, p_first] so each candidate substring is
   produced exactly once, at the window whose first element is the first
   position it contains. *)
let enumerate_window problem (stats : stats) ~ex ~entity
    ~(info : Problem.entity_info) ~positions ~first ~last ~n_tokens ~emit =
  let p_first = positions.(first) in
  let prev = if first = 0 then -1 else positions.(first - 1) in
  let max_count = last - first + 1 in
  (* A substring must hold >= Tl positions, so it must reach at least the
     (first + Tl - 1)-th position. *)
  let b_floor = positions.(first + info.tl - 1) in
  let a_min = max 0 (max (p_first - info.upper + 1) (prev + 1)) in
  for a = a_min to p_first do
    let b_min = max (a + info.lower - 1) b_floor in
    let b_max = min (a + info.upper - 1) (n_tokens - 1) in
    if b_min <= b_max then begin
      (* k: last index in [first..last] with positions.(k) <= b. Positions
         beyond [last] exceed p_first + upper - 1 >= a + upper - 1 >= b, so
         capping at [last] is exact. *)
      let k = ref (first + info.tl - 1) in
      for b = b_min to b_max do
        while !k < last && positions.(!k + 1) <= b do
          incr k
        done;
        let len = b - a + 1 in
        let t = Problem.overlap_t problem ~e_len:info.e_len ~s_len:len in
        if t <= max_count then begin
          stats.candidates <- stats.candidates + 1;
          let count = !k - first + 1 in
          note_candidate ex ~entity ~start:a ~len ~count ~t;
          if count >= t then emit entity a len
        end
      done
    end
  done

let note_lazy ex ~entity ~tl ~m =
  match ex with
  | None -> ()
  | Some sink ->
      Explain.emit sink
        (Explain.Pruned { entity; reason = Explain.Lazy_bound { tl; count = m } })

(* The entity whose windows the Binary_window path searches. [collect]
   builds one per filter run, together with the window callback and the
   search thunk that read it, so the path allocates no closure per
   entity. *)
type window_search = {
  mutable entity : int;
  mutable info : Problem.entity_info;
  mutable positions : int array;
  mutable m : int;
}

let window_search problem stats ~ex ~n_tokens ~emit =
  let ws =
    {
      entity = 0;
      info =
        {
          e_len = 0;
          lower = 0;
          upper = 0;
          tl = 1;
          gap = 0;
          path = Problem.Impossible;
        };
      positions = [||];
      m = 0;
    }
  in
  let on_window ~first ~last =
    let entity = ws.entity in
    (match ex with
    | None -> ()
    | Some sink -> Explain.emit sink (Explain.Window { entity; first; last }));
    enumerate_window problem stats ~ex ~entity ~info:ws.info
      ~positions:ws.positions ~first ~last ~n_tokens ~emit
  in
  let search () =
    Windows.iter_windows ~n:ws.m ~positions:ws.positions ~tl:ws.info.tl
      ~upper:ws.info.upper ~f:on_window ()
  in
  (ws, search)

(* [positions] may be an oversized reusable buffer; [m] is the live
   prefix length. *)
let process_entity problem (stats : stats) ~ex ~pruning ~windows:(ws, search)
    ~entity ~positions ~m ~n_tokens ~emit =
  let info = Problem.info problem entity in
  match info.path with
  | Problem.Fallback | Problem.Impossible -> ()
  | Problem.Indexed -> (
      stats.entities_seen <- stats.entities_seen + 1;
      (match ex with
      | None -> ()
      | Some sink ->
          (* Entity context makes the window-search hooks in Windows
             attributable without threading the sink through them. *)
          Explain.set_entity sink entity;
          Explain.emit sink
            (Explain.Entity { entity; e_len = info.e_len; n_positions = m }));
      match pruning with
      | No_prune ->
          count_slice problem stats ~ex ~entity ~info ~positions ~first:0
            ~last:(m - 1) ~n_tokens ~emit
      | Lazy_count ->
          if m < info.tl then begin
            stats.entities_pruned_lazy <- stats.entities_pruned_lazy + 1;
            note_lazy ex ~entity ~tl:info.tl ~m
          end
          else
            count_slice problem stats ~ex ~entity ~info ~positions ~first:0
              ~last:(m - 1) ~n_tokens ~emit
      | Bucket_count ->
          if m < info.tl then begin
            stats.entities_pruned_lazy <- stats.entities_pruned_lazy + 1;
            note_lazy ex ~entity ~tl:info.tl ~m
          end
          else
            List.iter
              (fun (first, last) ->
                if last - first + 1 < info.tl then begin
                  stats.buckets_pruned <- stats.buckets_pruned + 1;
                  match ex with
                  | None -> ()
                  | Some sink ->
                      Explain.emit sink
                        (Explain.Pruned { entity; reason = Explain.Bucket_pruned })
                end
                else
                  count_slice problem stats ~ex ~entity ~info ~positions ~first
                    ~last ~n_tokens ~emit)
              (Position_list.buckets ~n:m ~positions ~gap:info.gap ())
      | Binary_window ->
          if m < info.tl then begin
            stats.entities_pruned_lazy <- stats.entities_pruned_lazy + 1;
            note_lazy ex ~entity ~tl:info.tl ~m
          end
          else begin
            ws.entity <- entity;
            ws.info <- info;
            ws.positions <- positions;
            ws.m <- m;
            Prof.with_stage Prof.Windows search
          end)

(* Candidates accumulate as flat (entity, start, len) int triples in one
   Dynarray — no per-candidate record allocation. Dedup sorts the triples
   in place (no index permutation, no per-run scratch arrays) and compacts
   distinct triples to the front, in (entity, start, len) order (the same
   order [compare_candidate] gives: the record fields are declared in that
   sequence). *)
let triple_compare acc i j =
  let a = 3 * i and b = 3 * j in
  let c = compare (Dynarray.get acc a) (Dynarray.get acc b) in
  if c <> 0 then c
  else
    let c = compare (Dynarray.get acc (a + 1)) (Dynarray.get acc (b + 1)) in
    if c <> 0 then c
    else compare (Dynarray.get acc (a + 2)) (Dynarray.get acc (b + 2))

let triple_swap acc i j =
  if i <> j then begin
    let a = 3 * i and b = 3 * j in
    for d = 0 to 2 do
      let t = Dynarray.get acc (a + d) in
      Dynarray.set acc (a + d) (Dynarray.get acc (b + d));
      Dynarray.set acc (b + d) t
    done
  end

(* Compare triple [i] against pivot values held in registers — partitioning
   moves elements, so the pivot is captured by value. *)
let cmp_pivot acc i pe ps pl =
  let a = 3 * i in
  let c = compare (Dynarray.get acc a) pe in
  if c <> 0 then c
  else
    let c = compare (Dynarray.get acc (a + 1)) ps in
    if c <> 0 then c else compare (Dynarray.get acc (a + 2)) pl

let insertion_sort acc lo hi =
  for i = lo + 1 to hi do
    let a = 3 * i in
    let pe = Dynarray.get acc a
    and ps = Dynarray.get acc (a + 1)
    and pl = Dynarray.get acc (a + 2) in
    let j = ref (i - 1) in
    while !j >= lo && cmp_pivot acc !j pe ps pl > 0 do
      let s = 3 * !j and d = 3 * (!j + 1) in
      Dynarray.set acc d (Dynarray.get acc s);
      Dynarray.set acc (d + 1) (Dynarray.get acc (s + 1));
      Dynarray.set acc (d + 2) (Dynarray.get acc (s + 2));
      decr j
    done;
    let d = 3 * (!j + 1) in
    Dynarray.set acc d pe;
    Dynarray.set acc (d + 1) ps;
    Dynarray.set acc (d + 2) pl
  done

(* Hoare partition with a median-of-three pivot. *)
let partition acc lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if triple_compare acc mid lo < 0 then triple_swap acc mid lo;
  if triple_compare acc hi mid < 0 then begin
    triple_swap acc hi mid;
    if triple_compare acc mid lo < 0 then triple_swap acc mid lo
  end;
  let p = 3 * mid in
  let pe = Dynarray.get acc p
  and ps = Dynarray.get acc (p + 1)
  and pl = Dynarray.get acc (p + 2) in
  let i = ref (lo - 1) and j = ref (hi + 1) in
  let cut = ref (-1) in
  while !cut < 0 do
    incr i;
    while cmp_pivot acc !i pe ps pl < 0 do
      incr i
    done;
    decr j;
    while cmp_pivot acc !j pe ps pl > 0 do
      decr j
    done;
    if !i >= !j then cut := !j else triple_swap acc !i !j
  done;
  !cut

(* Smaller side recurses, larger side loops: stack depth is O(log n). *)
let rec sort_triples acc lo hi =
  let lo = ref lo and hi = ref hi in
  while !hi - !lo > 15 do
    let p = partition acc !lo !hi in
    if p - !lo < !hi - p then begin
      sort_triples acc !lo p;
      lo := p + 1
    end
    else begin
      sort_triples acc (p + 1) !hi;
      hi := p
    end
  done;
  insertion_sort acc !lo !hi

(* Sort + compact in place; returns the number of distinct triples, which
   occupy [acc]'s first [3 * n] slots afterwards. *)
let dedup_triples acc =
  let k = Dynarray.length acc / 3 in
  if k <= 1 then k
  else begin
    sort_triples acc 0 (k - 1);
    let w = ref 1 in
    for i = 1 to k - 1 do
      if triple_compare acc i (!w - 1) <> 0 then begin
        if i <> !w then begin
          let s = 3 * i and d = 3 * !w in
          Dynarray.set acc d (Dynarray.get acc s);
          Dynarray.set acc (d + 1) (Dynarray.get acc (s + 1));
          Dynarray.set acc (d + 2) (Dynarray.get acc (s + 2))
        end;
        incr w
      end
    done;
    !w
  end

let collect ?(budget = Budget.unlimited) ~pruning problem doc =
  Trace.with_span "filter" @@ fun () ->
  let stats = new_stats () in
  (* Resolved once per run: [None] (the production state) keeps every
     per-candidate audit hook down to one branch on an immediate value. *)
  let ex = Explain.current () in
  let index = Problem.index problem in
  let n_tokens = Tk.Document.n_tokens doc in
  let acc = Domain.DLS.get acc_key in
  Dynarray.clear acc;
  let aborted = ref None in
  (* Budget exhaustion aborts the merge mid-stream; the candidates already
     in [acc] are kept and flagged as partial by the caller. *)
  (try
     (* One Heap_merge bracket covers posting decode + the merge proper
        (decode is part of the merge cost this stage has always reported). *)
     Prof.with_stage Prof.Heap_merge (fun () ->
         let ws = Domain.DLS.get workspace_key in
         let buf, offs, lens = Ix.Inverted_index.decode_document index ws doc in
         (* Allocated once per run, not per entity: the merge callback fires
            for every streamed entity. *)
         let emit entity start len =
           Budget.charge_candidates budget 1;
           Dynarray.push acc entity;
           Dynarray.push acc start;
           Dynarray.push acc len
         in
         let windows = window_search problem stats ~ex ~n_tokens ~emit in
         Heaps.Multiway.iter_entity_positions ~n_positions:n_tokens
           ~buf ~offs ~lens
           ~f:(fun ~entity ~positions ~n ->
             Budget.tick budget;
             process_entity problem stats ~ex ~pruning ~windows ~entity
               ~positions ~m:n ~n_tokens ~emit)
           ())
   with Budget.Exhausted e -> aborted := Some e);
  let n_survivors = dedup_triples acc in
  stats.survivors <- n_survivors;
  (match ex with
  | None -> ()
  | Some sink ->
      Explain.emit sink (Explain.Filter_done { survivors = stats.survivors }));
  (* Flush once per filter run, after [stats] is final, so registry counters
     agree exactly with the per-run [Types.stats] a caller aggregates. *)
  Metrics.add m_candidates stats.candidates;
  Metrics.add (m_cand_level pruning) stats.candidates;
  Metrics.add m_entities_seen stats.entities_seen;
  Metrics.add m_pruned_lazy stats.entities_pruned_lazy;
  Metrics.add m_buckets_pruned stats.buckets_pruned;
  Metrics.add m_survivors stats.survivors;
  (acc, n_survivors, stats, !aborted)

let survivor_list acc n_survivors =
  let tail = ref [] in
  for i = n_survivors - 1 downto 0 do
    let b = 3 * i in
    tail :=
      {
        entity = Dynarray.get acc b;
        start = Dynarray.get acc (b + 1);
        len = Dynarray.get acc (b + 2);
      }
      :: !tail
  done;
  !tail

let candidates ~pruning problem doc =
  let acc, n_survivors, stats, _ = collect ~pruning problem doc in
  (survivor_list acc n_survivors, stats)

let run_budgeted ?(pruning = Binary_window) ?(budget = Budget.unlimited)
    ?(verifier = S.Verify.Auto) problem doc =
  let acc, n_survivors, stats, aborted =
    collect ~budget ~pruning problem doc
  in
  let aborted = ref aborted in
  (* Verification also respects the deadline: a trip keeps the matches
     verified so far (a subset of the full set, reported as partial). *)
  let matches = ref [] in
  let ex = Explain.current () in
  (match ex with
  | None -> ()
  | Some sink ->
      Explain.emit sink
        (Explain.Verifier { choice = S.Verify.verifier_name verifier }));
  (try
     Prof.with_stage Prof.Verify @@ fun () ->
     Trace.with_span "verify" (fun () ->
         for i = 0 to n_survivors - 1 do
           Budget.tick budget;
           let b = 3 * i in
           let entity = Dynarray.get acc b
           and start = Dynarray.get acc (b + 1)
           and len = Dynarray.get acc (b + 2) in
           let score =
             Problem.verify_span ~verifier problem doc ~entity ~start ~len
           in
           let passed = S.Verify.Score.passes (Problem.sim problem) score in
           (match ex with
           | None -> ()
           | Some sink ->
               Explain.emit sink
                 (Explain.Verify { entity; start; len; matched = passed }));
           if passed then
             matches :=
               { m_entity = entity; m_start = start; m_len = len; m_score = score }
               :: !matches
         done)
   with Budget.Exhausted e -> if !aborted = None then aborted := Some e);
  let matches = List.rev !matches in
  stats.verified <- List.length matches;
  Metrics.add m_matches stats.verified;
  { matches; stats; exhausted = !aborted }

let run ?(pruning = Binary_window) ?verifier problem doc =
  let r = run_budgeted ~pruning ?verifier problem doc in
  (r.matches, r.stats)
