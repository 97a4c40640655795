type stage = Tokenize | Heap_merge | Windows | Verify

let stage_name = function
  | Tokenize -> "tokenize"
  | Heap_merge -> "heap_merge"
  | Windows -> "windows"
  | Verify -> "verify"

let stage_idx = function
  | Tokenize -> 0
  | Heap_merge -> 1
  | Windows -> 2
  | Verify -> 3

let stages = [| Tokenize; Heap_merge; Windows; Verify |]

let on = Atomic.make false
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let n_captures = Atomic.make 0
let captures () = Atomic.get n_captures

(* [quick_stat] fields are flushed only at GC events, so a short stage
   that triggers no minor collection would read a zero delta. The
   dedicated [minor_words] counter is precise (it adds the current
   allocation-pointer offset), and minor words dominate every derived
   quantity, so splice it in. *)
let capture () =
  Atomic.incr n_captures;
  let s = Gc.quick_stat () in
  { s with Gc.minor_words = Gc.minor_words () }

let word_bytes = Sys.word_size / 8

let m_minor =
  Metrics.counter ~help:"minor words allocated across profiled documents"
    "gc_minor_words"

let m_promoted =
  Metrics.counter
    ~help:"words promoted to the major heap across profiled documents"
    "gc_promoted_words"

let m_major =
  Metrics.counter ~help:"major collections across profiled documents"
    "gc_major_collections"

let m_top_heap =
  Metrics.gauge ~agg:`Max
    ~help:"largest heap watermark observed by any domain (bytes)"
    "gc_top_heap_bytes"

let m_max_rss =
  Metrics.gauge ~agg:`Max
    ~help:"process peak resident set size in bytes (VmHWM)" "max_rss_bytes"

(* OCaml's Unix library binds no getrusage and this repo adds no C stubs,
   so read the counter ru_maxrss is sourced from on Linux — VmHWM in
   /proc/self/status (kB) — and gate it to 0 where procfs is absent. *)
let max_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            let digits =
              String.to_seq line
              |> Seq.filter (fun c -> c >= '0' && c <= '9')
              |> String.of_seq
            in
            (try int_of_string digits * 1024 with Failure _ -> 0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in_noerr ic;
      v

(* Unconditional (not gated on the profiling flag): the serve path
   samples it at stats/health time, a few calls per interval. *)
let note_rss () = Metrics.set_max m_max_rss (float_of_int (max_rss_bytes ()))

let m_doc_alloc =
  Metrics.histogram ~help:"words allocated per document (minor+major-promoted)"
    ~buckets:[| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 |]
    "doc_alloc_words"

let m_stage_minor =
  Array.map
    (fun st ->
      Metrics.counter
        ~help:("minor words allocated in stage " ^ stage_name st)
        ("gc_minor_words_" ^ stage_name st))
    stages

let m_stage_promoted =
  Array.map
    (fun st ->
      Metrics.counter
        ~help:("words promoted in stage " ^ stage_name st)
        ("gc_promoted_words_" ^ stage_name st))
    stages

(* GC stat fields are floats; counters are ints. Deltas from a single
   domain's quick_stat are non-negative in practice, but clamp anyway —
   [Metrics.add] rejects negatives. *)
let clampi f = if f > 0. then int_of_float f else 0

let note_watermark (s : Gc.stat) =
  Metrics.set_max m_top_heap (float_of_int (s.top_heap_words * word_bytes))

(* Stage brackets run on the hot path — the windows stage fires once per
   surviving entity — so the enabled path must not allocate, or the probe
   perturbs the quantity it measures. [Gc.minor_words] is an unboxed-float
   [@@noalloc] external, the deltas stay in registers (the clamp is inlined
   rather than calling [clampi], which would box its argument), and
   exception safety comes from [match ... with exception] instead of a
   [Fun.protect] closure that would capture (and box) the start values.

   Promoted words have no unboxed accessor — [Gc.counters] allocates a
   tuple — so only the per-document stages (everything but Windows) read
   them. Promotion during a windows search is still attributed to the
   enclosing heap_merge stage: stage deltas are inclusive by contract. *)
let promoted () =
  let _, p, _ = Gc.counters () in
  p

(* A second facility shares these brackets: when {!Slowlog} is armed,
   each stage's wall time accumulates into the per-domain slowlog
   scratch, so a slow request's stage breakdown can be reconstructed
   even when it was not sampled for tracing. Disabled cost is one more
   atomic load; when slowlog is armed the clock reads box two floats
   per bracket (documented perturbation of the GC stage counters — the
   two facilities are rarely armed together outside tests). *)
let with_stage st f =
  let prof_on = Atomic.get on in
  let slow_on = Slowlog.stage_armed () in
  if not (prof_on || slow_on) then f ()
  else begin
    if prof_on then Atomic.incr n_captures;
    let i = stage_idx st in
    let track_promoted = prof_on && st <> Windows in
    let p0 = if track_promoted then promoted () else 0. in
    let m0 = if prof_on then Gc.minor_words () else 0. in
    let t0 = if slow_on then Slowlog.stage_clock () else 0. in
    match f () with
    | v ->
        if prof_on then begin
          let d = Gc.minor_words () -. m0 in
          Metrics.add m_stage_minor.(i) (if d > 0. then int_of_float d else 0);
          if track_promoted then
            Metrics.add m_stage_promoted.(i) (clampi (promoted () -. p0))
        end;
        if slow_on then Slowlog.note_stage i (Slowlog.stage_clock () -. t0);
        v
    | exception e ->
        if prof_on then begin
          let d = Gc.minor_words () -. m0 in
          Metrics.add m_stage_minor.(i) (if d > 0. then int_of_float d else 0);
          if track_promoted then
            Metrics.add m_stage_promoted.(i) (clampi (promoted () -. p0))
        end;
        if slow_on then Slowlog.note_stage i (Slowlog.stage_clock () -. t0);
        raise e
  end

let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let with_doc f =
  if not (Atomic.get on) then f ()
  else begin
    let s0 = capture () in
    Fun.protect
      ~finally:(fun () ->
        let s1 = capture () in
        Metrics.add m_minor (clampi (s1.minor_words -. s0.minor_words));
        Metrics.add m_promoted
          (clampi (s1.promoted_words -. s0.promoted_words));
        Metrics.add m_major (max 0 (s1.major_collections - s0.major_collections));
        Metrics.observe m_doc_alloc (Float.max 0. (allocated s1 -. allocated s0));
        note_watermark s1)
      f
  end

(* ------------------------------------------------------------------ *)
(* Flame profiles                                                      *)

type frame = { stack : string list; self_ns : int64; calls : int }

let flame_of_spans spans =
  (* Regroup per domain, preserving drain order (start_ns-sorted) within
     each: nesting only makes sense inside one domain's span stream. *)
  let by_domain = Hashtbl.create 7 in
  let domains = ref [] in
  List.iter
    (fun (s : Trace.span) ->
      match Hashtbl.find_opt by_domain s.domain with
      | Some r -> r := s :: !r
      | None ->
          Hashtbl.add by_domain s.domain (ref [ s ]);
          domains := s.domain :: !domains)
    spans;
  let acc = Hashtbl.create 32 in
  let bump path dself dcalls =
    match Hashtbl.find_opt acc path with
    | Some (s, c) ->
        s := Int64.add !s dself;
        c := !c + dcalls
    | None -> Hashtbl.add acc path (ref dself, ref dcalls)
  in
  List.iter
    (fun dom ->
      let dspans = List.rev !(Hashtbl.find by_domain dom) in
      (* Enclosing spans, innermost first: (span, end_ns, path). A span
         on the stack encloses the next one iff it is strictly shallower
         and its interval still covers the next start. *)
      let stack = ref [] in
      List.iter
        (fun (s : Trace.span) ->
          let rec pop () =
            match !stack with
            | ((top : Trace.span), top_end, _) :: rest
              when top.depth >= s.depth || Int64.compare top_end s.start_ns <= 0
              ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          let parent = match !stack with (_, _, p) :: _ -> Some p | [] -> None in
          let path =
            match parent with Some p -> p @ [ s.name ] | None -> [ s.name ]
          in
          bump path s.dur_ns 1;
          (* Self time = own duration minus children's durations: charge
             this span's full duration to its frame, discharge it from
             the parent's. *)
          (match parent with
          | Some p -> bump p (Int64.neg s.dur_ns) 0
          | None -> ());
          stack := (s, Int64.add s.start_ns s.dur_ns, path) :: !stack)
        dspans)
    (List.rev !domains);
  Hashtbl.fold
    (fun path (s, c) l -> { stack = path; self_ns = !s; calls = !c } :: l)
    acc []
  |> List.sort (fun a b -> compare a.stack b.stack)

let to_folded frames =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      if Int64.compare f.self_ns 0L > 0 then
        Buffer.add_string buf
          (Printf.sprintf "%s %Ld\n" (String.concat ";" f.stack) f.self_ns))
    frames;
  Buffer.contents buf

let render_top ?(top = 10) frames =
  let by_self =
    List.sort (fun a b -> Int64.compare b.self_ns a.self_ns) frames
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%12s %8s  %s\n" "SELF_NS" "CALLS" "STACK");
  List.iteri
    (fun i f ->
      if i < top then
        Buffer.add_string buf
          (Printf.sprintf "%12Ld %8d  %s\n" (Int64.max 0L f.self_ns) f.calls
             (String.concat ";" f.stack)))
    by_self;
  Buffer.contents buf
