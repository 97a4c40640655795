module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace

let m_pops =
  Metrics.counter ~help:"postings gathered into entity position lists"
    "heap_pops"

let m_advances =
  Metrics.counter
    ~help:"postings past the first of each non-empty inverted list"
    "heap_list_advances"

let m_runs = Metrics.counter ~help:"multiway merge runs" "heap_merge_runs"

(* Per-domain gather scratch, reused across runs and grown to the largest
   run seen on the domain, so a steady-state gather allocates nothing.
   [counts] is indexed by entity id and is all zeros between runs. *)
type scratch = {
  mutable counts : int array;
  mutable ids : int array;  (** touched entity ids, then in ascending order *)
  mutable ends : int array;  (** end of each ordered id's slice in [slots] *)
  mutable slots : int array;  (** positions grouped by entity *)
  mutable positions : int array;  (** one entity's positions, handed to [f] *)
  heap : Int_heap.t;  (** sorts the touched ids off the dense path *)
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        counts = [||];
        ids = [||];
        ends = [||];
        slots = [||];
        positions = [||];
        heap = Int_heap.create ();
      })

let ensure a n = if Array.length a >= n then a else Array.make n 0

(* Scan the id range [lo..hi] instead of sorting the touched ids while the
   range is at most this many times the postings count: the scan is then
   linear in postings, a sort costs a log factor over the touched ids. *)
let dense_factor = 4

(* Two-pass counting sort of the postings by entity id: count per id,
   order the touched ids and prefix-sum the counts into write offsets,
   scatter each position into its entity's slice (positions ascend within a
   slice because the scatter walks positions in order), then stream the
   slices. [total] is the postings count and [lo..hi] the id range read off
   the lists' ends. *)
let gather ~n_positions ~buf ~offs ~lens ~total ~lo ~hi ~f =
  let sc = Domain.DLS.get scratch_key in
  sc.counts <- ensure sc.counts (hi + 1);
  sc.ids <- ensure sc.ids (min total (hi - lo + 1));
  sc.slots <- ensure sc.slots total;
  sc.positions <- ensure sc.positions n_positions;
  let counts = sc.counts and ids = sc.ids and slots = sc.slots in
  let dense = hi - lo < dense_factor * total in
  (* 1. count; off the dense path, record each id the first time it shows.
     An id outside [lo..hi] means a list was not ascending: it is skipped
     here and rejected below, after [counts] is cleaned. *)
  let k = ref 0 and bad = ref false in
  for pos = 0 to n_positions - 1 do
    let o = Array.unsafe_get offs pos in
    for i = o to o + Array.unsafe_get lens pos - 1 do
      let e = Array.unsafe_get buf i in
      if e < lo || e > hi then bad := true
      else begin
        let c = Array.unsafe_get counts e in
        if c = 0 && not dense then begin
          Array.unsafe_set ids !k e;
          incr k
        end;
        Array.unsafe_set counts e (c + 1)
      end
    done
  done;
  if !bad then begin
    Array.fill counts lo (hi - lo + 1) 0;
    invalid_arg "Multiway.iter_entity_positions: inverted list not ascending"
  end;
  (* 2. order the touched ids, and turn counts into write cursors *)
  if dense then
    for e = lo to hi do
      if Array.unsafe_get counts e > 0 then begin
        Array.unsafe_set ids !k e;
        incr k
      end
    done
  else begin
    for j = 0 to !k - 1 do
      Int_heap.push sc.heap ids.(j)
    done;
    for j = 0 to !k - 1 do
      ids.(j) <- Int_heap.pop_exn sc.heap
    done
  end;
  let k = !k in
  let off = ref 0 in
  for j = 0 to k - 1 do
    let e = Array.unsafe_get ids j in
    let c = Array.unsafe_get counts e in
    Array.unsafe_set counts e !off;
    off := !off + c
  done;
  (* 3. scatter *)
  for pos = 0 to n_positions - 1 do
    let o = Array.unsafe_get offs pos in
    for i = o to o + Array.unsafe_get lens pos - 1 do
      let e = Array.unsafe_get buf i in
      let w = Array.unsafe_get counts e in
      Array.unsafe_set slots w pos;
      Array.unsafe_set counts e (w + 1)
    done
  done;
  (* Each cursor now sits at its slice's end. Zero [counts] before [f]
     first runs, so an exception from [f] leaves the scratch clean. *)
  sc.ends <- ensure sc.ends k;
  let ends = sc.ends in
  for j = 0 to k - 1 do
    let e = Array.unsafe_get ids j in
    Array.unsafe_set ends j (Array.unsafe_get counts e);
    Array.unsafe_set counts e 0
  done;
  (* 4. stream *)
  let positions = sc.positions in
  let start = ref 0 in
  for j = 0 to k - 1 do
    let stop = Array.unsafe_get ends j in
    let n = stop - !start in
    Array.blit slots !start positions 0 n;
    start := stop;
    f ~entity:(Array.unsafe_get ids j) ~positions ~n
  done

let iter_entity_positions ~n_positions ~buf ~offs ~lens ~f () =
  Faerie_util.Fault.site "heap_merge";
  if n_positions > 0 then begin
    Metrics.incr m_runs;
    let total = ref 0 and live = ref 0 and lo = ref max_int and hi = ref (-1) in
    for pos = 0 to n_positions - 1 do
      let len = lens.(pos) in
      if len > 0 then begin
        let o = offs.(pos) in
        total := !total + len;
        incr live;
        lo := min !lo buf.(o);
        hi := max !hi buf.(o + len - 1)
      end
    done;
    if !lo < 0 then
      invalid_arg "Multiway.iter_entity_positions: negative entity id";
    (* The gather visits every posting before [f] first runs. The counters
       keep the heap merge's meaning: one pop per posting, one advance per
       posting after the first of its list. *)
    Metrics.add m_pops !total;
    Metrics.add m_advances (!total - !live);
    Trace.with_span "heap_merge" (fun () ->
        if !total > 0 then
          gather ~n_positions ~buf ~offs ~lens ~total:!total ~lo:!lo ~hi:!hi ~f)
  end

let heap_stats ~n_positions ~length_at =
  let live = ref 0 and total = ref 0 in
  for pos = 0 to n_positions - 1 do
    let len = length_at pos in
    if len > 0 then begin
      incr live;
      total := !total + len
    end
  done;
  (!live, !total)
