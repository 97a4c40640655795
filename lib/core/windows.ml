module Metrics = Faerie_obs.Metrics
module Explain = Faerie_obs.Explain

let m_probes =
  Metrics.counter ~help:"binary-search probes in span/shift window search"
    "window_probes"

let binary_span ~n:m ~positions ~upper i =
  let bound = positions.(i) + upper - 1 in
  (* Largest x in [i, min(m-1, i+upper-1)] with positions.(x) <= bound.
     positions are strictly increasing, so x <= i + upper - 1. *)
  let lo = ref i and hi = ref (min (m - 1) (i + upper - 1)) in
  let probes = ref 0 in
  while !lo < !hi do
    probes := !probes + 1;
    let mid = (!lo + !hi + 1) / 2 in
    if positions.(mid) <= bound then lo := mid else hi := mid - 1
  done;
  Metrics.add m_probes !probes;
  !lo

let rec binary_shift ~n:m ~positions ~tl ~upper i =
  if i + tl - 1 >= m then m
  else begin
    let j = i + tl - 1 in
    if positions.(j) - positions.(i) + 1 <= upper then i
    else begin
      (* Find the smallest mid in [i, j] with
         F''(mid) = (p_j + (mid - i)) - p_mid + 1 <= upper.
         F'' is non-increasing in mid and underestimates the true span
         F'(mid) = p_{mid+j-i} - p_mid + 1, so everything before mid is
         safely skipped (Lemma 4). F''(j) = j - i + 1 = tl <= upper holds
         whenever any window can fit, so the search is well defined. *)
      let lo = ref i and hi = ref j in
      let probes = ref 0 in
      while !lo < !hi do
        probes := !probes + 1;
        let mid = (!lo + !hi) / 2 in
        if positions.(j) + (mid - i) - positions.(mid) + 1 > upper then
          lo := mid + 1
        else hi := mid
      done;
      Metrics.add m_probes !probes;
      let mid = !lo in
      if mid + tl - 1 >= m then m
      else if positions.(mid + tl - 1) - positions.(mid) + 1 <= upper then mid
      else binary_shift ~n:m ~positions ~tl ~upper (mid + 1)
    end
  end

let iter_windows_linear ~n:m ~positions ~tl ~upper ~f () =
  if tl < 1 then invalid_arg "Windows.iter_windows_linear: tl must be >= 1";
  if tl <= upper then
    for i = 0 to m - tl do
      if positions.(i + tl - 1) - positions.(i) + 1 <= upper then begin
        (* plain span: extend one position at a time *)
        let x = ref (i + tl - 1) in
        while !x + 1 < m && positions.(!x + 1) - positions.(i) + 1 <= upper do
          incr x
        done;
        f ~first:i ~last:!x
      end
    done

let iter_windows ~n:m ~positions ~tl ~upper ~f () =
  if tl < 1 then invalid_arg "Windows.iter_windows: tl must be >= 1";
  if tl <= upper then begin
    let i = ref 0 in
    while !i + tl - 1 < m do
      let i0 = !i in
      let j = i0 + tl - 1 in
      if positions.(j) - positions.(i0) + 1 <= upper then begin
        let last = binary_span ~n:m ~positions ~upper i0 in
        f ~first:i0 ~last;
        i := i0 + 1
      end
      else begin
        (* [armed] is one atomic load; the window search itself carries no
           sink, so skip events attribute to the entity context set by the
           caller (Single_heap sets it before streaming each entity). *)
        if Explain.armed () then Explain.skip Explain.Span_pruned;
        let next = binary_shift ~n:m ~positions ~tl ~upper i0 in
        (* binary_shift never returns a start before i0. *)
        let next = max next (i0 + 1) in
        if next > i0 + 1 && Explain.armed () then
          Explain.skip (Explain.Shift_jumped (next - i0));
        i := next
      end
    done
  end
