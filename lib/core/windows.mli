(** Candidate-window search over a position list (Section 4.2,
    Algorithm 1).

    A window [Pe\[i..j\]] (indices into the ascending position list) is
    {e valid} when it holds at least [Tl] elements, and a {e possible
    candidate window} when additionally its token span
    [p_j - p_i + 1 <= upper]. The search walks window starts left to right;
    [binary shift] skips runs of starts whose minimal window overflows the
    span bound, and [binary span] extends a surviving start to the last
    position still inside the bound. *)

val iter_windows :
  n:int ->
  positions:int array ->
  tl:int ->
  upper:int ->
  f:(first:int -> last:int -> unit) ->
  unit ->
  unit
(** [iter_windows ~n ~positions ~tl ~upper ~f ()] searches the position
    list [positions.(0 .. n-1)] (the hot path hands in an oversized
    reusable buffer and the live length). It calls [f ~first ~last] for
    every window start [first] such that [Pe\[first .. first + tl - 1\]]
    fits in a token span of at most [upper], with [last] the largest index
    satisfying [p_last - p_first + 1 <= upper] (the binary-span extent).
    Starts are visited in ascending order. Requires [tl >= 1].

    Completeness: any substring [s] with [|s| <= upper] containing at least
    [Tl] positions has its first contained position at some emitted
    [first]. *)

val iter_windows_linear :
  n:int ->
  positions:int array ->
  tl:int ->
  upper:int ->
  f:(first:int -> last:int -> unit) ->
  unit ->
  unit
(** The plain span-and-shift search (Section 4.2's first method): every
    window start is visited and spans extend one element at a time. Emits
    exactly the same windows as {!iter_windows}; kept as the ablation
    baseline for the binary-search variant (bench section [ablations]). *)

val binary_shift :
  n:int -> positions:int array -> tl:int -> upper:int -> int -> int
(** [binary_shift ~n ~positions ~tl ~upper i] is the smallest window start
    [i' >= i] whose minimal window fits the span bound, or [n] when none
    exists. Exposed for testing; assumes the minimal window at [i] itself
    overflows or [i] is already feasible. *)

val binary_span : n:int -> positions:int array -> upper:int -> int -> int
(** [binary_span ~n ~positions ~upper i] is the largest index [x] in
    [i .. n-1] with [p_x - p_i + 1 <= upper]. Exposed for testing. *)
