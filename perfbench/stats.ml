(* Clock, sample buffers and order statistics shared by the load generator
   and the traced replay. *)

(* CLOCK_MONOTONIC in nanoseconds, kept as an immediate int so recording a
   timestamp never allocates. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let ms ns = float_of_int ns /. 1e6

let s ns = float_of_int ns /. 1e9

(* A growable float buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n

  let to_array t = Array.sub t.a 0 t.n
end

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* A p99 is reported only with at least ten samples beyond it. *)
let p99_min_samples = 1000

(* Consecutive windows of at least [p99_min_samples] samples each (one
   window when there are fewer). *)
let windows xs =
  let n = Array.length xs in
  let k = max 1 (n / p99_min_samples) in
  Array.init k (fun i -> Array.sub xs (i * n / k) (((i + 1) * n / k) - (i * n / k)))

let p50 b = median (Samples.to_array b)

(* The median over consecutive windows of each window's p99, so that one
   stall of the machine moves one window, not the result. *)
let p99 b = median (Array.map (fun w -> quantile w 0.99) (windows (Samples.to_array b)))
