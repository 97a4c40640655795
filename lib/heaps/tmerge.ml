(* Cursors are (list index, position); the heap holds keys
   [(value lsl shift) lor list_index] so the native int order sorts by
   value first. *)

let rec bits_for n acc = if n <= 1 then acc else bits_for ((n + 1) / 2) (acc + 1)

type state = {
  lists : int array array;  (** non-empty lists only *)
  cursor : int array;
  heap : Int_heap.t;
  shift : int;
  mask : int;
}

let init lists =
  let lists = Array.of_list (List.filter (fun l -> Array.length l > 0) (Array.to_list lists)) in
  let k = Array.length lists in
  let shift = max 1 (bits_for k 0) in
  let s =
    {
      lists;
      cursor = Array.make (max k 1) 0;
      heap = Int_heap.create ~capacity:(max k 1) ();
      shift;
      mask = (1 lsl shift) - 1;
    }
  in
  Array.iteri
    (fun i l -> Int_heap.push s.heap ((l.(0) lsl shift) lor i))
    lists;
  s

let value_of s key = key lsr s.shift

let list_of s key = key land s.mask

(* Push list [i]'s current element, if any. *)
let push_current s i =
  let l = s.lists.(i) in
  if s.cursor.(i) < Array.length l then
    Int_heap.push s.heap ((l.(s.cursor.(i)) lsl s.shift) lor i)

let advance_and_push s i =
  s.cursor.(i) <- s.cursor.(i) + 1;
  push_current s i

(* First index >= from with l.(index) >= v (galloping not needed; plain
   binary search). *)
let seek l ~from v =
  let lo = ref from and hi = ref (Array.length l) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if l.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let merge_count ~lists ~f =
  let s = init lists in
  let current = ref (-1) and count = ref 0 in
  let flush () = if !count > 0 then f !current !count in
  while not (Int_heap.is_empty s.heap) do
    let key = Int_heap.pop_exn s.heap in
    let v = value_of s key and i = list_of s key in
    if v <> !current then begin
      flush ();
      current := v;
      count := 0
    end;
    incr count;
    advance_and_push s i
  done;
  flush ()

let merge_skip ~lists ~t ~f =
  let t = max 1 t in
  let s = init lists in
  let popped = ref [] in
  let pop_into_scratch () =
    let key = Int_heap.pop_exn s.heap in
    popped := list_of s key :: !popped;
    key
  in
  let continue = ref true in
  while !continue && not (Int_heap.is_empty s.heap) do
    popped := [];
    let top = Int_heap.peek_exn s.heap in
    let v = value_of s top in
    (* Pop every cursor sitting on v. *)
    let n = ref 0 in
    while
      (not (Int_heap.is_empty s.heap))
      && value_of s (Int_heap.peek_exn s.heap) = v
    do
      ignore (pop_into_scratch ());
      incr n
    done;
    if !n >= t then begin
      f v !n;
      List.iter (advance_and_push s) !popped
    end
    else begin
      (* Pop until t-1 cursors are out, then jump them all to the new top:
         any value strictly below it lives on at most t-1 lists. *)
      let extra = t - 1 - !n in
      let popped_extra = ref 0 in
      while !popped_extra < extra && not (Int_heap.is_empty s.heap) do
        ignore (pop_into_scratch ());
        incr popped_extra
      done;
      if Int_heap.is_empty s.heap then
        (* Fewer than t live cursors remain: nothing can reach t. *)
        continue := false
      else begin
        let bound = value_of s (Int_heap.peek_exn s.heap) in
        List.iter
          (fun i ->
            s.cursor.(i) <- seek s.lists.(i) ~from:(s.cursor.(i)) bound;
            push_current s i)
          !popped
      end
    end
  done

let default_long_lists ~lists ~t =
  let longest =
    Array.fold_left (fun acc l -> max acc (Array.length l)) 1 lists
  in
  let log2 = log (float_of_int (max 2 longest)) /. log 2. in
  int_of_float (float_of_int t /. (log2 +. 1.))

let divide_skip_gen ~long_lists ~lists ~t ~f =
  let t = max 1 t in
  let lists =
    Array.of_list (List.filter (fun l -> Array.length l > 0) (Array.to_list lists))
  in
  let by_length_desc = Array.copy lists in
  Array.sort (fun a b -> compare (Array.length b) (Array.length a)) by_length_desc;
  let l_count =
    let raw =
      match long_lists with
      | Some l -> l
      | None -> default_long_lists ~lists ~t
    in
    max 0 (min raw (min (t - 1) (Array.length by_length_desc)))
  in
  let long = Array.sub by_length_desc 0 l_count in
  let short =
    Array.sub by_length_desc l_count (Array.length by_length_desc - l_count)
  in
  let count_in_long v =
    Array.fold_left
      (fun acc l ->
        let i = seek l ~from:0 v in
        if i < Array.length l && l.(i) = v then acc + 1 else acc)
      0 long
  in
  merge_skip ~lists:short ~t:(t - l_count) ~f:(fun v n_short ->
      let total = n_short + count_in_long v in
      if total >= t then f v total)


let divide_skip ~lists ~t ~f = divide_skip_gen ~long_lists:None ~lists ~t ~f

let divide_skip_with ~long_lists ~lists ~t ~f =
  divide_skip_gen ~long_lists:(Some long_lists) ~lists ~t ~f
