(* Tests for Faerie_heaps: binary min-heap and the single-heap multiway
   merge (a counting-sort gather). *)

module Min_heap = Faerie_heaps.Min_heap
module Multiway = Faerie_heaps.Multiway
module Dynarray = Faerie_util.Dynarray
module Xorshift = Faerie_util.Xorshift

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Min_heap                                                            *)
(* ------------------------------------------------------------------ *)

let drain h =
  let rec loop acc =
    match Min_heap.pop h with None -> List.rev acc | Some x -> loop (x :: acc)
  in
  loop []

let test_heap_sorts () =
  let h = Min_heap.create ~cmp:compare () in
  List.iter (Min_heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "heapsort" [ 1; 1; 2; 3; 4; 5; 9 ] (drain h)

let test_heap_peek () =
  let h = Min_heap.create ~cmp:compare () in
  check_bool "empty peek" true (Min_heap.peek h = None);
  Min_heap.push h 3;
  Min_heap.push h 1;
  check_bool "peek min" true (Min_heap.peek h = Some 1);
  check_int "peek does not pop" 2 (Min_heap.length h)

let test_heap_pop_empty () =
  let h : int Min_heap.t = Min_heap.create ~cmp:compare () in
  check_bool "pop empty" true (Min_heap.pop h = None);
  check_bool "pop_exn raises" true
    (try
       ignore (Min_heap.pop_exn h);
       false
     with Invalid_argument _ -> true)

let test_heap_replace_top () =
  let h = Min_heap.create ~cmp:compare () in
  List.iter (Min_heap.push h) [ 2; 5; 7 ];
  Min_heap.replace_top h 6;
  Alcotest.(check (list int)) "replace" [ 5; 6; 7 ] (drain h)

let test_heap_replace_top_empty () =
  let h : int Min_heap.t = Min_heap.create ~cmp:compare () in
  check_bool "raises" true
    (try
       Min_heap.replace_top h 1;
       false
     with Invalid_argument _ -> true)

let test_heap_custom_order () =
  let h = Min_heap.create ~cmp:(fun a b -> compare b a) () in
  List.iter (Min_heap.push h) [ 1; 3; 2 ];
  Alcotest.(check (list int)) "max-heap" [ 3; 2; 1 ] (drain h)

let test_heap_of_array () =
  let h = Min_heap.of_array ~cmp:compare [| 9; 4; 6; 1; 8 |] in
  Alcotest.(check (list int)) "heapify" [ 1; 4; 6; 8; 9 ] (drain h)

let test_heap_clear () =
  let h = Min_heap.create ~cmp:compare () in
  Min_heap.push h 1;
  Min_heap.clear h;
  check_bool "cleared" true (Min_heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~count:300 ~name:"heap drains sorted"
    QCheck.(list small_int)
    (fun l ->
      let h = Min_heap.create ~cmp:compare () in
      List.iter (Min_heap.push h) l;
      drain h = List.sort compare l)

let prop_heapify_equals_pushes =
  QCheck.Test.make ~count:300 ~name:"of_array equals repeated push"
    QCheck.(array small_int)
    (fun a ->
      let h1 = Min_heap.of_array ~cmp:compare a in
      let h2 = Min_heap.create ~cmp:compare () in
      Array.iter (Min_heap.push h2) a;
      drain h1 = drain h2)

let prop_replace_top_is_pop_push =
  QCheck.Test.make ~count:300 ~name:"replace_top == pop;push"
    QCheck.(pair (list small_int) small_int)
    (fun (l, x) ->
      QCheck.assume (l <> []);
      let h1 = Min_heap.create ~cmp:compare () in
      let h2 = Min_heap.create ~cmp:compare () in
      List.iter (Min_heap.push h1) l;
      List.iter (Min_heap.push h2) l;
      Min_heap.replace_top h1 x;
      ignore (Min_heap.pop_exn h2);
      Min_heap.push h2 x;
      drain h1 = drain h2)

(* ------------------------------------------------------------------ *)
(* Multiway                                                            *)
(* ------------------------------------------------------------------ *)

(* Reference: bucket positions per entity with a hashtable. *)
let reference_entity_positions lists =
  let h = Hashtbl.create 16 in
  Array.iteri
    (fun pos l ->
      Array.iter
        (fun e ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt h e) in
          Hashtbl.replace h e (pos :: cur))
        l)
    lists;
  Hashtbl.fold (fun e ps acc -> (e, List.rev ps) :: acc) h []
  |> List.sort compare

(* Flatten per-position lists into the (buf, offs, lens) layout
   [Inverted_index.decode_document] produces. *)
let flatten lists =
  let n = Array.length lists in
  let offs = Array.make n 0 and lens = Array.make n 0 in
  let total = Array.fold_left (fun acc l -> acc + Array.length l) 0 lists in
  let buf = Array.make (max 1 total) 0 in
  let at = ref 0 in
  Array.iteri
    (fun i l ->
      offs.(i) <- !at;
      lens.(i) <- Array.length l;
      Array.blit l 0 buf !at (Array.length l);
      at := !at + Array.length l)
    lists;
  (buf, offs, lens)

let run_multiway lists =
  let acc = ref [] in
  let buf, offs, lens = flatten lists in
  Multiway.iter_entity_positions ~n_positions:(Array.length lists)
    ~buf ~offs ~lens
    ~f:(fun ~entity ~positions ~n ->
      acc := (entity, Array.to_list (Array.sub positions 0 n)) :: !acc)
    ();
  List.rev !acc

let test_multiway_basic () =
  let lists = [| [| 1; 4 |]; [||]; [| 1; 3 |]; [| 3 |] |] in
  Alcotest.(check (list (pair int (list int))))
    "merged"
    [ (1, [ 0; 2 ]); (3, [ 2; 3 ]); (4, [ 0 ]) ]
    (run_multiway lists)

let test_multiway_entity_order_ascending () =
  let lists = [| [| 9 |]; [| 2 |]; [| 5 |] |] in
  Alcotest.(check (list int))
    "entities ascend" [ 2; 5; 9 ]
    (List.map fst (run_multiway lists))

let test_multiway_empty () =
  Alcotest.(check (list (pair int (list int)))) "no lists" [] (run_multiway [||]);
  Alcotest.(check (list (pair int (list int))))
    "all empty" []
    (run_multiway [| [||]; [||] |])

let arb_lists =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 12)
        (list_size (int_bound 5) (int_bound 8)
        |> map (fun l -> Array.of_list (List.sort_uniq compare l))))
  in
  QCheck.make
    ~print:(fun ls ->
      String.concat ";"
        (Array.to_list
           (Array.map
              (fun a ->
                "["
                ^ String.concat "," (Array.to_list (Array.map string_of_int a))
                ^ "]")
              ls)))
    (QCheck.Gen.map Array.of_list gen)

let prop_multiway_matches_reference =
  QCheck.Test.make ~count:500 ~name:"multiway merge matches hashtable reference"
    arb_lists
    (fun lists ->
      run_multiway lists = reference_entity_positions lists)

let prop_multiway_scans_once =
  QCheck.Test.make ~count:200 ~name:"heap_stats postings match emitted total"
    arb_lists
    (fun lists ->
      let _, total =
        Multiway.heap_stats ~n_positions:(Array.length lists)
          ~length_at:(fun i -> Array.length lists.(i))
      in
      let emitted =
        List.fold_left
          (fun acc (_, ps) -> acc + List.length ps)
          0 (run_multiway lists)
      in
      total = emitted)

(* A document as [Inverted_index.decode_document] lays it out: each
   distinct token's list is stored once, and every position holding that
   token points at the same slice. Ids are either small and dense, or
   sparse and above 10^5, so both ways of ordering the touched ids run;
   the document may be empty. *)
let arb_doc =
  let gen =
    QCheck.Gen.(
      bool >>= fun sparse ->
      let id = if sparse then int_range 100_001 300_000 else int_bound 8 in
      list_size (int_range 1 5)
        (list_size (int_bound 5) id
        >|= fun l -> Array.of_list (List.sort_uniq compare l))
      >>= fun vocab ->
      let vocab = Array.of_list vocab in
      list_size (int_bound 12) (int_bound (Array.length vocab - 1))
      >|= fun doc -> (vocab, Array.of_list doc))
  in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  QCheck.make
    ~print:(fun (vocab, doc) ->
      Printf.sprintf "vocab=%s doc=[%s]"
        (String.concat ";"
           (Array.to_list (Array.map (fun l -> "[" ^ ints l ^ "]") vocab)))
        (ints doc))
    gen

let layout (vocab, doc) =
  let buf, voffs, vlens = flatten vocab in
  let offs = Array.map (fun t -> voffs.(t)) doc in
  let lens = Array.map (fun t -> vlens.(t)) doc in
  (buf, offs, lens)

(* Streams the gather over [doc], raising [Exit] from [f] at the
   [stop_after]-th entity when given; returns the entities seen. *)
let run_doc ?stop_after d =
  let buf, offs, lens = layout d in
  let acc = ref [] in
  (try
     Multiway.iter_entity_positions ~n_positions:(Array.length offs) ~buf ~offs
       ~lens
       ~f:(fun ~entity ~positions ~n ->
         if Some (List.length !acc) = stop_after then raise Exit;
         acc := (entity, Array.to_list (Array.sub positions 0 n)) :: !acc)
       ()
   with Exit -> ());
  List.rev !acc

let reference_doc (vocab, doc) =
  reference_entity_positions (Array.map (fun t -> vocab.(t)) doc)

let prop_shared_slices_match_reference =
  QCheck.Test.make ~count:500
    ~name:"gather over shared slices and sparse ids matches reference" arb_doc
    (fun d -> run_doc d = reference_doc d)

let prop_raising_f_leaves_scratch_clean =
  QCheck.Test.make ~count:300
    ~name:"an f that raises midway leaves the next run correct"
    QCheck.(pair arb_doc small_nat)
    (fun (d, k) ->
      let expected = reference_doc d in
      let stop = k mod (List.length expected + 1) in
      run_doc ~stop_after:stop d
      = List.filteri (fun i _ -> i < stop) expected
      && run_doc d = expected)

module Metrics = Faerie_obs.Metrics

let test_merge_counters_pinned () =
  let counters () =
    let snap = Metrics.snapshot () in
    ( Metrics.counter_value snap "heap_pops",
      Metrics.counter_value snap "heap_list_advances",
      Metrics.counter_value snap "heap_merge_runs" )
  in
  let p0, a0, r0 = counters () in
  (* Four lists, one empty: 5 postings, 3 of them heads. Then a token
     repeated at three positions: each position pops the shared list. *)
  ignore (run_multiway [| [| 1; 4 |]; [||]; [| 1; 3 |]; [| 3 |] |]);
  ignore (run_doc ([| [| 2; 7 |] |], [| 0; 0; 0 |]));
  let p1, a1, r1 = counters () in
  check_int "heap_pops = postings" (5 + 6) (p1 - p0);
  check_int "heap_list_advances = postings - non-empty lists" (2 + 3) (a1 - a0);
  check_int "heap_merge_runs" 2 (r1 - r0)

(* ------------------------------------------------------------------ *)
(* Int_heap                                                            *)
(* ------------------------------------------------------------------ *)

module Int_heap = Faerie_heaps.Int_heap

let test_int_heap_sorts () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 4; 1; 7; 1; 0; 9 ];
  let rec drain acc =
    if Int_heap.is_empty h then List.rev acc else drain (Int_heap.pop_exn h :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 4; 7; 9 ] (drain [])

let test_int_heap_replace_top () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 2; 5; 7 ];
  Int_heap.replace_top h 6;
  check_int "new min" 5 (Int_heap.pop_exn h);
  check_int "then 6" 6 (Int_heap.pop_exn h)

let test_int_heap_empty () =
  let h = Int_heap.create () in
  check_bool "pop raises" true
    (try
       ignore (Int_heap.pop_exn h);
       false
     with Invalid_argument _ -> true)

let prop_int_heap_sorts =
  QCheck.Test.make ~count:300 ~name:"int heap drains sorted"
    QCheck.(list small_nat)
    (fun l ->
      let h = Int_heap.create () in
      List.iter (Int_heap.push h) l;
      let rec drain acc =
        if Int_heap.is_empty h then List.rev acc
        else drain (Int_heap.pop_exn h :: acc)
      in
      drain [] = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Tmerge                                                              *)
(* ------------------------------------------------------------------ *)

module Tmerge = Faerie_heaps.Tmerge

let reference_tcount lists t =
  let h = Hashtbl.create 16 in
  Array.iter
    (Array.iter (fun v ->
         Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v))))
    lists;
  Hashtbl.fold (fun v c acc -> if c >= t then (v, c) :: acc else acc) h []
  |> List.sort compare

let run_tmerge algo lists t =
  let acc = ref [] in
  (match algo with
  | `Count -> Tmerge.merge_count ~lists ~f:(fun v c -> if c >= t then acc := (v, c) :: !acc)
  | `Skip -> Tmerge.merge_skip ~lists ~t ~f:(fun v c -> acc := (v, c) :: !acc)
  | `Divide -> Tmerge.divide_skip ~lists ~t ~f:(fun v c -> acc := (v, c) :: !acc));
  List.sort compare !acc

let test_tmerge_basic () =
  let lists = [| [| 1; 3; 5 |]; [| 1; 2; 5 |]; [| 5; 9 |] |] in
  Alcotest.(check (list (pair int int)))
    "t=2" [ (1, 2); (5, 3) ]
    (run_tmerge `Skip lists 2);
  Alcotest.(check (list (pair int int)))
    "t=3" [ (5, 3) ]
    (run_tmerge `Divide lists 3);
  Alcotest.(check (list (pair int int)))
    "t=1 counts all" [ (1, 2); (2, 1); (3, 1); (5, 3); (9, 1) ]
    (run_tmerge `Count lists 1)

let test_tmerge_t_exceeds_lists () =
  let lists = [| [| 1 |]; [| 1 |] |] in
  Alcotest.(check (list (pair int int))) "t=3 empty" [] (run_tmerge `Skip lists 3);
  Alcotest.(check (list (pair int int))) "t=3 empty (divide)" [] (run_tmerge `Divide lists 3)

let test_tmerge_empty_lists () =
  Alcotest.(check (list (pair int int))) "no lists" [] (run_tmerge `Skip [||] 1);
  Alcotest.(check (list (pair int int)))
    "empty inner" []
    (run_tmerge `Divide [| [||]; [||] |] 1)

(* distinct ascending lists *)
let arb_tmerge_case =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 8)
           (list_size (int_bound 12) (int_bound 25)
           |> map (fun l -> Array.of_list (List.sort_uniq compare l)))
        |> map Array.of_list)
        (int_range 1 6))
  in
  QCheck.make
    ~print:(fun (ls, t) ->
      Printf.sprintf "t=%d lists=%s" t
        (String.concat ";"
           (Array.to_list
              (Array.map
                 (fun a ->
                   "["
                   ^ String.concat ","
                       (Array.to_list (Array.map string_of_int a))
                   ^ "]")
                 ls))))
    gen

let prop_merge_skip_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"MergeSkip matches counting reference"
    arb_tmerge_case
    (fun (lists, t) -> run_tmerge `Skip lists t = reference_tcount lists t)

let prop_divide_skip_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"DivideSkip matches counting reference"
    arb_tmerge_case
    (fun (lists, t) -> run_tmerge `Divide lists t = reference_tcount lists t)

let prop_divide_skip_all_long_counts =
  QCheck.Test.make ~count:500 ~name:"DivideSkip with forced long-list counts"
    arb_tmerge_case
    (fun (lists, t) ->
      let acc = ref [] in
      Tmerge.divide_skip_with ~long_lists:(t - 1) ~lists ~t ~f:(fun v c ->
          acc := (v, c) :: !acc);
      List.sort compare !acc = reference_tcount lists t)

let test_heap_stats () =
  let lists = [| [| 1; 2 |]; [||]; [| 3 |] |] in
  Alcotest.(check (pair int int))
    "stats" (2, 3)
    (Multiway.heap_stats ~n_positions:3 ~length_at:(fun i -> Array.length lists.(i)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faerie_heaps"
    [
      ( "min_heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "replace_top" `Quick test_heap_replace_top;
          Alcotest.test_case "replace_top empty" `Quick test_heap_replace_top_empty;
          Alcotest.test_case "custom order" `Quick test_heap_custom_order;
          Alcotest.test_case "of_array" `Quick test_heap_of_array;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          q prop_heap_sorts;
          q prop_heapify_equals_pushes;
          q prop_replace_top_is_pop_push;
        ] );
      ( "multiway",
        [
          Alcotest.test_case "basic" `Quick test_multiway_basic;
          Alcotest.test_case "ascending entities" `Quick
            test_multiway_entity_order_ascending;
          Alcotest.test_case "empty" `Quick test_multiway_empty;
          Alcotest.test_case "heap stats" `Quick test_heap_stats;
          q prop_multiway_matches_reference;
          q prop_multiway_scans_once;
        ] );
      ( "gather_doc",
        [
          q prop_shared_slices_match_reference;
          q prop_raising_f_leaves_scratch_clean;
          Alcotest.test_case "counters pinned" `Quick test_merge_counters_pinned;
        ] );
      ( "int_heap",
        [
          Alcotest.test_case "sorts" `Quick test_int_heap_sorts;
          Alcotest.test_case "replace_top" `Quick test_int_heap_replace_top;
          Alcotest.test_case "empty" `Quick test_int_heap_empty;
          q prop_int_heap_sorts;
        ] );
      ( "tmerge",
        [
          Alcotest.test_case "basic" `Quick test_tmerge_basic;
          Alcotest.test_case "t exceeds lists" `Quick test_tmerge_t_exceeds_lists;
          Alcotest.test_case "empty lists" `Quick test_tmerge_empty_lists;
          q prop_merge_skip_matches_reference;
          q prop_divide_skip_matches_reference;
          q prop_divide_skip_all_long_counts;
        ] );
    ]
