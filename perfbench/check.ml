(* The output check, run after the server has stopped. It checks that:
   - every request got exactly one response, and no response went
     unclaimed;
   - every document response is well formed (fields, offsets inside the
     document, entity ids the dictionary has);
   - every document response has exactly the match set the in-process
     Extractor gives over the same dictionary (computed once per distinct
     document; the closed loop sends each document many times);
   - every [oracle_every]th request from a seeded offset has exactly the
     match set of the brute-force Naive oracle. [oracle_every] is prime to
     the number of documents a closed loop cycles over, so these are
     distinct documents.
   Match sets are compared as sets of (entity raw, start, length, score),
   not as bytes: the response's match order is not part of the check. *)

module W = Workload
module L = Loadgen
module Json = Faerie_util.Json
module Problem = Faerie_core.Problem
module Extractor = Faerie_core.Extractor
module Outcome = Faerie_core.Outcome
module Types = Faerie_core.Types
module Dict = Faerie_index.Dictionary
module Score = Faerie_sim.Verify.Score
module Naive = Faerie_baselines.Naive

let oracle_every = 2999

type t = {
  attempted : int;
  failed : int;
  failed_op : bool array;  (** by request ordinal *)
  checked : int;  (** responses compared with the in-process Extractor *)
  oracle : int;  (** documents compared with the Naive oracle *)
  problems : string list;  (** correctness violations, first few *)
  n_problems : int;
}

type m = { raw : string; s : int; l : int; score : float }

let score_float = function Score.Similarity f -> f | Score.Distance d -> float_of_int d

let same_set a b =
  let key m = (m.raw, m.s, m.l) in
  let sort = List.sort_uniq (fun x y -> compare (key x) (key y)) in
  let a = sort a and b = sort b in
  List.length a = List.length b
  && List.for_all2
       (fun x y -> key x = key y && Float.abs (x.score -. y.score) <= 1e-9)
       a b

let int_field j k = Option.bind (Json.member k j) Json.to_int

let run (w : W.t) (inputs : W.inputs) (r : L.run) ~seed =
  let problems = ref [] and n_problems = ref 0 in
  let problem fmt =
    Printf.ksprintf
      (fun s ->
        incr n_problems;
        if !n_problems <= 10 then problems := s :: !problems)
      fmt
  in
  let failed_op = Array.make r.L.n_log false in
  let failed = ref 0 and checked = ref 0 and oracle = ref 0 in
  let fail ord =
    incr failed;
    failed_op.(ord) <- true
  in
  let p = Problem.create ~sim:w.sim ~q:w.q (Array.to_list inputs.entities) in
  let ex = Extractor.of_problem p in
  (* the server numbers entities by dictionary line *)
  let n_entities = Array.length inputs.entities in
  let oracle_at = Random.State.int (Random.State.make [| seed; 0x6f7261 |]) oracle_every in
  let memo = Hashtbl.create 256 in
  let extractor_set d =
    match Hashtbl.find_opt memo d with
    | Some want -> want
    | None ->
        let opts = { Extractor.default_opts with metrics = false } in
        let want =
          match (Extractor.run ~opts ex (`Text inputs.docs.(d))).Extractor.outcome with
          | Outcome.Ok rs ->
              List.map
                (fun (x : Extractor.result) ->
                  {
                    raw = x.entity;
                    s = x.start_char;
                    l = x.len_chars;
                    score = score_float x.score;
                  })
                rs
          | _ ->
              problem "doc %d: in-process Extractor did not succeed" d;
              []
        in
        Hashtbl.add memo d want;
        want
  in
  let check_doc ord (s : L.sent) d =
    let text = inputs.docs.(d) in
    let n = String.length text in
    match Json.of_string s.resp with
    | Error e -> problem "op %d: malformed document response (%s)" ord e
    | Ok j -> (
        let str k = Option.bind (Json.member k j) Json.to_str in
        if str "id" <> Some (string_of_int ord) then problem "op %d: wrong id" ord;
        if
          int_field j "v" <> Some 1 || int_field j "doc" = None
          || int_field j "gen" = None
        then problem "op %d: missing doc/v/gen fields" ord;
        match str "outcome" with
        | Some "ok" -> (
            match Option.bind (Json.member "matches" j) Json.to_list with
            | None -> problem "op %d: ok response without matches" ord
            | Some ms ->
                let got =
                  List.filter_map
                    (fun mj ->
                      match
                        ( int_field mj "e",
                          int_field mj "s",
                          int_field mj "l",
                          Option.bind (Json.member "score" mj) Json.to_num )
                      with
                      | Some e, Some st, Some l, Some score
                        when st >= 0 && l >= 1 && st + l <= n
                             && e >= 0 && e < n_entities ->
                          Some { raw = inputs.entities.(e); s = st; l; score }
                      | _ ->
                          problem "op %d: malformed match %s" ord (Json.to_string mj);
                          None)
                    ms
                in
                incr checked;
                if not (same_set got (extractor_set d)) then
                  problem "op %d: %d matches, in-process Extractor gives %d" ord
                    (List.length got) (List.length (extractor_set d));
                if ord mod oracle_every = oracle_at then begin
                  incr oracle;
                  let dict = Problem.dictionary p in
                  let doc = Problem.tokenize_document p text in
                  let want =
                    List.map
                      (fun (c : Types.char_match) ->
                        {
                          raw = (Dict.entity dict c.c_entity).Faerie_index.Entity.raw;
                          s = c.c_start;
                          l = c.c_len;
                          score = score_float c.c_score;
                        })
                      (Naive.extract ~length_filtered:true p doc)
                  in
                  if not (same_set got want) then
                    problem "op %d: %d matches, Naive oracle gives %d" ord
                      (List.length got) (List.length want)
                end)
        | Some _ -> fail ord
        | None -> problem "op %d: response without outcome" ord)
  in
  for ord = 0 to r.L.n_log - 1 do
    let s = r.L.log.(ord) in
    if s.L.recv = 0 then begin
      fail ord;
      problem "op %d: no response" ord
    end;
    if s.L.dups > 0 then problem "op %d: %d extra responses" ord s.L.dups;
    if s.L.recv <> 0 then check_doc ord s s.L.doc
  done;
  List.iter (fun l -> problem "unclaimed response: %s" l) r.L.unmatched;
  {
    attempted = r.L.n_log;
    failed = !failed;
    failed_op;
    checked = !checked;
    oracle = !oracle;
    problems = List.rev !problems;
    n_problems = !n_problems;
  }
