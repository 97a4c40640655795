(* Large-scale pipeline: index persistence, parallel extraction over a
   document collection, streaming extraction of one oversized document,
   and best-first / overlap-resolved reporting.

   Run with:  dune exec examples/large_scale.exe *)

module Sim = Faerie_sim.Sim
module Core = Faerie_core
module Problem = Core.Problem
module Extractor = Core.Extractor
module Ix = Faerie_index
module Corpus = Faerie_datagen.Corpus

let () =
  let corpus = Corpus.dblp ~seed:77 ~n_entities:5_000 ~n_documents:400 () in
  Printf.printf "== Large scale: persistence + parallelism + streaming ==\n";
  Format.printf "corpus: %a@.@." Corpus.pp_stats (Corpus.stats corpus);

  (* 1. Build the index once and persist it. *)
  let problem =
    Problem.create ~sim:(Sim.Edit_distance 2) ~q:4
      (Array.to_list corpus.Corpus.entities)
  in
  let path = Filename.temp_file "faerie_demo" ".fidx" in
  let t0 = Unix.gettimeofday () in
  Ix.Codec.save (Problem.dictionary problem) (Problem.index problem) path;
  Printf.printf "index saved to %s (%s) in %.3fs\n" path
    (Faerie_util.Bytesize.to_string (Unix.stat path).Unix.st_size)
    (Unix.gettimeofday () -. t0);

  (* 2. Reload it (no re-tokenization) and extract in parallel. *)
  let t0 = Unix.gettimeofday () in
  let _, index = Ix.Codec.load path in
  let problem = Problem.of_index ~sim:(Sim.Edit_distance 2) index in
  Printf.printf "index loaded in %.3fs\n" (Unix.gettimeofday () -. t0);
  Sys.remove path;

  let docs = Array.map (fun d -> d.Corpus.text) corpus.Corpus.documents in
  let matches = function
    | Core.Outcome.Ok ms | Core.Outcome.Degraded (ms, _) -> ms
    | Core.Outcome.Failed _ -> []
  in
  let run domains =
    let t0 = Unix.gettimeofday () in
    let per_doc, _ =
      Core.Supervisor.run_batch
        ~config:{ Core.Supervisor.default_config with domains }
        problem docs
    in
    let total =
      Array.fold_left (fun acc o -> acc + List.length (matches o)) 0 per_doc
    in
    (total, Unix.gettimeofday () -. t0)
  in
  let total1, t1 = run 1 in
  let available = Domain.recommended_domain_count () in
  let totaln, tn = run available in
  Printf.printf
    "extracted %d matches from %d documents: %.3fs on 1 domain, %.3fs on %d domains%s\n"
    total1 (Array.length docs) t1 tn available
    (if totaln = total1 then " (identical results)" else " (MISMATCH!)");

  (* 3. Stream one oversized document through a bounded buffer. *)
  let big_doc = String.concat " " (Array.to_list (Array.sub docs 0 200)) in
  let pos = ref 0 in
  let feed () =
    if !pos >= String.length big_doc then None
    else begin
      let n = min 4096 (String.length big_doc - !pos) in
      let piece = String.sub big_doc !pos n in
      pos := !pos + n;
      Some piece
    end
  in
  let t0 = Unix.gettimeofday () in
  let streamed = Core.Chunked.extract ~min_buffer_chars:16_384 problem ~feed in
  Printf.printf
    "streamed a %d-char document through a 16 KB buffer: %d matches in %.3fs\n"
    (String.length big_doc) (List.length streamed)
    (Unix.gettimeofday () -. t0);

  (* 4. Report the 3 best hits of the first document, overlap-resolved. *)
  let ex = Extractor.of_problem problem in
  let doc = Extractor.tokenize ex docs.(0) in
  let all =
    matches (Core.Parallel.outcome_of_report (Extractor.run ex (`Text docs.(0))))
  in
  let top = Core.Types.top_k 10 all in
  let clean = Core.Span_select.select top in
  print_endline "\nbest non-overlapping hits in document 0:";
  List.iteri
    (fun i r ->
      if i < 3 then Printf.printf "  %s\n" (Extractor.result_to_string ex r))
    (Extractor.results_of_char_matches ex doc clean)
