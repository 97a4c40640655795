open Types

type outcome = char_match list Outcome.t

let char_match_of_result (r : Extractor.result) =
  {
    c_entity = r.Extractor.entity_id;
    c_start = r.Extractor.start_char;
    c_len = r.Extractor.len_chars;
    c_score = r.Extractor.score;
  }

let outcome_of_report (r : Extractor.report) : outcome =
  let conv rs = List.sort compare_char_match (List.map char_match_of_result rs) in
  match r.Extractor.outcome with
  | Outcome.Ok rs -> Outcome.Ok (conv rs)
  | Outcome.Degraded (rs, why) -> Outcome.Degraded (conv rs, why)
  | Outcome.Failed err -> Outcome.Failed err
