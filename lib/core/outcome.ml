
type exn_info = { exn_name : string; message : string; backtrace : string }

let exn_info_of ?backtrace exn =
  {
    exn_name = Printexc.exn_slot_name exn;
    message = Printexc.to_string exn;
    backtrace =
      (match backtrace with Some b -> b | None -> Printexc.get_backtrace ());
  }

type shed_cause = Deadline_expired | Queue_full | Shutdown

let shed_cause_to_string = function
  | Deadline_expired -> "deadline already expired"
  | Queue_full -> "admission queue full"
  | Shutdown -> "service shutting down"

type error =
  | Doc_too_large of { bytes : int; limit : int }
  | Budget_exhausted of Budget.exhaustion
  | Tokenize_error of string
  | Corrupt_index of string
  | Injected_fault of string
  | Worker_crash of exn_info
  | Shed of shed_cause
  | Quarantined of { attempts : int; last : error }

type degradation =
  | Oversize_chunked of { bytes : int; limit : int }
  | Partial of Budget.exhaustion
  | Shard_partial of { n_shards : int; missing : int list }

type 'a t = Ok of 'a | Degraded of 'a * degradation | Failed of error

let is_ok = function Ok _ -> true | Degraded _ | Failed _ -> false

let is_failed = function Failed _ -> true | Ok _ | Degraded _ -> false

let matches = function
  | Ok v | Degraded (v, _) -> Some v
  | Failed _ -> None

let rec error_to_string = function
  | Doc_too_large { bytes; limit } ->
      Printf.sprintf "document too large (%d bytes, limit %d)" bytes limit
  | Budget_exhausted e ->
      Printf.sprintf "budget exhausted (%s)" (Budget.exhaustion_to_string e)
  | Tokenize_error msg -> Printf.sprintf "tokenization failed: %s" msg
  | Corrupt_index msg -> Printf.sprintf "corrupt index: %s" msg
  | Injected_fault site -> Printf.sprintf "injected fault at site %S" site
  | Worker_crash { exn_name; message; _ } ->
      Printf.sprintf "worker crashed: %s (%s)" exn_name message
  | Shed cause -> Printf.sprintf "shed: %s" (shed_cause_to_string cause)
  | Quarantined { attempts; last } ->
      Printf.sprintf "quarantined after %d attempts (last: %s)" attempts
        (error_to_string last)

let degradation_to_string = function
  | Oversize_chunked { bytes; limit } ->
      Printf.sprintf "oversize document (%d bytes > %d): chunked processing"
        bytes limit
  | Partial e ->
      Printf.sprintf "partial results: %s budget exhausted"
        (Budget.exhaustion_to_string e)
  | Shard_partial { n_shards; missing } ->
      Printf.sprintf "partial results: %d of %d shards missing (%s)"
        (List.length missing) n_shards
        (String.concat "," (List.map string_of_int missing))

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

type cls = [ `Ok | `Degraded | `Failed | `Shed | `Quarantined ]

let classify = function
  | Ok _ -> `Ok
  | Degraded _ -> `Degraded
  | Failed (Shed _) -> `Shed
  | Failed (Quarantined _) -> `Quarantined
  | Failed _ -> `Failed

let class_name = function
  | `Ok -> "ok"
  | `Degraded -> "degraded"
  | `Failed -> "failed"
  | `Shed -> "shed"
  | `Quarantined -> "quarantined"

type summary = {
  n_docs : int;
  n_ok : int;
  n_degraded : int;
  n_failed : int;
  n_shed : int;
  n_quarantined : int;
  failures : (int * error) list;
  elapsed_ns : int64;
}

let summarize ?(elapsed_ns = 0L) outcomes =
  let n_ok = ref 0
  and n_degraded = ref 0
  and n_failed = ref 0
  and n_shed = ref 0
  and n_quarantined = ref 0 in
  let failures = ref [] in
  Array.iteri
    (fun i o ->
      match classify o with
      | `Ok -> incr n_ok
      | `Degraded -> incr n_degraded
      | `Shed -> incr n_shed
      | `Quarantined -> incr n_quarantined
      | `Failed -> (
          incr n_failed;
          match o with
          | Failed err -> failures := (i, err) :: !failures
          | Ok _ | Degraded _ -> assert false))
    outcomes;
  {
    n_docs = Array.length outcomes;
    n_ok = !n_ok;
    n_degraded = !n_degraded;
    n_failed = !n_failed;
    n_shed = !n_shed;
    n_quarantined = !n_quarantined;
    failures = List.rev !failures;
    elapsed_ns;
  }

let pp_summary ppf s =
  Format.fprintf ppf "%d documents: %d ok, %d degraded, %d failed" s.n_docs
    s.n_ok s.n_degraded s.n_failed;
  if s.n_shed > 0 then Format.fprintf ppf ", %d shed" s.n_shed;
  if s.n_quarantined > 0 then
    Format.fprintf ppf ", %d quarantined" s.n_quarantined;
  if s.elapsed_ns > 0L then
    Format.fprintf ppf " in %.1f ms"
      (Int64.to_float s.elapsed_ns /. 1e6)

(* Locked by test_robustness: the serve loop prints this as its final
   stderr line, and the smoke CI job greps it. *)
let summary_to_json s =
  Printf.sprintf
    "{\"docs\":%d,\"ok\":%d,\"degraded\":%d,\"failed\":%d,\"shed\":%d,\"quarantined\":%d,\"elapsed_ns\":%Ld}"
    s.n_docs s.n_ok s.n_degraded s.n_failed s.n_shed s.n_quarantined
    s.elapsed_ns
