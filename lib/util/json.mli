(** The repo's one JSON codec: the NDJSON surfaces (serve protocol,
    quarantine dead-letter records), bench snapshots, and the escaper
    behind every observability JSONL line.

    Self-contained on purpose: the repo's only runtime dependencies are the
    compiler distribution plus cmdliner, so the few places that must
    {e read} JSON (serve requests, quarantine replays) share this module
    instead of pulling in a JSON library. It is a strict subset of JSON:
    numbers parse as OCaml floats, strings support the standard escapes
    including [\uXXXX] (encoded back as UTF-8), and the parser rejects
    trailing garbage. It is meant for small one-line documents, not for
    streaming gigabyte payloads. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** insertion order preserved *)

val to_string : t -> string
(** Compact one-line rendering (no added whitespace). Integral floats in
    int range print without a decimal point, so counters round-trip as
    ["42"] rather than ["42."]. *)

val add_escaped : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string literal: ["\""], ["\\"] and the
    control bytes [\n \r \t \b \f] take their short escapes, every
    other byte below [0x20] becomes [\u00XX], and the rest (UTF-8
    included) is copied verbatim. This is the one JSON string escaper:
    every hand-rendered JSON line in the repo goes through it, so
    whatever it emits {!of_string} reads back unchanged. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; [Error msg] on malformed input (never
    raises). Leading/trailing whitespace is allowed, trailing non-space
    bytes are an error. *)

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val to_str : t -> string option

val to_num : t -> float option

val to_int : t -> int option
(** [Num] with an integral value in [int] range. *)

val to_list : t -> t list option

val to_bool : t -> bool option
