(** Specialized binary min-heap over plain [int] keys.

    The multi-heap baseline and {!Tmerge} push one key per posting, and
    {!Multiway} sorts a document's entity ids with it, so the generic
    {!Min_heap} (closure comparator, checked vector accesses) is too slow
    for them. Keys here are compared with the native [int] order;
    callers encode (value, source) pairs as [(value lsl shift) lor source],
    which preserves the lexicographic order a merge needs. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> int -> unit

val peek_exn : t -> int
(** @raise Invalid_argument on an empty heap. *)

val pop_exn : t -> int
(** @raise Invalid_argument on an empty heap. *)

val replace_top : t -> int -> unit
(** Replace the minimum and re-sift — one sift instead of pop + push.

    @raise Invalid_argument on an empty heap. *)

val clear : t -> unit
