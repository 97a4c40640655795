(** Multiway merge of the document's inverted lists — the "single heap" of
    the paper (Section 3.3).

    Each document token position has an inverted list (entity ids, sorted
    ascending). The merge streams out every entity's complete position
    list, in ascending entity order, scanning each inverted list once.

    The paper merges with a heap over the list heads, paying a log factor
    per posting. This module gathers instead: a counting sort of the
    postings by entity id (count per id, prefix-sum into write offsets,
    scatter each position into its entity's slice), linear in the
    postings. The touched ids come in order from a scan of the id range
    when that range is within a small multiple of the postings count, and
    from a heap sort of the touched ids otherwise, so no document pays for
    the dictionary's whole id range. The working set, kept per
    domain and reused, is one slot per posting plus one counter per entity
    id.

    The lists arrive pre-decoded in one flat buffer (see
    {!Faerie_index.Inverted_index.decode_document}): position [i]'s list is
    [buf[offs.(i) .. offs.(i) + lens.(i))]. Several positions may share one
    slice (a repeated token). *)

val iter_entity_positions :
  n_positions:int ->
  buf:int array ->
  offs:int array ->
  lens:int array ->
  f:(entity:int -> positions:int array -> n:int -> unit) ->
  unit ->
  unit
(** [iter_entity_positions ~n_positions ~buf ~offs ~lens ~f ()] calls
    [f ~entity ~positions ~n] once per distinct entity id occurring in any
    of the lists, in ascending entity order, with [positions.(0 .. n-1)]
    the ascending document positions whose list contains the entity (slots
    at [n] and beyond are garbage). The [positions] buffer is reused across
    calls — callers must copy the prefix if they retain it. An exception
    from [f] ends the stream and leaves the scratch ready for the next
    call.

    The [heap_pops] counter grows by the postings gathered and
    [heap_list_advances] by the postings after the first of each non-empty
    list — the pops and cursor advances of the paper's heap.

    @raise Invalid_argument when an id is negative, or falls outside the
    range spanned by the lists' first and last ids (a list not
    ascending). *)

val heap_stats : n_positions:int -> length_at:(int -> int) -> int * int
(** [(live_cursors, total_postings)] — the number of non-empty inverted
    lists (merge width) and the total number of postings the merge will
    stream ([N] in the paper's complexity table). Used by the index-size
    report (Table 5's "Heap+Array" row). *)
