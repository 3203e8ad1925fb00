(** The decode-step cost grid.  Decode latency is a function of (batch,
    KV-cache length); each row holds the exact price of every batch
    [1 .. width] at one cache length, so only the cache-length axis is
    interpolated, and only between lengths that were priced.

    A lookup at a row's length answers from that row; any other length
    inside the grid lerps the two bracketing rows' entries for the same
    batch.  Linear interpolation cannot overshoot its endpoints. *)

type t

val fit :
  rows:(int * Ascend_serving.Cost.entry array) list -> (t, string) result
(** Build the grid from exact rows [(cache_len, prices)], where
    [prices.(b - 1)] is batch [b]'s entry.  [Error] on an empty list, a
    length below 1, duplicate lengths, or rows that are empty or of
    different widths; order is irrelevant. *)

val build :
  price:
    (batch:int ->
    cache_len:int ->
    (Ascend_serving.Cost.entry, string) result) ->
  max_batch:int ->
  max_len:int ->
  (t, string) result
(** Price one row per cache length of the schedule — 1, every power of
    two up to [max_len], [max_len] itself, and the midpoint of each
    bracket those leave — with every batch in [1 .. max_batch], in
    length then batch order, and {!fit} the rows.  [Error] is the first
    failed price.  Raises [Invalid_argument] on [max_batch < 1] or
    [max_len < 1]. *)

val lens : t -> int list
(** The rows' cache lengths, sorted. *)

val lookup :
  t -> batch:int -> cache_len:int -> Ascend_serving.Cost.entry option
(** O(log lens): the row's entry at a row's length, a lerp of cycles
    (rounded), latency and energy between the bracketing rows
    otherwise; [None] for a length outside the rows or a batch past the
    rows' width.  Raises [Invalid_argument] on [batch < 1] or
    [cache_len < 1]. *)
