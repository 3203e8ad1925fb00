(** The decode-step cost grid.  Decode latency is a function of (batch,
    KV-cache length); each row holds the exact price of every batch
    [1 .. width] at one anchor cache length, so only the cache-length
    axis is interpolated.

    A lookup at an anchor length answers from its row; any other length
    inside the grid lerps the two bracketing rows' entries for the same
    batch.  Linear interpolation cannot overshoot its endpoints;
    fidelity between rows is {!Calibration2d}'s business. *)

type t

val anchor_lens : max_len:int -> int list
(** 1 and every power of two up to [max_len], plus [max_len]; sorted,
    distinct.  Raises [Invalid_argument] on [max_len < 1]. *)

val probe_lens : max_len:int -> int list
(** The validation grid: {!anchor_lens} plus each bracket's midpoint —
    the cache lengths the calibration prices through the exact oracle
    to measure (and bound) interpolation error. *)

val fit : rows:(int * Calibration.entry array) list -> (t, string) result
(** Build the grid from exact rows [(cache_len, prices)], where
    [prices.(b - 1)] is batch [b]'s entry.  [Error] on an empty list, a
    length below 1, duplicate lengths, or rows that are empty or of
    different widths; order is irrelevant. *)

val lens : t -> int list
(** Anchor cache lengths, sorted. *)

val lookup : t -> batch:int -> cache_len:int -> Calibration.entry option
(** O(log lens): the row's entry at an anchor length, a lerp of cycles
    (rounded), latency and energy between the bracketing rows
    otherwise; [None] for a length outside the anchors or a batch past
    the rows' width.  Raises [Invalid_argument] on [batch < 1] or
    [cache_len < 1]. *)
