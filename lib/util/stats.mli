(** Small descriptive-statistics helpers used by the benchmark harness and
    simulator reports. *)

val mean : float list -> float
(** Mean of a non-empty list; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100]: the {b nearest-rank}
    percentile, i.e. the smallest order statistic with at least
    [ceil (p/100 * n)] of the sample at or below it ([p = 0] is the
    minimum).  Always returns an element of [xs] — no interpolation —
    so a tail percentile of a latency list is an actually observed
    latency.  Singleton lists return their element for every [p];
    with two samples [a <= b], any [p <= 50] gives [a] and any
    [p > 50] gives [b].  Raises [Invalid_argument] on the empty list
    or [p] outside [0,100].  Copies [xs] into an array and takes
    {!percentile_in_place} of it. *)

val percentile_in_place : float -> float array -> float
(** {!percentile} of the sample in the array, found by selection
    (O(n) on average, no sort, no boxed element); it reorders the
    array.  Any order of the same sample gives the same answer, so a
    caller taking several percentiles of one sample (p50/p95/p99 of a
    latency trace) passes the same array to each query, with no copy.
    Raises [Invalid_argument] on the empty array or [p] outside
    [0,100]. *)

val minimum : float list -> float
val maximum : float list -> float

val ratio : float -> float -> float
(** [ratio num den] is [num /. den], infinity when [den = 0] and [num > 0],
    and 0 when both are 0. *)

val clamp : lo:float -> hi:float -> float -> float

val sum_int : int list -> int

val divide_round_up : int -> int -> int
(** Ceiling division on non-negative integers.  Raises [Invalid_argument]
    on a non-positive divisor. *)
