(** The phase-aware latency oracle behind the decode engine: one LLM
    config on one core, priced separately for its two phases.

    {b Prefill} runs once per request, so it stays on the exact
    compile+simulate tier behind a (batch, prompt-length) memo — repeats
    are free, and the private execution service of the
    {!Ascend_serving.Cost} oracle caches at the fused-group level below
    that.

    {b Decode steps} are the volume term — one per generated token — and
    their latency is a function of (batch, KV-cache length).  [`Exact]
    prices each distinct point through the oracle (memoised);
    [`Surrogate] builds a {!Grid} on first use ({!Grid.build}): one row
    of exact prices for every batch at each cache length of its
    schedule, so a lookup is exact at a priced length and lerps between
    the two priced lengths around any other.  A point off the grid is
    priced by the exact tier.

    Both tiers are deterministic, counters included; the service is
    private, single-domain and in-memory, so an engine run is a pure
    function of its inputs. *)

type entry = Ascend_serving.Cost.entry = {
  cycles : int;
  latency_s : float;
  energy_j : float;
}

type costing = [ `Exact | `Surrogate ]

type t

val create :
  ?costing:costing ->
  ?max_batch:int ->
  ?max_cache_len:int ->
  core:Ascend_arch.Config.t ->
  Ascend_nn.Llm.config ->
  unit ->
  t
(** [costing] defaults to [`Exact]; [max_batch] (default 8) and
    [max_cache_len] (default 64) bound the surrogate grid.  Raises
    [Invalid_argument] on non-positive bounds or a [max_cache_len] at or
    past the model's max position (a decode step appends one token). *)

val prefill : t -> batch:int -> prompt_len:int -> (entry, string) result
(** Exact-tier price of prefilling a [prompt_len]-token prompt at
    [batch].  Raises [Invalid_argument] on non-positive arguments. *)

val decode_step : t -> batch:int -> cache_len:int -> (entry, string) result
(** Price of one decode step: [batch] sequences each appending one token
    against a [cache_len]-position cache.  Raises [Invalid_argument] on
    non-positive arguments. *)

val hits : t -> int
val misses : t -> int
(** Fused-group cache counters of the exact tier, the grid's rows
    included; [misses] counts actual compile+simulate runs. *)

val interpolated : t -> int
(** Decode steps answered from the surrogate grid (0 under [`Exact]). *)

val fallbacks : t -> int
(** Surrogate-mode decode steps off the grid, priced by the exact
    tier. *)
