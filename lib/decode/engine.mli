(** The decode serving engine: a deterministic discrete-event loop that
    drives one LLM's two-phase generation on one core, in either of two
    batching disciplines.

    {b Continuous} (the tentpole): requests join and leave the running
    batch at token boundaries.  At each step the engine eagerly admits
    the oldest waiting request whenever the batch has a free slot and
    the KV-cache reservation fits the HBM budget (prefill interleaved
    with in-flight decode steps); otherwise it runs one decode step for
    the whole batch, and sequences that reach their output length retire
    immediately, freeing their slot and cache.

    {b Static} (the baseline): a batch is formed from the queue, every
    member is prefilled, and the group then decodes in lockstep — priced
    at the full group size, padding included — until the longest member
    finishes.  Nobody joins mid-run, which is exactly the occupancy loss
    continuous batching recovers ({!speedup}).

    Costs come from the phase-aware oracle ({!Cost}); KV residency is
    conservatively reserved at admission (prompt + output - 1 positions,
    {!Ascend_nn.Llm.kv_bytes_per_token} each) against
    [hbm_bytes - weights], so no sequence is ever evicted mid-flight.
    A request that could never fit is shed at arrival.  Time is virtual
    throughout; a run — metrics, JSON, trace — is a pure function of its
    inputs. *)

type mode = Continuous | Static

val mode_name : mode -> string

type config = {
  core : Ascend_arch.Config.t;
  llm : Ascend_nn.Llm.config;
  mode : mode;
  costing : Cost.costing;
  max_batch : int;        (** batch slots (sequences in flight) *)
  hbm_bytes : int;        (** budget for weights + every live KV cache *)
  max_cache_len : int;    (** surrogate grid bound ({!Cost.create}) *)
}

val default_config : core:Ascend_arch.Config.t -> unit -> config
(** Continuous, exact costing, tiny LLM, batch 8, 1 GiB HBM, grid to
    cache length 64. *)

type result = {
  run_config : config;
  records : Request.record list;  (** sorted by request id *)
  steps : Metrics.step list;      (** execution order *)
  metrics : Metrics.t;
  weight_bytes : int;
  kv_peak_bytes : int;            (** high-water mark of live KV state *)
  cost_hits : int;
  cost_misses : int;
  cost_interpolated : int;
  cost_fallbacks : int;
}

val run : config -> Request.t list -> (result, string) Stdlib.result
(** Serve the requests (sorted internally by arrival, then id) to
    completion.  [Error] when the oracle fails to compile a phase;
    raises [Invalid_argument] on invalid config or request fields. *)

val speedup : continuous:result -> static:result -> float
(** Goodput ratio [continuous.tokens_per_s / static.tokens_per_s]. *)

val to_json : result -> Ascend_util.Json.t

val pp : Format.formatter -> result -> unit
