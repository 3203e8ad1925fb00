(** The phase-aware latency oracle behind the decode engine: one LLM
    config on one core, priced separately for its two phases.

    {b Prefill} runs once per request; its graph is a function of
    (batch, prompt length).  {b Decode steps} are the volume term — one
    per generated token — and their graph is a function of (batch,
    KV-cache length).  Each phase keeps a memo of exact prices keyed by
    its (batch, length) point: the first use of a point prices it
    through {!Ascend_serving.Cost.price} (compile+simulate on the
    cycle-level core model), and every repeat answers from the memo.
    Below the memos, the oracle's private execution service caches at
    the fused-group level.

    Deterministic, counters included; the service is private,
    single-domain and in-memory, so an engine run is a pure function of
    its inputs. *)

type entry = Ascend_serving.Cost.entry = {
  cycles : int;
  latency_s : float;
  energy_j : float;
}

type t

val create : core:Ascend_arch.Config.t -> Ascend_nn.Llm.config -> t

val prefill : t -> batch:int -> prompt_len:int -> (entry, string) result
(** Price of prefilling a [prompt_len]-token prompt at [batch].  Raises
    [Invalid_argument] on non-positive arguments. *)

val decode_step : t -> batch:int -> cache_len:int -> (entry, string) result
(** Price of one decode step: [batch] sequences each appending one token
    against a [cache_len]-position cache.  Raises [Invalid_argument] on
    non-positive arguments. *)

val hits : t -> int
val misses : t -> int
(** The oracle's fused-group cache counters: [misses] counts actual
    compile+simulate runs.  Answers from the memos touch neither. *)
