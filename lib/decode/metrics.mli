(** Per-token SLO metrics of one decode run, built from the request
    records and the engine's step log.  All times are virtual (simulated
    seconds), so the numbers — and their JSON — are byte-reproducible. *)

type step_kind = Prefill | Decode

type step = {
  st_kind : step_kind;
  st_batch : int;      (** sequences in the step (1 for prefill) *)
  st_tokens : int;     (** tokens processed: prompt length or batch size *)
  st_cache_len : int;  (** priced cache length; 0 for prefill *)
  st_start_s : float;
  st_finish_s : float;
  st_cycles : int;
}

type t = {
  completed : int;
  shed : int;
  total_tokens : int;     (** generated tokens across completed requests *)
  makespan_s : float;     (** last token time *)
  tokens_per_s : float;   (** goodput: generated tokens / makespan *)
  ttft_p50_ms : float;
  ttft_p95_ms : float;
  ttft_p99_ms : float;
  itl_mean_ms : float;    (** inter-token latency over all gaps *)
  itl_p50_ms : float;
  itl_p95_ms : float;
  itl_p99_ms : float;
  mean_decode_batch : float;
      (** time-weighted sequences per decode step — the continuous
          batcher's occupancy win over static batching shows up here *)
  prefill_busy_s : float;
  decode_busy_s : float;
}

val step_kind_name : step_kind -> string

val build : records:Request.record list -> steps:step list -> t
(** Percentiles are nearest-rank ({!Ascend_util.Stats.percentile}),
    selected in place ({!Ascend_util.Stats.percentile_in_place}) over
    one array of TTFTs and one of every completed record's gaps, joined
    in record order; an empty sample yields 0.  [itl_mean_ms] sums the
    gaps from 0. in that same order, so a list fold over
    [List.concat_map] of the records' gaps gives the same bits. *)

val to_json : t -> Ascend_util.Json.t

val pp : Format.formatter -> t -> unit
