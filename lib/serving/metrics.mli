(** SLO metrics over a finished serving run: per-model latency
    percentiles, goodput, rejection rate, per-core utilization and a
    time-bucketed occupancy series — exportable as JSON and as an ASCII
    summary in the {!Ascend_core_sim.Timeline.utilization_bars} style. *)

type model_summary = {
  model : string;
  priority : int;
  slo_ms : float;
  offered : int;            (** admitted + shed *)
  completed : int;
  rejected : int;
  mean_ms : float;
  p50_ms : float;
      (** Latency percentiles use {!Ascend_util.Stats.percentile}'s
          nearest-rank semantics: the smallest observed latency with at
          least [ceil (p/100 * n)] of the sample at or below it — always
          an actually observed latency, never an interpolated one —
          selected in place over one array of the model's latencies
          ({!Ascend_util.Stats.percentile_in_place}, no sort).  A
          single completion is its own p50/p95/p99; with two completions
          [a <= b], p50 is [a] and p95/p99 are [b].  All percentiles are
          0 when nothing completed. *)
  p95_ms : float;
  p99_ms : float;
  max_ms : float;           (** p100; 0 when nothing completed *)
  slo_attainment : float;   (** completed within SLO / completed *)
  goodput_per_s : float;    (** completions within SLO / duration *)
  throughput_per_s : float; (** all completions / duration *)
  rejection_rate : float;   (** rejected / offered *)
  mean_batch : float;       (** mean dispatched batch size seen by requests *)
}

type t = {
  duration_s : float;        (** the configured load window *)
  horizon_s : float;         (** max(duration, last completion) *)
  bucket_s : float;
  summaries : model_summary list;  (** in the given model order *)
  core_busy_s : float array;
  core_utilization : float array;  (** busy / horizon, per core *)
  occupancy : float array;
      (** per time bucket: mean busy fraction across cores in that
          bucket, over [0, horizon) *)
}

val build :
  duration_s:float ->
  bucket_s:float ->
  cores:int ->
  models:(string * int * float) list ->
  busy:(int * float * float) list ->
  Request.record list ->
  t
(** [models] lists (name, priority, slo_ms) and fixes the summary order;
    [busy] lists (core, start_s, finish_s) batch execution spans (a
    batch is one span, however many requests it carried).  Raises
    [Invalid_argument] on non-positive [duration_s], [bucket_s] or
    [cores]. *)

val to_json : t -> Ascend_util.Json.t

val pp : Format.formatter -> t -> unit
