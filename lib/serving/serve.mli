(** The request-level serving simulator: open/closed-loop traffic over
    the dynamic batcher, dispatched onto a multi-core SoC through the
    §5.2 {!Ascend_runtime.Scheduler} with QoS priorities, measured by
    the SLO metrics layer.

    A run is the one-node case of the shared event core {!Loop}: every
    arrival goes to the single node, and no batch pays a page-in.  At
    each decision point (an arrival, a batching deadline, a core
    becoming free) the dispatcher forms every ready batch, prices each
    one through the memoized compiler+simulator {!Cost} oracle, and
    hands the batch set to [Scheduler.run] over the currently idle
    cores — so placement order under contention is exactly the runtime
    scheduler's QoS policy: higher priority first, FIFO within a
    priority.  Admission control sheds a request on arrival when its
    model queue is at the configured depth bound.

    Everything is deterministic: same specs + seeds => byte-identical
    {!to_json} output, cost counters included, since the oracle's cache
    lives in memory and starts empty on every run. *)

type workload = Loop.workload =
  | Open_loop of Load_gen.t
  | Closed_loop of { clients : int; think_s : float; seed : int }
      (** [clients] concurrent callers, each re-issuing after its
          previous request completes plus an exponential think time of
          mean [think_s] (zero: immediate re-issue). *)

type model_spec = Loop.model_spec = {
  name : string;
  build : batch:int -> Ascend_nn.Graph.t;
  priority : int;   (** QoS priority, higher wins under contention *)
  slo_ms : float;
  workload : workload;
}

type config = {
  core : Ascend_arch.Config.t;
  cores : int;
  max_batch : int;
  max_delay_s : float;
  queue_depth : int;
  duration_s : float;  (** load window; queued work drains past it *)
  bucket_s : float;    (** occupancy-series bucket width *)
  costing : Cost.costing;
      (** [`Exact] prices every batch through the cycle-level path;
          [`Surrogate] interpolates a per-model table calibrated on
          anchor batches up to [max_batch] (see {!Cost}). *)
}

val default_config : core:Ascend_arch.Config.t -> cores:int -> config
(** max_batch 8, max_delay 2 ms, queue_depth 64, duration 1 s,
    bucket 50 ms, exact costing. *)

type batch_exec = {
  bx_model : string;
  bx_priority : int;
  bx_size : int;
  bx_core : int;
  bx_start_s : float;
  bx_finish_s : float;
  bx_cycles : int;
}

type result = {
  served_config : config;
  records : Request.record list;   (** in request-id order *)
  batches : batch_exec list;       (** in dispatch order *)
  metrics : Metrics.t;
  offline_makespan_cycles : int;
      (** the same batch set re-packed by [Scheduler.run] as one closed
          schedule (all work present at t=0): the offline bound the
          online run is compared against *)
  offline_utilization : float;
  cost_hits : int;
  cost_misses : int;
  cost_interpolated : int;  (** surrogate-answered lookups *)
  cost_fallbacks : int;     (** surrogate out-of-range, priced exactly *)
  cost_stats : Ascend_exec.Cache.stats;
      (** the cost oracle's private service cache *)
}

val run : config -> model_spec list -> (result, string) Stdlib.result
(** Raises [Invalid_argument] on malformed config (non-positive cores /
    duration, duplicate model names, empty spec list, closed-loop with
    [clients < 1]). Returns [Error] when a model fails to compile on the
    configured core. *)

val scheduler_apps : result -> Ascend_runtime.Scheduler.app list
(** The dispatched batches as one offline scheduler input — the one the
    offline repack ran on: one app per model that dispatched, in spec
    order, carrying its QoS priority, one stream per batch. *)

val to_json : result -> Ascend_util.Json.t
(** Config, metrics, batches, then the [cost_cache] object of
    {!Cost.counters_json}. *)

val pp : Format.formatter -> result -> unit
(** Metrics summary plus the offline-bound and cost-cache lines. *)
