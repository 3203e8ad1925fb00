(** The simulated inference fleet: N server nodes (each an
    {!Ascend_cluster.Server} hosting per-model
    {!Ascend_serving.Batcher}s and the QoS dispatch of
    {!Ascend_serving.Serve} over its cores), fronted by a {!Router}
    that places every request against a {!Placement} plan.

    The event loop is {!Ascend_serving.Loop}, the core [Serve.run] is
    the one-node case of: this module adds the placement plan, the
    router and page-in hooks, training colocation and the reports.

    Semantics, relative to single-node serving:

    - {b routing}: each arrival is routed to one node by the configured
      policy, then flows through that node's batcher/scheduler exactly
      as in [Serve.run];
    - {b page-in}: dispatching a model's first batch on a node where the
      placement plan did not make it resident stalls the batch for
      [weight_bytes / interconnect bandwidth] — the weights stream in
      over the server's inter-group bus ({!Ascend_cluster.Server.link_bandwidth})
      — after which the model is resident on that node;
    - {b training colocation}: an optional data-parallel training job
      occupies the first [tj_nodes] nodes ({!Ascend_cluster.Training});
      the fraction of each training step spent in gradient all-reduce
      is interconnect bandwidth inference page-ins no longer get, so
      page-ins on those nodes run proportionally slower;
    - {b determinism}: one shared single-domain, in-memory
      {!Ascend_serving.Cost} oracle prices every batch, so a run —
      counters included — is a pure function of specs + seeds:
      byte-identical {!to_json} across runs and [ASCEND_JOBS] values;
    - {b trace layout}: with a collector installed, the fleet's own
      process carries the router lane (route instants, per-node routed
      counters) and one page-in lane per node; each node is a process
      of its own with [Serve]'s lanes (one per model queue, one per
      core), so no counter series mixes nodes. *)

type model_spec = {
  name : string;
  build : batch:int -> Ascend_nn.Graph.t;
  priority : int;  (** QoS priority, higher wins under contention *)
  slo_ms : float;
  workload : Ascend_serving.Serve.workload;
  replicas : int;
      (** resident copies per the placement plan; [<= 0] or [>= nodes]
          replicates everywhere (hot), [1] pins to the home node (cold) *)
  kv_bytes : int;
      (** reserved KV-cache working set per resident replica, counted
          against per-node HBM alongside the weights — the decode model
          class ({!Ascend_nn.Llm}, served by {!Ascend_decode}) budgets
          [max concurrent sequences x Llm.kv_cache_bytes] here; 0 for
          stateless model classes *)
}

type train_job = {
  tj_model : string;
  tj_build : batch:int -> Ascend_nn.Graph.t;
  tj_batch : int;
  tj_nodes : int;  (** the first [tj_nodes] nodes colocate the trainer *)
}

type config = {
  core : Ascend_arch.Config.t;
  server : Ascend_cluster.Server.t;
  nodes : int;
  cores_per_node : int;
  max_batch : int;
  max_delay_s : float;
  queue_depth : int;
  duration_s : float;
  bucket_s : float;
  policy : Router.policy;
  costing : Ascend_serving.Cost.costing;
      (** [`Exact] prices every batch through the cycle-level path;
          [`Surrogate] answers repeats from a (model, batch) table of
          those exact prices (see {!Ascend_serving.Cost}); both give the
          same metrics and batches. *)
  hbm_bytes_per_node : int option;
      (** when given, every node's resident footprint — each resident
          model's weights plus reserved KV cache — is checked against
          this capacity: a single unservable model raises at placement
          build, a whole-plan overcommit returns [Error] from {!run} *)
}

val default_config :
  core:Ascend_arch.Config.t -> nodes:int -> config
(** Ascend 910 servers, [cores_per_node] = the server's chip count (8),
    batching bounds as {!Ascend_serving.Serve.default_config}, policy
    {!Router.Least_loaded}, exact costing. *)

type batch_exec = {
  bx_model : string;
  bx_priority : int;
  bx_size : int;
  bx_node : int;
  bx_core : int;        (** core index local to the node *)
  bx_start_s : float;
  bx_finish_s : float;
  bx_cycles : int;      (** compute cycles, excluding any page-in stall *)
  bx_paged : bool;      (** this batch paid the node's page-in *)
}

type node_report = {
  node : int;
  colocated_training : bool;
  train_interconnect_util : float;
      (** fraction of the node's interconnect consumed by the colocated
          trainer's gradient all-reduce; 0 on inference-only nodes *)
  routed : int;         (** requests the router sent here *)
  completed : int;
  rejected : int;
  page_ins : int;
  page_in_s : float;    (** total weight-streaming stall *)
  slo_attainment : float;
  node_metrics : Ascend_serving.Metrics.t;  (** cores = cores_per_node *)
}

type route_cell = {
  rc_node : int;
  rc_model : string;
  rc_routed : int;
  rc_completed : int;
  rc_rejected : int;
  rc_paged : bool;      (** this (node, model) paid a page-in *)
  rc_p50_ms : float;
  rc_p95_ms : float;
  rc_p99_ms : float;
}

type train_report = {
  tr_model : string;
  tr_batch : int;
  tr_nodes : int;
  tr_step_s : float;
  tr_images_per_s : float;       (** per colocated node *)
  tr_interconnect_util : float;
}

type result = {
  fleet_config : config;
  placement : Placement.t;
  records : (int * Ascend_serving.Request.record) list;
      (** (node, record), in request-id order *)
  batches : batch_exec list;     (** in dispatch order *)
  fleet_metrics : Ascend_serving.Metrics.t;
      (** over all [nodes * cores_per_node] cores; request latencies are
          the cross-node percentiles *)
  node_reports : node_report list;
  routes : route_cell list;
      (** tail-latency breakdown by routing decision, (node, model)
          cells in node-major order *)
  training : train_report option;
  slo_attainment : float;        (** fleet-wide, over completed requests *)
  total_page_ins : int;
  cost_hits : int;
  cost_misses : int;
  cost_interpolated : int;  (** lookups answered from the surrogate table *)
  cost_fallbacks : int;     (** surrogate first lookups, priced exactly *)
  cost_stats : Ascend_exec.Cache.stats;
      (** the cost oracle's private service cache *)
}

val run :
  ?train:train_job -> config -> model_spec list -> (result, string) Stdlib.result
(** Raises [Invalid_argument] on malformed config (non-positive nodes /
    cores / duration, duplicate models, empty specs, closed-loop with
    [clients < 1], train job outside [0, nodes]).  Returns [Error] when
    a model fails to compile on the configured core. *)

val model_weight_bytes : (batch:int -> Ascend_nn.Graph.t) -> int
(** Resident weight footprint of a model: the fused graph's weight
    bytes at batch 1 (weights are batch-invariant) — the same number
    [run] hands to {!Placement.build}, so a statically built plan and
    the fleet's own agree exactly. *)

val observed_page_ins : result -> int array
(** Per-node page-in counts as the run observed them, node order. *)

val pagein_json :
  policy:Router.policy -> placement:Placement.t -> counts:int array ->
  Ascend_util.Json.t
(** The page-in differential document: both sides of the CI gate —
    [Verify.Cluster.predicted_page_ins] on a {!Placement.verify_plan}
    and {!observed_page_ins} from a run — serialise through this one
    shape, so agreement is a byte comparison. *)

val to_json : result -> Ascend_util.Json.t
(** Deterministic: same specs + seeds => byte-identical output. *)

val pp : Format.formatter -> result -> unit
(** Fleet-wide SLO table, per-node utilization/page-in table and the
    per-routing-decision tail-latency breakdown. *)
