(** The discrete-event core of request-level serving, shared by
    {!Serve} (one node) and [Ascend_fleet.Fleet] (N nodes behind a
    router).

    Semantics over simulated seconds: the run seeds one arrival heap
    with every open-loop arrival and one request per closed-loop client
    at t = 0.  At each decision point (an arrival, a batching deadline,
    a core becoming free) it admits every due arrival — [route] picks
    its node, the node's per-model {!Batcher} admits or sheds it — then,
    node by node, forms every ready batch in spec order, prices each
    through the {!Cost} oracle, and hands the node's batch set to
    [Ascend_runtime.Scheduler.run] over that node's idle cores, so
    placement order under contention is the §5.2 runtime scheduler's
    QoS policy.  A closed-loop client re-issues after its request
    completes plus an exponential think time.

    Observability: with a collector installed, each node is one trace
    process named by [obs_name], with one thread lane per model queue
    (queue-depth and shed counters, request lifecycle spans) followed by
    one lane per core (batch spans).  Timestamps are simulated seconds
    scaled to microseconds, so a traced run is byte-reproducible.

    Everything is deterministic: same specs + seeds => same result. *)

type workload =
  | Open_loop of Load_gen.t
  | Closed_loop of { clients : int; think_s : float; seed : int }
      (** [clients] concurrent callers, each re-issuing after its
          previous request completes plus an exponential think time of
          mean [think_s] (zero: immediate re-issue). *)

type model_spec = {
  name : string;
  build : batch:int -> Ascend_nn.Graph.t;
  priority : int;  (** QoS priority, higher wins under contention *)
  slo_ms : float;
  workload : workload;
}

type config = {
  core : Ascend_arch.Config.t;
  nodes : int;
  cores_per_node : int;
  max_batch : int;
  max_delay_s : float;
  queue_depth : int;
  duration_s : float;  (** load window; queued work drains past it *)
  bucket_s : float;    (** occupancy-series bucket width *)
  costing : Cost.costing;  (** the oracle's tier; both give the same batches *)
}

type batch = {
  model : int;      (** spec index *)
  node : int;
  core : int;       (** core index local to the node *)
  size : int;
  start_s : float;
  finish_s : float;
  cycles : int;     (** compute cycles, excluding any page-in stall *)
  paged : bool;     (** this batch paid a page-in *)
}

type result = {
  config : config;
  specs : model_spec array;
  records : (int * Request.record) list;
      (** (node, record), in request-id order *)
  batches : batch list;  (** in dispatch order *)
  busy : (int * float * float) list array;
      (** per node: (core, start_s, finish_s) of every batch *)
  cost : Cost.t;  (** the run's oracle, for its counters *)
}

val validate : who:string -> config -> model_spec list -> unit
(** Raises [Invalid_argument "<who>: ..."] on a non-positive duration or
    bucket, an empty or duplicate-named spec list, or a closed loop with
    [clients < 1].  Callers check their own node and core counts first
    and call this before anything else touches the specs. *)

val run :
  ?route:(Request.t -> queued:(int -> int) -> int) ->
  ?page_in:(node:int -> model:int -> now:float -> int option) ->
  obs_name:(int -> string) ->
  config -> model_spec list -> (result, string) Stdlib.result
(** One run over specs that passed {!validate}.  [route r ~queued]
    picks the node for arrival [r], where [queued n] is the number of
    requests queued on node [n]; the default sends everything to node
    0.  [page_in ~node ~model ~now] is called for every batch as it is
    formed: [Some stall] makes the batch pay [stall] extra cycles on its
    core, [None] (the default) charges nothing.  Returns [Error] when a
    model fails to compile on the configured core. *)

val metrics : result -> Metrics.t
(** Metrics over the whole run, nodes laid out as one flat core space
    ([node * cores_per_node + core]). *)

val node_records : result -> int -> Request.record list
(** One node's records, in request-id order. *)

val node_metrics : result -> int -> Metrics.t
(** Metrics of one node's records over its [cores_per_node] cores. *)
