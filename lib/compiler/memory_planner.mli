(** Liveness-based activation memory planning for the external (device
    memory / LLC) footprint of a graph: each node's output lives from its
    definition to its last consumer; buffers are packed greedily by
    first-fit offset assignment.  The resulting footprint feeds the LLC
    capacity experiment of paper §4.1. *)

type allocation = {
  node_id : int;
  node_name : string;
  offset : int;
  size_bytes : int;
  first_use : int;   (** defining node id *)
  last_use : int;    (** last consumer id (or itself for outputs) *)
}

type plan = {
  allocations : allocation list;
  peak_bytes : int;     (** activation high-water mark *)
  weight_bytes : int;   (** parameters are resident for the whole run *)
}

val plan : Ascend_nn.Graph.t -> plan

val validate : plan -> (unit, string) result
(** No two live-range-overlapping allocations may overlap in address
    space (the property tests drive random graphs through this). *)

val kv_cache_bytes : Ascend_nn.Graph.t -> int
(** Device-memory KV-cache residency implied by the graph's
    {!Ascend_nn.Op.Kv_attention} nodes: per node, K and V rows for
    [cache_len + tokens] positions at the node's batch/hidden/dtype.
    Zero for cache-free graphs.  This is serving-side state that outlives
    one inference, so it budgets against HBM alongside weights rather
    than inside the activation plan. *)

val plan_hbm :
  Ascend_nn.Graph.t -> hbm_bytes:int -> (plan, string) result
(** {!plan}, then check the full resident footprint — weights + KV cache
    + activation peak — against an HBM capacity.  [Error] describes the
    overcommit.  Raises [Invalid_argument] on a non-positive capacity. *)

val total_activation_bytes : Ascend_nn.Graph.t -> int
(** Sum of every node's output footprint — what a training pass keeps
    resident for the backward computation (no rematerialisation). *)
