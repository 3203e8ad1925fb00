(** Expand the closed-form all-reduce cost models ({!Collective}) into
    explicit per-chip step schedules over concrete links, in the
    neutral IR of [Ascend_verify.Cluster].

    Each builder is the constructive counterpart of a
    [Collective.*_seconds] formula: the schedule is matched, acyclic,
    capacity-respecting and complete by construction (which
    [Verify.Cluster.analyze] verifies, and mutation tests falsify),
    and its derived time ([Verify.Cluster.schedule_seconds]) equals
    the closed form — the [lint --cluster] differential gate.

    Concurrent transfers sharing a physical bus (the PCI-E group bus,
    a server's NIC) each claim an equal fraction of its capacity; a
    transfer's time is [bytes / claim], so per-chip step times match
    the closed forms while the per-(step, link) claim sums expose any
    overcommit to the verifier. *)

val default_latency_s : float
(** 5 us, the same default as {!Collective}. *)

val ring :
  bytes:float -> nodes:int -> bandwidth:float -> ?latency_s:float -> unit ->
  Ascend_verify.Cluster.schedule
(** Ring all-reduce over [nodes] peers on dedicated directional links:
    [nodes] chunks, [2(nodes-1)] steps of reduce-scatter then
    all-gather.  Derived time = [Collective.ring_allreduce_seconds].
    Raises [Invalid_argument] on negative bytes, [nodes <= 0] or
    non-positive bandwidth. *)

val halving_doubling :
  bytes:float -> nodes:int -> bandwidth:float -> ?latency_s:float -> unit ->
  Ascend_verify.Cluster.schedule
(** Recursive halving/doubling over the largest power of two [p <=
    nodes] (pairwise exchanges at distance p/2, p/4, ..., 1); the
    extras fold their whole buffer into a base node first and receive
    the result back last.  Derived time =
    [Collective.halving_doubling_seconds]. *)

val intra_server :
  server:Server.t -> bytes:float -> Ascend_verify.Cluster.schedule
(** The paper's intra-server hierarchy: ring reduce-scatter inside
    each group over per-pair HCCS links, shard exchange between the
    two groups over the shared PCI-E bus (group B folds into group A,
    group A copies back), ring all-gather.  Derived time =
    [Server.intra_server_allreduce_seconds].  Raises
    [Invalid_argument] unless the server has 1 or 2 equal groups. *)

val hierarchical :
  server:Server.t -> network:Ascend_noc.Fat_tree.t -> servers:int ->
  bytes:float -> Ascend_verify.Cluster.schedule
(** The full cluster collective: intra-server reduce-scatter and
    exchange bring each server's sums onto its group-A chips (one
    shard per chip), the shard owners run whichever flat algorithm
    [Collective.best_allreduce_seconds] picks across servers on NIC
    links (each owner claiming a [1/chips_per_group] share), then the
    results flow back out.  Derived time =
    [Collective.hierarchical_allreduce_seconds]. *)

(** {1 The verification sweep} *)

type point = {
  algorithm : string;  (** "ring", "halving-doubling", "intra-server" or
                           "hierarchical" *)
  peers : int;         (** nodes, chips or servers *)
  bytes : float;
  closed_form_s : float;  (** the matching [Collective]/[Server] formula *)
  build : unit -> Ascend_verify.Cluster.schedule;
}

val sweep : unit -> point list
(** The 42 points [ascend_cli lint --cluster] verifies and [bench lint]
    times: ring and halving/doubling at 2, 3, 4, 5, 8, 16 and 17 nodes
    on the fat-tree NIC rate, the 910 board's intra-server hierarchy,
    and the hierarchical collective at 1, 2, 3, 4, 8 and 16 servers,
    each at 1 MB and 100 MB.  Closed forms are evaluated eagerly;
    schedules are expanded only when [build] is called. *)
