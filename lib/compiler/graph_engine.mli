(** The Graph Engine of paper §5.1/§5.2: compile a model graph into
    "Streams" of in-order "Tasks", with explicit events where one stream
    consumes another stream's product.

    Streams are built by greedy chain cover of the fused-group DAG:
    a group extends its producer's stream when it is that chain's current
    tail, otherwise it opens a new stream (so parallel branches — e.g.
    the two towers of a Siamese tracker, or attention's Q/K/V — become
    genuinely concurrent streams).  {!makespan} list-schedules the plan
    on a multi-core SoC honouring both stream order and cross-stream
    events. *)

type task = {
  id : int;
  tag : string;
  cycles : int;           (** simulated single-core cycles of the group *)
  stream : int;
  deps : int list;        (** task ids this task waits on (cross-stream
                              events; same-stream order is implicit) *)
}

type plan = {
  stream_count : int;
  tasks : task list;      (** in topological order *)
}

val streams : Ascend_nn.Graph.t -> Fusion.t list -> (int list * int) list
(** For each group of the graph's partition, in order: the indices of
    the groups it consumes (resolved through bookkeeping nodes, sorted,
    all earlier) and its stream by the greedy chain cover.
    {!Soc_schedule.build} pins each group to [stream mod cores]. *)

val plan :
  Ascend_arch.Config.t -> Ascend_nn.Graph.t -> (plan, string) result
(** Fuse, compile and simulate every group on one core, then decompose
    into streams. *)

val serial_cycles : plan -> int
(** Sum of all task cycles — the one-core lower-level bound. *)

val makespan : plan -> cores:int -> int
(** List schedule on [cores] cores: a task starts when its stream
    predecessor and all [deps] have finished and a core is free.
    Raises [Invalid_argument] on non-positive cores. *)

val validate : plan -> (unit, string) result
(** deps reference earlier tasks only; stream ids are dense; every task
    reachable. *)

val pp : Format.formatter -> plan -> unit
