(** The exact batch-pricing oracle every costing tier rests on: compile
    and simulate a graph on the cycle-level core model.  The serving
    and decode tables ({!Ascend_serving.Cost}, [Ascend_decode.Cost})
    store its answers, and {!Calibration2d} scores the decode grid
    against them. *)

type entry = {
  cycles : int;        (** one batch on one core *)
  latency_s : float;
  energy_j : float;
}

val price :
  service:Ascend_exec.Service.t ->
  core:Ascend_arch.Config.t ->
  Ascend_nn.Graph.t ->
  (entry, string) result
(** Compile+simulate the graph on [core] through [service] (so repeated
    group shapes resolve in its cache). *)
