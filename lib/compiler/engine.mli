(** End-to-end compile + simulate.  A network executes as its fused
    groups in topological order on one core; per-group simulator reports
    provide the per-layer cube/vector cycle ratios (Figures 4-8) and L1
    bandwidth profile (Figure 9).

    Every run here is serial, uncached and a pure function of its
    inputs: the reference path.  [Ascend_exec.Service.run_inference] /
    [run_training] compute the same results through a domain pool and a
    content-addressed cache; callers that re-run groups name a service. *)

type layer_result = {
  group : Fusion.t;
  program : Ascend_isa.Program.t;
  report : Ascend_core_sim.Simulator.report;
  cube_cycles : int;
  vector_cycles : int;
  ratio : float;  (** cube/vector; [infinity] when the group has no
                      vector work at all *)
}

type network_result = {
  config : Ascend_arch.Config.t;
  graph_name : string;
  layers : layer_result list;
  total_cycles : int;
  total_energy_j : float;
  total_macs : int;
}

val run_inference :
  ?options:Codegen.options -> Ascend_arch.Config.t -> Ascend_nn.Graph.t ->
  (network_result, string) result
(** Compile every fused group and simulate them back-to-back. *)

val run_training :
  ?options:Codegen.options -> Ascend_arch.Config.t -> Ascend_nn.Graph.t ->
  (network_result, string) result
(** Forward groups followed by the synthetic backward groups (reverse
    order), tagged ["bwd:<tag>"]. *)

val run_group :
  ?options:Codegen.options -> Ascend_arch.Config.t -> Fusion.t ->
  (layer_result, string) result

val training_groups : Ascend_nn.Graph.t -> Fusion.t list
(** The groups [run_training] executes: forward groups followed by the
    non-empty synthetic backward groups in reverse order. *)

val of_layer_results :
  Ascend_arch.Config.t -> string -> (layer_result, string) result list ->
  (network_result, string) result
(** Assemble per-group results (in submission order) into a network
    result; the first [Error] in the list wins, matching a serial
    short-circuiting run. *)

val seconds : network_result -> float
val average_power_w : network_result -> float
(** Energy over time plus the core's leakage floor. *)

val inferences_per_second : network_result -> batch:int -> float

val training_ratio_by_layer : network_result -> (string * float) list
(** For a training result: pair each forward group with its backward
    twin and report the combined cube/vector ratio per layer tag —
    the series of Figure 5. *)

val pp_layer_table : Format.formatter -> network_result -> unit
