(** End-to-end compile + simulate: the entry point the benchmarks and
    examples use.  A network executes as its fused groups in topological
    order on one core; per-group simulator reports provide the per-layer
    cube/vector cycle ratios (Figures 4-8) and L1 bandwidth profile
    (Figure 9). *)

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

type group_runner =
  ?options:Codegen.options -> Ascend_arch.Config.t -> Fusion.t list ->
  (layer_result, string) result list

val group_runner : group_runner option ref
(** Execution hook: when set, [run_inference]/[run_training]/[run_groups]
    delegate the per-group compile+simulate fan-out to it instead of the
    built-in serial loop.  [Ascend_exec.Service.install] points it at a
    domain pool with a content-addressed result cache; results must be
    returned in submission order.  Kept as a ref so [lib/compiler] does
    not depend on [lib/exec]. *)

val seconds : network_result -> float
val average_power_w : network_result -> float
(** Energy over time plus the core's leakage floor. *)

val inferences_per_second : network_result -> batch:int -> float

val training_ratio_by_layer : network_result -> (string * float) list
(** For a training result: pair each forward group with its backward
    twin and report the combined cube/vector ratio per layer tag —
    the series of Figure 5. *)

val pp_layer_table : Format.formatter -> network_result -> unit
