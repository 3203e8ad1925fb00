(** Deterministic whole-model trace capture: compile every fused group
    of a graph and simulate it {e serially} with an {!Ascend_obs}
    collector installed.

    The serial path matters: this driver calls
    [Ascend_compiler.Engine.run_group] directly — never the pooled
    execution service — so the event stream is a pure function of
    (graph, core, options).  Combined with virtual-time stamping and
    the deterministic JSON printer, the emitted Chrome trace is
    byte-identical across repeated runs and across [ASCEND_JOBS] /
    [--jobs] settings (the worker pool is simply never involved). *)

type capture = {
  json : Ascend_util.Json.t;  (** Chrome trace-event document *)
  summary : Ascend_obs.Summary.t;
  events : int;
  dropped : int;  (** events refused by the bounded collector *)
  total_cycles : int;  (** summed over the simulated groups *)
}

val model :
  Ascend_arch.Config.t -> Ascend_nn.Graph.t -> (capture, string) result
(** Capture every group under the default codegen options, in a
    collector bounded at 262144 events.  [Error] when a group fails to
    compile or simulate on the given core. *)
