module Engine = Ascend_compiler.Engine
module Service = Ascend_exec.Service

type entry = { cycles : int; latency_s : float; energy_j : float }

let price ~service ~core graph =
  match Service.run_inference service core graph with
  | Error _ as e -> e
  | Ok nr ->
    Ok
      {
        cycles = nr.Engine.total_cycles;
        latency_s = Engine.seconds nr;
        energy_j = nr.Engine.total_energy_j;
      }
