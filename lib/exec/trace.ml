module Obs = Ascend_obs
module Engine = Ascend_compiler.Engine
module Fusion = Ascend_compiler.Fusion
module Simulator = Ascend_core_sim.Simulator

type capture = {
  json : Ascend_util.Json.t;
  summary : Obs.Summary.t;
  events : int;
  dropped : int;
  total_cycles : int;
}

let model core graph =
  let collector = Obs.Collector.create ~capacity:262144 () in
  let groups = Fusion.partition graph in
  let result =
    Obs.Hook.with_collector collector (fun () ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (g : Fusion.t) :: rest -> (
            match Engine.run_group core g with
            | Ok lr -> go (lr :: acc) rest
            | Error e -> Error (g.Fusion.tag ^ ": " ^ e))
        in
        go [] groups)
  in
  match result with
  | Error e -> Error e
  | Ok layers ->
    let total_cycles =
      List.fold_left
        (fun a (lr : Engine.layer_result) ->
          a + lr.Engine.report.Simulator.total_cycles)
        0 layers
    in
    Ok
      {
        json = Obs.Chrome_trace.to_json collector;
        summary = Obs.Summary.build collector;
        events = Obs.Collector.length collector;
        dropped = Obs.Collector.dropped collector;
        total_cycles;
      }
