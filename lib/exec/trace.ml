module Obs = Ascend_obs
module Engine = Ascend_compiler.Engine

type capture = {
  json : Ascend_util.Json.t;
  summary : Obs.Summary.t;
  events : int;
  dropped : int;
  total_cycles : int;
}

let model core graph =
  let collector = Obs.Collector.create ~capacity:262144 () in
  Obs.Hook.with_collector collector (fun () -> Engine.run_inference core graph)
  |> Result.map (fun (r : Engine.network_result) ->
         {
           json = Obs.Chrome_trace.to_json collector;
           summary = Obs.Summary.build collector;
           events = Obs.Collector.length collector;
           dropped = Obs.Collector.dropped collector;
           total_cycles = r.Engine.total_cycles;
         })
