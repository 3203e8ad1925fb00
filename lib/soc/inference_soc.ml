module Config = Ascend_arch.Config
module Engine = Ascend_compiler.Engine
module Service = Ascend_exec.Service
module Scheduler = Ascend_runtime.Scheduler

type t = {
  soc_name : string;
  core : Config.t;
  cores : int;
  dram : Ascend_memory.Dram.t;
  dvpp : Dvpp.t;
  tdp_w : float;
}

let ascend310 =
  {
    soc_name = "Ascend 310";
    core = Config.mini;
    cores = 2;
    dram = Ascend_memory.Dram.lpddr4_mobile;
    dvpp =
      { Dvpp.ascend910_dvpp with Dvpp.dvpp_name = "DVPP-310";
        decode_channels = 16; power_w = 1.5 };
    tdp_w = 8.;
  }

let peak_tops t ~precision =
  float_of_int t.cores *. Config.peak_flops t.core ~precision /. 1e12

type result = {
  latency_s : float;
  throughput_per_s : float;
  scheduled_throughput_per_s : float;
  power_w : float;
  video_channels : int;
}

(* the §5.2 runtime's view of the same workload: one stream per
   concurrent batch replica, placed by the list scheduler across the
   SoC's cores; throughput derives from the resulting makespan instead
   of assuming each core runs its replica in perfect isolation *)
let scheduled_throughput t (r : Engine.network_result) =
  let replica i =
    let s = Scheduler.stream_of_network r ~blocks_per_task:1 in
    { s with Scheduler.stream_name = Printf.sprintf "replica%d" i }
  in
  let app =
    Scheduler.app ~name:r.Engine.graph_name
      (List.init t.cores (fun i -> replica i))
  in
  let sched = Scheduler.run ~cores:t.cores [ app ] in
  let round_s =
    Ascend_util.Units.seconds_of_cycles
      ~cycles:sched.Scheduler.makespan_cycles
      ~frequency_ghz:t.core.Config.frequency_ghz
  in
  if round_s > 0. then float_of_int t.cores /. round_s else 0.

let run t graph =
  match Service.run_inference (Service.default ()) t.core graph with
  | Error _ as e -> e
  | Ok r ->
    let latency_s = Engine.seconds r in
    let per_core = if latency_s > 0. then 1. /. latency_s else 0. in
    let throughput = per_core *. float_of_int t.cores in
    let compute_channels = int_of_float (throughput /. 30.) in
    let decode_channels = t.dvpp.Dvpp.decode_channels in
    Ok
      {
        latency_s;
        throughput_per_s = throughput;
        scheduled_throughput_per_s = scheduled_throughput t r;
        power_w =
          (float_of_int t.cores *. Engine.average_power_w r)
          +. t.dvpp.Dvpp.power_w +. 1.0 (* uncore *);
        video_channels = min compute_channels decode_channels;
      }
