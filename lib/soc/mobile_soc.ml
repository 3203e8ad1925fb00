module Config = Ascend_arch.Config
module Precision = Ascend_arch.Precision
module Engine = Ascend_compiler.Engine
module Service = Ascend_exec.Service
module Silicon = Ascend_arch.Silicon

type dvfs_point = {
  point_name : string;
  frequency_ghz : float;
  voltage_v : float;
}

type t = {
  soc_name : string;
  big : Config.t;
  big_count : int;
  little : Config.t;
  dvfs : dvfs_point list;
  dram : Ascend_memory.Dram.t;
}

let kirin990 =
  {
    soc_name = "Kirin 990-5G";
    big = Config.lite;
    big_count = 2;
    little = Config.tiny;
    dvfs =
      [
        { point_name = "low"; frequency_ghz = 0.4; voltage_v = 0.6 };
        { point_name = "nominal"; frequency_ghz = 0.75; voltage_v = 0.75 };
        { point_name = "boost"; frequency_ghz = 0.96; voltage_v = 0.85 };
      ];
    dram = Ascend_memory.Dram.lpddr4_mobile;
  }

let peak_tops t =
  (float_of_int t.big_count
   *. Config.peak_flops t.big ~precision:Precision.Int8
  +. Config.peak_flops t.little ~precision:Precision.Int8)
  /. 1e12

let npu_area_mm2 t =
  (float_of_int t.big_count *. Silicon.core_area_mm2 t.big)
  +. Silicon.core_area_mm2 t.little

type inference = {
  point : dvfs_point;
  core_result : Engine.network_result;
  latency_s : float;
  average_power_w : float;
  energy_per_inference_j : float;
  tops_per_watt : float;
}

let nominal t =
  match List.find_opt (fun p -> p.point_name = "nominal") t.dvfs with
  | Some p -> p
  | None -> List.hd t.dvfs

let dvfs_scale ~nominal p =
  p.frequency_ghz *. p.voltage_v *. p.voltage_v
  /. (nominal.frequency_ghz *. nominal.voltage_v *. nominal.voltage_v)

let find_point t name =
  match List.find_opt (fun p -> p.point_name = name) t.dvfs with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "Mobile_soc: unknown DVFS point %s" name)

let finish t ~core ~point result =
  let nom = nominal t in
  let scaled_core = { core with Config.frequency_ghz = point.frequency_ghz } in
  ignore scaled_core;
  (* the simulation ran at the core's nominal frequency; rescale time by
     frequency and dynamic power by f*V^2 *)
  let nominal_latency = Engine.seconds result in
  let latency_s = nominal_latency *. (nom.frequency_ghz /. point.frequency_ghz) in
  let nominal_power = Engine.average_power_w result in
  let average_power_w = nominal_power *. dvfs_scale ~nominal:nom point in
  (* peak throughput scales with the operating frequency *)
  let peak_at_point =
    peak_tops t /. float_of_int t.big_count
    *. (point.frequency_ghz /. nom.frequency_ghz)
  in
  {
    point;
    core_result = result;
    latency_s;
    average_power_w;
    energy_per_inference_j = average_power_w *. latency_s;
    tops_per_watt = peak_at_point /. average_power_w;
  }

let run_big ?sparsity ?(point = "nominal") t graph =
  match find_point t point with
  | Error _ as e -> e
  | Ok p -> (
    let options =
      match sparsity with
      | Some ratio ->
        { Ascend_compiler.Codegen.default_options with weight_sparsity = Some ratio }
      | None -> Ascend_compiler.Codegen.default_options
    in
    match Service.run_inference (Service.default ()) ~options t.big graph with
    | Error _ as e -> e
    | Ok r -> Ok (finish t ~core:t.big ~point:p r))

let run_little t graph =
  let p = nominal t in
  match Service.run_inference (Service.default ()) t.little graph with
  | Error _ as e -> e
  | Ok r ->
    let latency_s = Engine.seconds r in
    let average_power_w = Engine.average_power_w r in
    Ok
      {
        point = p;
        core_result = r;
        latency_s;
        average_power_w;
        energy_per_inference_j = average_power_w *. latency_s;
        tops_per_watt =
          Config.peak_flops t.little ~precision:Precision.Int8 /. 1e12
          /. average_power_w;
      }

let batch1_cube_utilization (core : Config.t) ~m ~k ~n =
  let d = core.cube in
  let div = Ascend_util.Stats.divide_round_up in
  let cycles = div m d.m * div k d.k * div n d.n in
  let macs = m * k * n in
  float_of_int macs /. float_of_int (cycles * d.m * d.k * d.n)
