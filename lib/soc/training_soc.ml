module Config = Ascend_arch.Config
module Silicon = Ascend_arch.Silicon
module Engine = Ascend_compiler.Engine
module Service = Ascend_exec.Service
module Simulator = Ascend_core_sim.Simulator
module Buffer_id = Ascend_isa.Buffer_id

type t = {
  soc_name : string;
  core : Config.t;
  cores : int;
  llc_bytes : int;
  llc_bandwidth : float;
  hbm : Ascend_memory.Dram.t;
  mesh : Ascend_noc.Mesh.t;
  cpu_cores : int;
  uncore_power_w : float;
  io_die_area_mm2 : float;
}

let ascend910 =
  {
    soc_name = "Ascend 910";
    core = Config.max;
    cores = 32;
    llc_bytes = 32 * Ascend_util.Units.mib;
    llc_bandwidth = 4e12;
    hbm = Ascend_memory.Dram.hbm2_ascend910;
    mesh = Ascend_noc.Mesh.ascend910;
    cpu_cores = 16;
    uncore_power_w = 60.;
    io_die_area_mm2 = 168.;
  }

let ascend910_llc ~llc_bytes = { ascend910 with llc_bytes }

type result = {
  soc : t;
  per_core : Engine.network_result;
  cores_used : int;
  batch : int;
  hbm_slowdown : float;
  noc_slowdown : float;
  llc_hit_fraction : float;
  step_seconds : float;
  chip_power_w : float;
  throughput_per_s : float;
}

let external_traffic (r : Engine.network_result) =
  List.fold_left
    (fun acc (l : Engine.layer_result) ->
      let t = Simulator.traffic l.report Buffer_id.External in
      acc + t.read_bytes + t.written_bytes)
    0 r.layers

let run ?(training = false) t ~build ~batch =
  if batch <= 0 then invalid_arg "Training_soc.run: non-positive batch";
  let cores_used = min t.cores batch in
  let per_core_batch = Ascend_util.Stats.divide_round_up batch cores_used in
  let graph = build ~batch:per_core_batch in
  let run_engine =
    if training then Service.run_training else Service.run_inference
  in
  match run_engine (Service.default ()) t.core graph with
  | Error e -> Error e
  | Ok per_core ->
    let core_seconds = Engine.seconds per_core in
    (* LLC: weights are shared across cores; activations are per-core.
       The resident working set competing for LLC capacity is the weight
       footprint plus every core's activation high-water mark. *)
    let plan = Ascend_compiler.Memory_planner.plan graph in
    let working_set =
      plan.Ascend_compiler.Memory_planner.weight_bytes
      + (cores_used * plan.Ascend_compiler.Memory_planner.peak_bytes)
    in
    let llc_hit_fraction =
      Ascend_memory.Llc.hit_fraction ~capacity_bytes:t.llc_bytes
        ~working_set_bytes:working_set
    in
    let ext_bytes = external_traffic per_core in
    let demand_rate core_s =
      if core_s <= 0. then 0.
      else float_of_int (ext_bytes * cores_used) /. core_s
    in
    let rate = demand_rate core_seconds in
    (* traffic missing in the LLC spills to HBM *)
    let hbm_demand = rate *. (1. -. llc_hit_fraction) in
    let hbm_slowdown =
      Float.max 1. (hbm_demand /. Ascend_memory.Dram.total_bandwidth t.hbm)
    in
    let llc_slowdown = Float.max 1. (rate /. t.llc_bandwidth) in
    (* mesh congestion under uniform core->LLC traffic *)
    let noc_capacity =
      Ascend_noc.Mesh.saturation_injection_rate t.mesh ~uniform_random:true
    in
    let noc_slowdown = Float.max 1. (rate /. noc_capacity) in
    let slowdown = Float.max (Float.max hbm_slowdown llc_slowdown) noc_slowdown in
    let step_seconds = core_seconds *. slowdown in
    (* power: cores at their simulated average + uncore + HBM traffic *)
    let core_power = Engine.average_power_w per_core in
    let hbm_power =
      (* ~7.5 pJ/B for HBM2 accesses *)
      hbm_demand /. slowdown *. 7.5e-12
    in
    let chip_power_w =
      (float_of_int cores_used *. core_power) +. t.uncore_power_w +. hbm_power
    in
    Ok
      {
        soc = t;
        per_core;
        cores_used;
        batch = per_core_batch * cores_used;
        hbm_slowdown;
        noc_slowdown = Float.max llc_slowdown noc_slowdown;
        llc_hit_fraction;
        step_seconds;
        chip_power_w;
        throughput_per_s =
          float_of_int (per_core_batch * cores_used) /. step_seconds;
      }

let peak_flops t ~precision =
  float_of_int t.cores *. Config.peak_flops t.core ~precision

let compute_die_area_mm2 t =
  let cores = float_of_int t.cores *. Silicon.core_area_mm2 t.core in
  let llc =
    float_of_int t.llc_bytes /. float_of_int Ascend_util.Units.mib
    *. Silicon.sram_mm2_per_mib_7nm
  in
  let cpu = float_of_int t.cpu_cores *. 3.0 in
  (* 128-channel DVPP, mesh routers, HBM PHYs and SerDes *)
  let dvpp_noc_phy = 65. in
  (* ~15% top-level integration overhead *)
  1.15 *. (cores +. llc +. cpu +. dvpp_noc_phy)

let pp_result ppf r =
  Format.fprintf ppf
    "%s: batch %d on %d cores, step %a, %.0f items/s, %.0f W (LLC hit %.0f%%, \
     HBM x%.2f, NoC x%.2f)"
    r.soc.soc_name r.batch r.cores_used Ascend_util.Units.pp_seconds
    r.step_seconds r.throughput_per_s r.chip_power_w
    (100. *. r.llc_hit_fraction)
    r.hbm_slowdown r.noc_slowdown
