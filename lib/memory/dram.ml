type t = {
  kind : string;
  channels : int;
  bandwidth_per_channel : float;
  base_latency_ns : float;
}

let hbm2_ascend910 =
  { kind = "HBM2"; channels = 4; bandwidth_per_channel = 300e9;
    base_latency_ns = 120. }

let lpddr4_mobile =
  { kind = "LPDDR4X"; channels = 4; bandwidth_per_channel = 10.7e9;
    base_latency_ns = 100. }

let lpddr5_automotive =
  { kind = "LPDDR5"; channels = 4; bandwidth_per_channel = 25.6e9;
    base_latency_ns = 90. }

let total_bandwidth t = float_of_int t.channels *. t.bandwidth_per_channel

let share t ~demands =
  Ascend_util.Fairness.max_min_fair ~capacity:(total_bandwidth t) ~demands

let loaded_latency_ns t ~utilization =
  t.base_latency_ns *. Mpam.latency_factor ~utilization
