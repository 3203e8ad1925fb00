module Config = Ascend_arch.Config
module Engine = Ascend_compiler.Engine
module Service = Ascend_exec.Service
module Simulator = Ascend_core_sim.Simulator
module Buffer_id = Ascend_isa.Buffer_id
module Mpam = Ascend_memory.Mpam

type t = {
  soc_name : string;
  core : Config.t;
  cores : int;
  vector_cores : int;
  dram : Ascend_memory.Dram.t;
  dvpp : Dvpp.t;
  safety_ring : Ascend_noc.Ring.t;
  mpam_classes : Mpam.class_spec list;
  tdp_w : float;
}

let ascend610 =
  {
    soc_name = "Ascend 610";
    core = Config.standard;
    cores = 10;
    vector_cores = 2;
    dram = Ascend_memory.Dram.lpddr5_automotive;
    dvpp = Dvpp.automotive_dvpp;
    safety_ring = Ascend_noc.Ring.create ~nodes:8 ();
    mpam_classes =
      [
        { Mpam.class_name = "perception"; min_share = 0.55; max_share = 0.85;
          priority = 3 };
        { Mpam.class_name = "slam"; min_share = 0.2; max_share = 0.5;
          priority = 2 };
        { Mpam.class_name = "background"; min_share = 0.05; max_share = 0.3;
          priority = 1 };
      ];
    tdp_w = 65.;
  }

let peak_tops t ~precision =
  float_of_int t.cores *. Config.peak_flops t.core ~precision /. 1e12

type service_result = {
  model_name : string;
  compute_s : float;
  memory_s : float;
  dvpp_s : float;
  end_to_end_s : float;
  granted_bandwidth : float;
  deadline_s : float;
  met_deadline : bool;
}

let external_traffic (r : Engine.network_result) =
  List.fold_left
    (fun acc (l : Engine.layer_result) ->
      let t = Simulator.traffic l.report Buffer_id.External in
      acc + t.read_bytes + t.written_bytes)
    0 r.layers

let class_named t name =
  match
    List.find_opt (fun (c : Mpam.class_spec) -> c.class_name = name)
      t.mpam_classes
  with
  | Some c -> c
  | None -> invalid_arg ("Automotive_soc: no MPAM class " ^ name)

let run_service ?(with_mpam = true) t ~models ~background_demand =
  if background_demand < 0. then
    invalid_arg "Automotive_soc.run_service: negative background demand";
  if List.length models > t.cores then
    Error "more perception models than cores"
  else
    (* simulate each model on its own core *)
    let rec sim acc = function
      | [] -> Ok (List.rev acc)
      | (name, graph, deadline) :: rest -> (
        match Service.run_inference (Service.default ()) t.core graph with
        | Error e -> Error (Printf.sprintf "%s: %s" name e)
        | Ok r -> sim ((name, r, deadline) :: acc) rest)
    in
    match sim [] models with
    | Error e -> Error e
    | Ok sims ->
      let total_bw = Ascend_memory.Dram.total_bandwidth t.dram in
      (* perception demand: traffic over the frame's compute time *)
      let demands =
        List.map
          (fun (_, r, _) ->
            let s = Engine.seconds r in
            if s <= 0. then 0. else float_of_int (external_traffic r) /. s)
          sims
      in
      let perception_demand = List.fold_left ( +. ) 0. demands in
      let perception_grant =
        if with_mpam then begin
          let allocs =
            Mpam.partition ~total_bandwidth:total_bw
              [
                (class_named t "perception", perception_demand);
                (class_named t "slam", 0.1 *. total_bw);
                (class_named t "background", background_demand);
              ]
          in
          (List.find
             (fun (a : Mpam.allocation) -> a.spec.class_name = "perception")
             allocs)
            .granted
        end
        else begin
          (* no partitioning: max-min fair among all requestors *)
          let all =
            Array.of_list (perception_demand :: (0.1 *. total_bw) :: [ background_demand ])
          in
          (Ascend_util.Fairness.max_min_fair ~capacity:total_bw ~demands:all).(0)
        end
      in
      let share_of_grant =
        if perception_demand <= 0. then fun _ -> 0.
        else fun d -> perception_grant *. (d /. perception_demand)
      in
      Ok
        (List.map2
           (fun (name, r, deadline) demand ->
             let compute_s = Engine.seconds r in
             let granted = share_of_grant demand in
             let bytes = float_of_int (external_traffic r) in
             (* the core simulation already charges external transfers at
                full port speed; the penalty here is only the slowdown of
                a squeezed bandwidth grant: bytes/granted - bytes/demand *)
             let memory_s =
               if demand <= 0. then 0.
               else if granted <= 0. then 50. *. compute_s
               else Float.max 0. ((bytes /. granted) -. (bytes /. demand))
             in
             let dvpp_s = Dvpp.frame_latency_s t.dvpp ~width:1920 ~height:1080 in
             let end_to_end_s = compute_s +. memory_s +. dvpp_s in
             {
               model_name = name;
               compute_s;
               memory_s;
               dvpp_s;
               end_to_end_s;
               granted_bandwidth = granted;
               deadline_s = deadline;
               met_deadline = end_to_end_s <= deadline;
             })
           sims demands)

let worst_case_cpu_latency_ns t =
  Ascend_noc.Ring.worst_case_latency_ns t.safety_ring
