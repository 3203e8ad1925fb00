module Config = Ascend_arch.Config
module Silicon = Ascend_arch.Silicon
module Pipe = Ascend_isa.Pipe
module Simulator = Ascend_core_sim.Simulator
module Workload = Ascend_nn.Workload
module Training = Ascend_nn.Training

type layer_result = {
  group : Fusion.t;
  program : Ascend_isa.Program.t;
  report : Simulator.report;
  cube_cycles : int;
  vector_cycles : int;
  ratio : float;
}

type network_result = {
  config : Config.t;
  graph_name : string;
  layers : layer_result list;
  total_cycles : int;
  total_energy_j : float;
  total_macs : int;
}

let run_group ?options config (group : Fusion.t) =
  match Codegen.group_program ?options config group with
  | exception Invalid_argument msg -> Error msg
  | program -> (
    match Simulator.run config program with
    | Error e -> Error (Printf.sprintf "group %s: %s" group.tag e)
    | Ok report ->
      let cube_cycles = (Simulator.pipe_stats report Pipe.Cube).busy_cycles in
      let vector_cycles =
        (Simulator.pipe_stats report Pipe.Vector).busy_cycles
      in
      let ratio =
        Ascend_util.Stats.ratio (float_of_int cube_cycles)
          (float_of_int vector_cycles)
      in
      Ok { group; program; report; cube_cycles; vector_cycles; ratio })

let collect config graph_name layer_results =
  {
    config;
    graph_name;
    layers = layer_results;
    total_cycles =
      List.fold_left (fun acc l -> acc + l.report.Simulator.total_cycles) 0
        layer_results;
    total_energy_j =
      List.fold_left (fun acc l -> acc +. l.report.Simulator.energy_j) 0.
        layer_results;
    total_macs =
      List.fold_left
        (fun acc l -> acc + l.report.Simulator.cube_macs_executed)
        0 layer_results;
  }

let of_layer_results config graph_name results =
  (* the first error in submission order wins, matching what a serial
     short-circuiting run would have reported *)
  let rec go acc = function
    | [] -> Ok (collect config graph_name (List.rev acc))
    | Ok r :: rest -> go (r :: acc) rest
    | Error e :: _ -> Error e
  in
  go [] results

let run_groups ?options config graph_name groups =
  let rec go acc = function
    | [] -> Ok (collect config graph_name (List.rev acc))
    | g :: rest -> (
      match run_group ?options config g with
      | Error _ as e -> e
      | Ok r -> go (r :: acc) rest)
  in
  go [] groups

let run_inference ?options config graph =
  run_groups ?options config (Ascend_nn.Graph.name graph)
    (Fusion.partition graph)

let backward_group graph (group : Fusion.t) =
  let w =
    List.fold_left
      (fun acc n -> Workload.combine acc (Training.backward_of_node graph n))
      Workload.zero group.nodes
  in
  Fusion.of_workloads ~tag:("bwd:" ^ group.tag) ~precision:group.precision w

let training_groups graph =
  let fwd = Fusion.partition graph in
  let bwd = List.rev_map (backward_group graph) fwd in
  (* drop empty backward groups (e.g. pure input stages) *)
  let bwd =
    List.filter
      (fun (g : Fusion.t) -> g.gemms <> [] || g.vector_elems > 0.)
      bwd
  in
  fwd @ bwd

let run_training ?options config graph =
  run_groups ?options config
    (Ascend_nn.Graph.name graph ^ ":training")
    (training_groups graph)

let seconds r =
  Ascend_util.Units.seconds_of_cycles ~cycles:r.total_cycles
    ~frequency_ghz:r.config.frequency_ghz

let average_power_w r =
  let t = seconds r in
  let leakage =
    0.1
    *. (Silicon.cube_power_w ~precision:r.config.native_precision r.config.cube
          ~frequency_ghz:r.config.frequency_ghz
       +. Silicon.vector_power_w ~width_bytes:r.config.vector_width_bytes
            ~frequency_ghz:r.config.frequency_ghz)
  in
  if t <= 0. then leakage else (r.total_energy_j /. t) +. leakage

let inferences_per_second r ~batch =
  let t = seconds r in
  if t <= 0. then 0. else float_of_int batch /. t

let training_ratio_by_layer r =
  let fwd, bwd =
    List.partition
      (fun l -> not (String.length l.group.tag >= 4
                     && String.sub l.group.tag 0 4 = "bwd:"))
      r.layers
  in
  (* index the backward layers once; the per-forward-layer List.find_opt
     was quadratic in network depth (noticeable on the 24-block BERTs).
     First binding wins, like the List.find_opt it replaces. *)
  let bwd_tbl = Hashtbl.create (2 * List.length bwd) in
  List.iter
    (fun l ->
      let tag = l.group.Fusion.tag in
      if not (Hashtbl.mem bwd_tbl tag) then Hashtbl.add bwd_tbl tag l)
    bwd;
  let bwd_of tag = Hashtbl.find_opt bwd_tbl ("bwd:" ^ tag) in
  List.map
    (fun l ->
      let tag = l.group.Fusion.tag in
      let cube, vec =
        match bwd_of tag with
        | Some bl ->
          (l.cube_cycles + bl.cube_cycles, l.vector_cycles + bl.vector_cycles)
        | None -> (l.cube_cycles, l.vector_cycles)
      in
      (tag, Ascend_util.Stats.ratio (float_of_int cube) (float_of_int vec)))
    fwd

let pp_layer_table ppf r =
  Format.fprintf ppf "%s on %s: %d layers, %d cycles, %.3f mJ@." r.graph_name
    r.config.name (List.length r.layers) r.total_cycles
    (r.total_energy_j *. 1e3);
  List.iter
    (fun l ->
      Format.fprintf ppf "  %-28s cube %8d  vector %8d  ratio %s@."
        l.group.Fusion.tag l.cube_cycles l.vector_cycles
        (if l.ratio = infinity then "inf"
         else Printf.sprintf "%.2f" l.ratio))
    r.layers
