(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md
   for paper-vs-measured commentary).

     dune exec bench/main.exe             # run everything
     dune exec bench/main.exe table7 fig4 # run selected sections

   Paper numbers printed next to measured ones are quotations from the
   paper (marked "paper"); our substrate is a simulator, so shapes and
   ratios are the reproduction target, not absolute values. *)

module Config = Ascend.Arch.Config
module Precision = Ascend.Arch.Precision
module Silicon = Ascend.Arch.Silicon
module Engine = Ascend.Compiler.Engine
module Fusion = Ascend.Compiler.Fusion
module Simulator = Ascend.Core_sim.Simulator
module Table = Ascend.Util.Table
module Stats = Ascend.Util.Stats
module Workload = Ascend.Nn.Workload
module Training_nn = Ascend.Nn.Training
module Soc = Ascend.Soc.Training_soc
module Mobile = Ascend.Soc.Mobile_soc
module Auto = Ascend.Soc.Automotive_soc
module Cluster = Ascend.Cluster.Training

let section_header name description =
  Format.printf "@.==== %s — %s ====@." name description

let ok = function
  | Ok v -> v
  | Error e -> failwith e

(* machine-readable companion to the human tables: each section run
   writes BENCH_<section>.json (scenario name, wall time, plus whatever
   key numbers the section records) so the perf trajectory is trackable
   PR-over-PR *)
module Bench_json = struct
  module Json = Ascend.Util.Json

  let recorded : (string * Json.t) list ref = ref []

  let record key v = recorded := (key, v) :: !recorded
  let record_int key i = record key (Json.Int i)
  let record_float key f = record key (Json.Float f)

  let write ~section ~wall_s =
    let doc =
      Json.Obj
        (("scenario", Json.String section)
        :: ("wall_time_s", Json.Float wall_s)
        :: List.rev !recorded)
    in
    recorded := [];
    Json.write_file (Printf.sprintf "BENCH_%s.json" section) doc
end

(* ------------------------------------------------------------------ *)
(* Table 2: operations per computing unit                              *)

let table2 () =
  section_header "table2" "operations per computing unit";
  let t =
    Table.create ~header:[ "unit"; "typical operations (this library's mapping)" ] ()
  in
  Table.add_rows t
    [
      [ "Scalar"; "control flow, loop bookkeeping (Scalar_op)" ];
      [ "Vector";
        "normalize / activation / format transfer / pooling / depthwise \
         (Vector_op; Op.vector_passes)" ];
      [ "Cube"; "convolution / FC / MatMul (Cube_matmul via img2col GEMM)" ];
    ];
  Table.print ~align:Table.Left t

(* ------------------------------------------------------------------ *)
(* Table 3: computing-unit comparison                                  *)

let table3 () =
  section_header "table3" "scalar vs vector vs cube PPA (7nm, 1 GHz)";
  let t =
    Table.create
      ~header:[ "unit"; "perf"; "power (W)"; "area (mm2)"; "TFLOPS/W";
                "TFLOPS/mm2" ]
      ()
  in
  List.iter
    (fun (r : Silicon.unit_report) ->
      Table.add_row t
        [
          r.Silicon.unit_name;
          Format.asprintf "%a" Ascend.Util.Units.pp_flops r.Silicon.perf_flops;
          (match r.Silicon.power_w with
          | Some w -> Table.cell_float w
          | None -> "/");
          Table.cell_float r.Silicon.area_mm2;
          (match r.Silicon.perf_per_watt with
          | Some v -> Table.cell_float v
          | None -> "/");
          Table.cell_float r.Silicon.perf_per_area;
        ])
    Silicon.table3;
  Table.print t;
  Format.printf
    "paper: scalar 2G / 0.04mm2; vector 256G / 0.46W / 0.70mm2 / 0.56 / 0.36; \
     cube 8T / 3.13W / 2.57mm2 / 2.56 / 3.11@."

(* ------------------------------------------------------------------ *)
(* Table 4: cube dimension trade-off                                   *)

let table4 () =
  section_header "table4" "area/density benefit of large cubes (12nm)";
  let t =
    Table.create
      ~header:[ "cube"; "quantity"; "area (mm2)"; "fp16 perf"; "GFLOPS/mm2" ]
      ()
  in
  List.iter
    (fun (p : Silicon.cube_design_point) ->
      Table.add_row t
        [
          Printf.sprintf "%dx%dx%d" p.Silicon.dims.Config.m p.Silicon.dims.Config.k
            p.Silicon.dims.Config.n;
          string_of_int p.Silicon.quantity;
          Table.cell_float ~decimals:1 p.Silicon.area_mm2;
          Format.asprintf "%a" Ascend.Util.Units.pp_flops p.Silicon.fp16_flops;
          Table.cell_float ~decimals:0 p.Silicon.gflops_per_mm2;
        ])
    Silicon.table4;
  Table.print t;
  (match Silicon.table4 with
  | [ small; big ] ->
    Format.printf
      "measured: %.1fx throughput for %.1fx area (paper: 4.7x for 2.5x)@."
      (big.Silicon.fp16_flops /. small.Silicon.fp16_flops)
      (big.Silicon.area_mm2 /. small.Silicon.area_mm2)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* Table 5: design parameters                                          *)

let table5 () =
  section_header "table5" "architecture parameters of the five design points";
  let t =
    Table.create
      ~header:[ "core"; "freq"; "cube (native)"; "perf/cycle"; "vector";
                "L1->L0A B/cyc"; "L1->L0B"; "UB"; "LLC GB/s" ]
      ()
  in
  List.iter
    (fun (c : Config.t) ->
      Table.add_row t
        [
          c.Config.name;
          Printf.sprintf "%.2f GHz" c.Config.frequency_ghz;
          Printf.sprintf "%dx%dx%d %s" c.Config.cube.Config.m
            c.Config.cube.Config.k c.Config.cube.Config.n
            (Precision.name c.Config.native_precision);
          string_of_int
            (Config.flops_per_cycle c ~precision:c.Config.native_precision);
          Printf.sprintf "%d B" c.Config.vector_width_bytes;
          string_of_int c.Config.bandwidth.Config.l1_to_l0a;
          string_of_int c.Config.bandwidth.Config.l1_to_l0b;
          string_of_int c.Config.bandwidth.Config.ub_port;
          (match c.Config.bandwidth.Config.llc_gb_s with
          | Some v -> Table.cell_float ~decimals:1 v
          | None -> "N/A");
        ])
    Config.all;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 6: memory wall                                                *)

let table6 () =
  section_header "table6" "memory wall / IO wall bandwidth ladder (256 TFLOPS)";
  let t = Table.create ~header:[ "level"; "bandwidth"; "ratio to cube" ] () in
  List.iter
    (fun (r : Ascend.Memory.Memory_wall.rung) ->
      Table.add_row t
        [
          r.Ascend.Memory.Memory_wall.level;
          Format.asprintf "%a" Ascend.Util.Units.pp_rate
            r.Ascend.Memory.Memory_wall.bandwidth_bytes_per_s;
          (let inv = 1. /. r.Ascend.Memory.Memory_wall.ratio_to_cube in
           if inv <= 1.001 then "1"
           else Printf.sprintf "1/%.0f" inv);
        ])
    (Ascend.Memory.Memory_wall.table6 ~peak_flops:256e12);
  Table.print t;
  Format.printf "paper ratios: 1, 1/1, 1/10, 1/100, 1/2000, 1/40000, 1/200000@."

(* ------------------------------------------------------------------ *)
(* Figures 4-8: per-layer cube/vector execution-time ratios            *)

let ratio_summary layers =
  let ratios =
    List.filter_map
      (fun (l : Engine.layer_result) ->
        if l.Engine.ratio = infinity then None else Some l.Engine.ratio)
      layers
  in
  let finite = List.length ratios in
  let above1 = List.length (List.filter (fun r -> r > 1.) ratios) in
  let inf_count = List.length layers - finite in
  ( ratios,
    Printf.sprintf
      "%d layers: %d pure-cube (ratio inf), %d/%d finite ratios > 1; \
       min %.2f / median %.2f / max %.2f"
      (List.length layers) inf_count above1 finite
      (Stats.minimum ratios)
      (Stats.percentile 50. ratios)
      (Stats.maximum ratios) )

let ratio_bar ratio =
  (* log-scale sparkline: '|' marks ratio = 1, the paper's break-even *)
  if ratio = infinity then "############################ inf"
  else begin
    let clamped = Stats.clamp ~lo:0.01 ~hi:100. ratio in
    let pos = int_of_float ((log10 clamped +. 2.) /. 4. *. 28.) in
    String.init 29 (fun i ->
        if i = 14 then (if pos >= 14 then '#' else '|')
        else if i <= pos then '#'
        else if i = 14 then '|'
        else ' ')
  end

let print_ratio_series ?(limit = 100) title layers =
  let t =
    Table.create ~title
      ~header:[ "#"; "layer"; "cube cyc"; "vector cyc"; "ratio";
                "0.01 .. 1 .. 100 (log)" ]
      ()
  in
  List.iteri
    (fun i (l : Engine.layer_result) ->
      if i < limit then
        Table.add_row t
          [
            string_of_int i;
            l.Engine.group.Fusion.tag;
            string_of_int l.Engine.cube_cycles;
            string_of_int l.Engine.vector_cycles;
            (if l.Engine.ratio = infinity then "inf"
             else Table.cell_float l.Engine.ratio);
            ratio_bar l.Engine.ratio;
          ])
    layers;
  Table.print ~align:Table.Left t;
  let _, summary = ratio_summary layers in
  Format.printf "%s@." summary

let fig4 () =
  section_header "fig4"
    "cube/vector ratio per layer, BERT-Large inference (cube 8192 FLOPS/cyc, \
     vector 256 B)";
  let r = ok (Engine.run_inference Config.max (Ascend.Nn.Bert.large ~seq_len:128 ())) in
  (* print the embedding stage and the first two encoder blocks; the other
     22 blocks repeat the same pattern *)
  let first_blocks = List.filteri (fun i _ -> i < 17) r.Engine.layers in
  print_ratio_series "first two encoder blocks (pattern repeats)" first_blocks;
  let _, summary = ratio_summary r.Engine.layers in
  Format.printf "whole network: %s@." summary;
  Format.printf
    "paper: for most layers the ratio is much greater than 1 (vector hidden \
     under cube)@."

let fig5 () =
  section_header "fig5" "cube/vector ratio per layer, BERT-Large training";
  let g = Ascend.Nn.Bert.large ~seq_len:128 () in
  let r = ok (Engine.run_training Config.max g) in
  let pairs = Engine.training_ratio_by_layer r in
  let t =
    Table.create ~title:"first two encoder blocks (fwd+bwd combined)"
      ~header:[ "#"; "layer"; "training ratio" ]
      ()
  in
  List.iteri
    (fun i (tag, ratio) ->
      if i < 17 then
        Table.add_row t
          [ string_of_int i; tag;
            (if ratio = infinity then "inf" else Table.cell_float ratio) ])
    pairs;
  Table.print t;
  let finite = List.filter (fun (_, r) -> r <> infinity) pairs in
  let above1 = List.filter (fun (_, r) -> r > 1.) finite in
  Format.printf "whole network: %d/%d finite ratios > 1; median %.2f@."
    (List.length above1) (List.length finite)
    (Stats.percentile 50. (List.map snd finite));
  Format.printf
    "paper: vector use rises in training but the ratio stays > 1 in most \
     layers@."

let fig6 () =
  section_header "fig6" "cube/vector ratio per layer, MobileNet inference";
  let r = ok (Engine.run_inference Config.max (Ascend.Nn.Mobilenet.v2 ())) in
  print_ratio_series "all layers" r.Engine.layers;
  Format.printf
    "paper: most MobileNet layers sit between 0 and 1 — hence the Lite \
     core's relatively wider vector unit@."

let fig7 () =
  section_header "fig7" "cube/vector ratio per layer, ResNet-50 inference";
  let r = ok (Engine.run_inference Config.max (Ascend.Nn.Resnet.v1_5 ())) in
  print_ratio_series ~limit:20 "first 20 layers" r.Engine.layers;
  let _, summary = ratio_summary r.Engine.layers in
  Format.printf "whole network: %s@." summary;
  let early =
    List.filteri (fun i _ -> i < 6) r.Engine.layers
    |> List.filter_map (fun (l : Engine.layer_result) ->
           if l.Engine.ratio = infinity then None else Some l.Engine.ratio)
  in
  Format.printf
    "first layers' geomean ratio: %.2f (paper: close to 1 in the first few \
     layers)@."
    (Stats.geomean early)

let fig8 () =
  section_header "fig8"
    "cube/vector ratio per layer, Gesture net on Ascend-Tiny (cube 1024 int8 \
     OPS/cyc, vector 32 B)";
  let r = ok (Engine.run_inference Config.tiny (Ascend.Nn.Gesture.build ())) in
  print_ratio_series "all layers" r.Engine.layers;
  Format.printf "paper: the ratio is greater than 1 for all layers@."

(* ------------------------------------------------------------------ *)
(* Figure 9: L1 bandwidth profiling                                    *)

let fig9 () =
  section_header "fig9" "L1 read/write bandwidth demand per layer (bits/cycle)";
  let t =
    Table.create
      ~header:[ "workload"; "layers"; "read max"; "read mean"; "write max";
                "write mean" ]
      ()
  in
  let add name (layers : Engine.layer_result list) =
    let reads =
      List.map (fun (l : Engine.layer_result) ->
          Simulator.l1_read_bits_per_cycle l.Engine.report)
        layers
    in
    let writes =
      List.map (fun (l : Engine.layer_result) ->
          Simulator.l1_write_bits_per_cycle l.Engine.report)
        layers
    in
    Table.add_row t
      [
        name;
        string_of_int (List.length layers);
        Table.cell_float ~decimals:0 (Stats.maximum reads);
        Table.cell_float ~decimals:0 (Stats.mean reads);
        Table.cell_float ~decimals:0 (Stats.maximum writes);
        Table.cell_float ~decimals:0 (Stats.mean writes);
      ]
  in
  let bert = Ascend.Nn.Bert.large ~seq_len:128 () in
  let tr = ok (Engine.run_training Config.max bert) in
  let is_bwd (l : Engine.layer_result) =
    String.length l.Engine.group.Fusion.tag >= 4
    && String.sub l.Engine.group.Fusion.tag 0 4 = "bwd:"
  in
  let fwd, bwd = List.partition (fun l -> not (is_bwd l)) tr.Engine.layers in
  add "BERT forward" fwd;
  add "BERT backward" bwd;
  add "MobileNet inf."
    (ok (Engine.run_inference Config.max (Ascend.Nn.Mobilenet.v2 ()))).Engine.layers;
  add "ResNet50 inf."
    (ok (Engine.run_inference Config.max (Ascend.Nn.Resnet.v1_5 ()))).Engine.layers;
  Table.print t;
  Format.printf
    "paper bound: reads <= 4096 bits/cycle, writes <= 2048 bits/cycle; \
     MobileNet shows the highest L1 demand@."

(* ------------------------------------------------------------------ *)
(* §2.4: the Lite vector-width rebalance                               *)

let lite_rebalance () =
  section_header "lite_rebalance"
    "why Ascend-Lite keeps a relatively wide vector unit (cube 8192->2048 \
     OPS/cyc, vector 256->128 B)";
  let lite_with ~vector_width_bytes ~ub =
    {
      Config.lite with
      Config.vector_width_bytes;
      bandwidth = { Config.lite.Config.bandwidth with Config.ub_port = ub };
    }
  in
  let variants =
    [
      ("Lite 64B vector", lite_with ~vector_width_bytes:64 ~ub:512);
      ("Lite 128B vector (shipped)", Config.lite);
      ("Lite 256B vector", lite_with ~vector_width_bytes:256 ~ub:2048);
    ]
  in
  let g = Ascend.Nn.Mobilenet.v2 () in
  let t =
    Table.create
      ~header:[ "variant"; "MobileNetV2 ms"; "layers ratio<1"; "core power W" ]
      ()
  in
  List.iter
    (fun (name, config) ->
      let r = ok (Engine.run_inference config g) in
      let sub1 =
        List.length
          (List.filter
             (fun (l : Engine.layer_result) -> l.Engine.ratio < 1.)
             r.Engine.layers)
      in
      Table.add_row t
        [
          name;
          Table.cell_float (Engine.seconds r *. 1e3);
          Printf.sprintf "%d/%d" sub1 (List.length r.Engine.layers);
          Table.cell_float (Engine.average_power_w r);
        ])
    variants;
  Table.print t;
  Format.printf
    "the 128 B point recovers most of the 256 B performance at roughly half \
     the vector power — the paper's shipped trade-off@."

(* ------------------------------------------------------------------ *)
(* §3.1.1: the 910 mesh NoC                                            *)

let noc () =
  section_header "noc" "Ascend 910 mesh NoC (6x4, 1024-bit @ 2 GHz links)";
  let m = Ascend.Noc.Mesh.ascend910 in
  Format.printf
    "link bandwidth %.0f GB/s (paper: 256 GB/s); bisection %.1f TB/s@."
    (Ascend.Noc.Mesh.link_bandwidth m /. 1e9)
    (Ascend.Noc.Mesh.bisection_bandwidth m /. 1e12);
  (* flow level: cores all loading from the memory-port edge nodes *)
  let flows =
    List.concat_map
      (fun row ->
        List.map
          (fun col ->
            {
              Ascend.Noc.Mesh.src = Ascend.Noc.Mesh.node m ~row ~col;
              dst = Ascend.Noc.Mesh.node m ~row:0 ~col:(col mod 2);
              demand = 40e9;
            })
          [ 0; 1; 2; 3 ])
      [ 1; 2; 3; 4; 5 ]
  in
  let results = Ascend.Noc.Mesh.route_flows m flows in
  let total =
    List.fold_left (fun a r -> a +. r.Ascend.Noc.Mesh.throughput) 0. results
  in
  Format.printf
    "20 cores pulling 40 GB/s each toward two memory ports: aggregate %.0f \
     GB/s delivered (demand %.0f GB/s)@."
    (total /. 1e9) (40. *. 20.);
  let t =
    Table.create ~title:"bufferless deflection router, uniform random traffic"
      ~header:[ "packets"; "avg latency (cyc)"; "max"; "deflections" ]
      ()
  in
  List.iter
    (fun packets ->
      let s =
        Ascend.Noc.Deflection.uniform_random_experiment ~rows:6 ~cols:4
          ~packets ~seed:42
      in
      Table.add_row t
        [
          string_of_int packets;
          Table.cell_float (Ascend.Noc.Deflection.average_latency s);
          string_of_int s.Ascend.Noc.Deflection.max_latency_cycles;
          string_of_int s.Ascend.Noc.Deflection.deflections;
        ])
    [ 24; 240; 1200; 4800 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 7: training SoC PPA                                           *)

let resnet_training_layers batch =
  let g = Ascend.Nn.Resnet.v1_5 ~batch () in
  List.map (Training_nn.node_training_workload g) (Ascend.Nn.Graph.nodes g)

let bert_training_layers batch =
  let g = Ascend.Nn.Bert.large ~batch ~seq_len:128 () in
  List.map (Training_nn.node_training_workload g) (Ascend.Nn.Graph.nodes g)

let table7 () =
  section_header "table7" "training SoC PPA: V100 / TPUv3 / CPU / Ascend 910";
  let batch = 32 in
  let rn =
    ok
      (Soc.run ~training:true Soc.ascend910
         ~build:(fun ~batch -> Ascend.Nn.Resnet.v1_5 ~batch ())
         ~batch)
  in
  let bert =
    ok
      (Soc.run ~training:true Soc.ascend910
         ~build:(fun ~batch -> Ascend.Nn.Bert.large ~batch ~seq_len:128 ())
         ~batch)
  in
  let v100 = Ascend.Baselines.Simt_gpu.v100 in
  let tpu = Ascend.Baselines.Systolic.tpu_v3 in
  let cpu = Ascend.Baselines.Cpu.xeon_8180 in
  let v100_rn =
    float_of_int batch
    /. Ascend.Baselines.Simt_gpu.network_seconds v100 (resnet_training_layers batch)
  in
  let v100_bert =
    float_of_int batch
    /. Ascend.Baselines.Simt_gpu.network_seconds v100 (bert_training_layers batch)
  in
  let tpu_rn =
    float_of_int batch
    /. Ascend.Baselines.Systolic.network_seconds tpu (resnet_training_layers batch)
  in
  let cpu_rn =
    float_of_int batch
    /. Ascend.Baselines.Cpu.network_seconds cpu (resnet_training_layers batch)
  in
  let t =
    Table.create ~header:[ "metric"; "V100"; "TPUv3"; "Xeon 8180"; "Ascend 910" ] ()
  in
  Table.add_row t
    [
      "peak TFLOPS";
      Table.cell_float ~decimals:0
        (Ascend.Baselines.Simt_gpu.peak_tensor_flops v100 /. 1e12);
      Table.cell_float ~decimals:0
        (Ascend.Baselines.Systolic.peak_flops tpu /. 1e12);
      Table.cell_float ~decimals:1 (Ascend.Baselines.Cpu.peak_flops cpu /. 1e12);
      Table.cell_float ~decimals:0
        (Soc.peak_flops Soc.ascend910 ~precision:Precision.Fp16 /. 1e12);
    ];
  Table.add_row t
    [
      "power (W)";
      Table.cell_float ~decimals:0 v100.Ascend.Baselines.Simt_gpu.power_w;
      Table.cell_float ~decimals:0 tpu.Ascend.Baselines.Systolic.power_w;
      Table.cell_float ~decimals:0 cpu.Ascend.Baselines.Cpu.power_w;
      Table.cell_float ~decimals:0 rn.Soc.chip_power_w;
    ];
  Table.add_row t
    [
      "area (mm2)";
      Table.cell_float ~decimals:0 v100.Ascend.Baselines.Simt_gpu.area_mm2;
      "-";
      "~700";
      Printf.sprintf "%.0f + %.0f IO"
        (Soc.compute_die_area_mm2 Soc.ascend910)
        Soc.ascend910.Soc.io_die_area_mm2;
    ];
  Table.add_row t
    [
      "ResNet50 images/s";
      Table.cell_float ~decimals:0 v100_rn;
      Table.cell_float ~decimals:0 tpu_rn;
      Table.cell_float ~decimals:1 cpu_rn;
      Table.cell_float ~decimals:0 rn.Soc.throughput_per_s;
    ];
  Table.add_row t
    [
      "BERT-Large seq/s (8 chips)";
      Table.cell_float ~decimals:0 (8. *. v100_bert);
      "-";
      "-";
      Table.cell_float ~decimals:0 (8. *. bert.Soc.throughput_per_s);
    ];
  Table.print t;
  Format.printf
    "paper: peak 125/106/1.5/256 TFLOPS; ResNet50 1058/976/-/1809 img/s; \
     BertLarge 8p 822/-/-/3169 seq/s@.";
  Format.printf
    "shape check: Ascend 910 > V100 > TPUv3 on ResNet50 -> measured %s@."
    (if rn.Soc.throughput_per_s > v100_rn && v100_rn > tpu_rn then "yes"
     else "NO")

(* ------------------------------------------------------------------ *)
(* Table 8: mobile AI core PPA                                         *)

let table8 () =
  section_header "table8" "mobile AI PPA: Kirin 990-5G vs published parts";
  let soc = Mobile.kirin990 in
  let mb = ok (Mobile.run_big soc (Ascend.Nn.Mobilenet.v2 ())) in
  let t =
    Table.create
      ~header:[ "chip"; "peak TOPS"; "TOPS/W"; "NPU area mm2";
                "MobileNetV2 ms (fp16)" ]
      ()
  in
  Table.add_rows t
    [
      [ "SnapDragon 865 (paper)"; "8"; "-"; "2.4"; "15" ];
      [ "Dimensity 1000 (paper)"; "4.5"; "3.4-6.8"; "2.68"; "7" ];
      [ "Exynos 9820 (paper)"; "2.1-6.9"; "3.6-11.5"; "5.5"; "15" ];
      [ "Apple A13 (paper)"; "6"; "-"; "2.61"; "-" ];
      [ "Kirin 990-5G (paper)"; "6.88"; "4.6"; "4"; "5.2" ];
    ];
  Table.add_separator t;
  Table.add_row t
    [
      "Kirin 990-5G (simulated)";
      Table.cell_float (Mobile.peak_tops soc);
      Table.cell_float mb.Mobile.tops_per_watt;
      Table.cell_float ~decimals:1 (Mobile.npu_area_mm2 soc);
      Table.cell_float (mb.Mobile.latency_s *. 1e3);
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 9: automotive SoC PPA                                         *)

let table9 () =
  section_header "table9" "automotive SoC PPA";
  let soc = Auto.ascend610 in
  let t =
    Table.create ~header:[ "chip"; "peak TOPS"; "power (W)"; "area (mm2)" ] ()
  in
  Table.add_rows t
    [
      [ "NVidia Xavier (paper)"; "34"; "30"; "350" ];
      [ "Tesla FSD (paper)"; "73"; "100"; "260" ];
      [ "Mobileye EyeQ5 (paper)"; "24"; "10"; "-" ];
      [ "Ascend 610 (paper)"; "160"; "65"; "401" ];
    ];
  Table.add_separator t;
  Table.add_row t
    [
      "Ascend 610 (simulated)";
      Table.cell_float ~decimals:0 (Auto.peak_tops soc ~precision:Precision.Int8);
      Table.cell_float ~decimals:0 soc.Auto.tdp_w;
      "-";
    ];
  Table.print t;
  let fsd = Ascend.Baselines.Systolic.fsd_like in
  let util m k n = Ascend.Baselines.Systolic.gemm_utilization fsd ~m ~k ~n in
  Format.printf
    "FSD-like 96x96 systolic utilisation: large GEMM (4096^3) %.0f%%, small \
     automotive layer (m=256,k=128,n=64) %.0f%% — the pipeline-bubble penalty \
     the paper speculates about@."
    (100. *. util 4096 4096 4096)
    (100. *. util 256 128 64)

(* ------------------------------------------------------------------ *)
(* Table 10: business numbers (not reproducible)                       *)

let table10 () =
  section_header "table10"
    "commercial shipment volumes (quoted, not reproducible by simulation)";
  let t = Table.create ~header:[ "product"; "release"; "quantity" ] () in
  Table.add_rows t
    [
      [ "Ascend 910"; "2019"; "~0.2 M" ];
      [ "Mobile SoC with Ascend cores"; "2019"; "> 100 M" ];
      [ "Ascend 610"; "2020"; "/" ];
      [ "Ascend 310"; "2018"; "~1 M" ];
    ];
  Table.print ~align:Table.Left t

(* ------------------------------------------------------------------ *)
(* §3.2: mobile utilisation & DVFS                                     *)

let mobile_util () =
  section_header "mobile_util" "Kirin 990: batch-1 utilisation and DVFS";
  Format.printf
    "cube MAC utilisation on an m=4 GEMM fragment (batch-1 late layers): Lite \
     4x16x16 %.0f%% vs Max 16x16x16 %.0f%% (the paper's reason for the \
     smaller m dimension)@."
    (100. *. Mobile.batch1_cube_utilization Config.lite ~m:4 ~k:256 ~n:256)
    (100. *. Mobile.batch1_cube_utilization Config.max ~m:4 ~k:256 ~n:256);
  let soc = Mobile.kirin990 in
  let g = Ascend.Nn.Mobilenet.v2 () in
  let t =
    Table.create ~title:"DVFS trade-off, MobileNetV2 batch 1"
      ~header:[ "point"; "latency ms"; "power W"; "energy mJ"; "TOPS/W" ]
      ()
  in
  List.iter
    (fun (p : Mobile.dvfs_point) ->
      let r = ok (Mobile.run_big ~point:p.Mobile.point_name soc g) in
      Table.add_row t
        [
          p.Mobile.point_name;
          Table.cell_float (r.Mobile.latency_s *. 1e3);
          Table.cell_float r.Mobile.average_power_w;
          Table.cell_float (r.Mobile.energy_per_inference_j *. 1e3);
          Table.cell_float r.Mobile.tops_per_watt;
        ])
    soc.Mobile.dvfs;
  Table.print t;
  let gest = ok (Mobile.run_little soc (Ascend.Nn.Gesture.build ())) in
  Format.printf
    "Ascend-Tiny gesture net: %.0f mW (paper: ~300 mW typical power)@."
    (gest.Mobile.average_power_w *. 1e3)

(* ------------------------------------------------------------------ *)
(* §3.3: QoS / MPAM                                                    *)

let qos () =
  section_header "qos"
    "Ascend 610: MPAM bounds perception latency under background traffic";
  let soc = Auto.ascend610 in
  let models =
    [
      ("detector", Ascend.Nn.Resnet.v1_5_18 (), 0.05);
      ("segmenter", Ascend.Nn.Mobilenet.v2 (), 0.05);
    ]
  in
  let t =
    Table.create
      ~header:[ "background GB/s"; "MPAM"; "detector ms"; "segmenter ms";
                "deadlines met" ]
      ()
  in
  List.iter
    (fun bg ->
      List.iter
        (fun with_mpam ->
          let rs =
            ok (Auto.run_service ~with_mpam soc ~models ~background_demand:bg)
          in
          let e2e name =
            (List.find (fun (r : Auto.service_result) -> r.Auto.model_name = name) rs)
              .Auto.end_to_end_s
          in
          let met = List.for_all (fun (r : Auto.service_result) -> r.Auto.met_deadline) rs in
          Table.add_row t
            [
              Table.cell_float ~decimals:0 (bg /. 1e9);
              (if with_mpam then "on" else "off");
              Table.cell_float (e2e "detector" *. 1e3);
              Table.cell_float (e2e "segmenter" *. 1e3);
              (if met then "all" else "MISSED");
            ])
        [ true; false ])
    [ 0.; 40e9; 90e9 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* §4.1: LLC capacity scaling (3D-SRAM)                                *)

let llc_scaling () =
  section_header "llc_scaling" "3D-SRAM LLC capacity sweep (96 MB -> 720 MB)";
  let mib = Ascend.Util.Units.mib in
  let run ~llc ~build ~batch =
    ok (Soc.run ~training:true (Soc.ascend910_llc ~llc_bytes:llc) ~build ~batch)
  in
  let sweep name build batch paper =
    let base = run ~llc:(96 * mib) ~build ~batch in
    let t =
      Table.create
        ~title:(name ^ " training throughput vs LLC capacity")
        ~header:[ "LLC MB"; "hit fraction"; "HBM slowdown"; "items/s";
                  "speedup vs 96MB" ]
        ()
    in
    let final = ref base in
    List.iter
      (fun mb ->
        let r = run ~llc:(mb * mib) ~build ~batch in
        if mb = 720 then final := r;
        Table.add_row t
          [
            string_of_int mb;
            Table.cell_float r.Soc.llc_hit_fraction;
            Table.cell_ratio r.Soc.hbm_slowdown;
            Table.cell_float ~decimals:0 r.Soc.throughput_per_s;
            Table.cell_ratio (r.Soc.throughput_per_s /. base.Soc.throughput_per_s);
          ])
      [ 96; 192; 384; 720 ];
    Table.print t;
    Format.printf "measured 720/96 speedup: %.2fx (paper: %.2fx)@."
      (!final.Soc.throughput_per_s /. base.Soc.throughput_per_s)
      paper
  in
  sweep "ResNet-50" (fun ~batch -> Ascend.Nn.Resnet.v1_5 ~batch ()) 64 1.71;
  sweep "BERT-Large"
    (fun ~batch -> Ascend.Nn.Bert.large ~batch ~seq_len:128 ())
    32 1.51;
  (* trace-driven cross-check with the real set-associative cache: the
     actual per-layer address stream of ResNet-18 against capacity *)
  let g = Ascend.Nn.Resnet.v1_5_18 ~batch:4 () in
  let footprint = Ascend.Soc.Llc_trace.address_footprint_bytes g in
  Format.printf
    "@.trace-driven cross-check (ResNet-18 batch 4, footprint %a):@."
    Ascend.Util.Units.pp_bytes footprint;
  let t2 =
    Table.create ~header:[ "LLC capacity"; "steady hit rate" ] ()
  in
  List.iter
    (fun (p : Ascend.Soc.Llc_trace.sweep_point) ->
      Table.add_row t2
        [
          Format.asprintf "%a" Ascend.Util.Units.pp_bytes
            p.Ascend.Soc.Llc_trace.capacity_bytes;
          Printf.sprintf "%.1f%%" (100. *. p.Ascend.Soc.Llc_trace.hit_rate);
        ])
    (Ascend.Soc.Llc_trace.sweep g
       ~capacities:
         [ footprint / 8; footprint / 4; footprint / 2; footprint * 2 ]);
  Table.print t2

(* ------------------------------------------------------------------ *)
(* §4.2: server and cluster                                            *)

let cluster () =
  section_header "cluster" "Ascend 910 server and cluster scaling";
  let server = Ascend.Cluster.Server.ascend910_server in
  Format.printf
    "server: %d chips in %d groups; HCCS %.0f GB/s intra, PCI-E %.0f GB/s \
     inter (paper: 30 / 32)@."
    server.Ascend.Cluster.Server.chips server.Ascend.Cluster.Server.groups
    (server.Ascend.Cluster.Server.hccs_bytes_per_s /. 1e9)
    (server.Ascend.Cluster.Server.pcie_bytes_per_s /. 1e9);
  let chip =
    ok
      (Soc.run ~training:true Soc.ascend910
         ~build:(fun ~batch -> Ascend.Nn.Resnet.v1_5 ~batch ())
         ~batch:32)
  in
  let grad =
    2. *. float_of_int (Ascend.Nn.Graph.total_params (Ascend.Nn.Resnet.v1_5 ()))
  in
  let t =
    Table.create ~title:"data-parallel ResNet-50 scaling (batch 32/chip)"
      ~header:[ "chips"; "step ms"; "allreduce ms"; "images/s"; "efficiency" ]
      ()
  in
  List.iter
    (fun chips ->
      let c = Cluster.cluster_of_chips ~chips in
      let s = Cluster.train_step c ~chip_result:chip ~param_bytes:grad in
      Table.add_row t
        [
          string_of_int chips;
          Table.cell_float (s.Cluster.step_seconds *. 1e3);
          Table.cell_float (s.Cluster.allreduce_seconds *. 1e3);
          Table.cell_float ~decimals:0 s.Cluster.images_per_second;
          Printf.sprintf "%.0f%%" (100. *. s.Cluster.scaling_efficiency);
        ])
    [ 8; 64; 256; 1024; 2048 ];
  Table.print t;
  Format.printf "2048-chip cluster peak: %.0f PFLOPS fp16 (paper: 512)@."
    (Cluster.peak_fp16_flops Cluster.ascend_cluster_2048 /. 1e15)

let mlperf () =
  section_header "mlperf" "ResNet-50/ImageNet time-to-train on 256 chips";
  let chip =
    ok
      (Soc.run ~training:true Soc.ascend910
         ~build:(fun ~batch -> Ascend.Nn.Resnet.v1_5 ~batch ())
         ~batch:32)
  in
  let c = Cluster.cluster_of_chips ~chips:256 in
  let grad =
    2. *. float_of_int (Ascend.Nn.Graph.total_params (Ascend.Nn.Resnet.v1_5 ()))
  in
  let step = Cluster.train_step c ~chip_result:chip ~param_bytes:grad in
  let t44 =
    Cluster.time_to_train_seconds c ~step ~samples_per_epoch:1_281_167
      ~epochs:44.
  in
  Format.printf "measured: %.0f images/s aggregate; 44 ImageNet epochs in %.0f s@."
    step.Cluster.images_per_second t44;
  Format.printf
    "paper: < 83 s with 256 chips and their full-stack-tuned recipe — same \
     order of magnitude, same mechanism (compute-bound steps, overlapped \
     hierarchical all-reduce)@."

(* ------------------------------------------------------------------ *)
(* §3.3: the low-precision inference trade                             *)

let precision () =
  section_header "precision"
    "§3.3: accuracy vs time/energy across inference precisions (Ascend 610 \
     core)";
  let t =
    Table.create
      ~header:[ "precision"; "ResNet-18 latency (us)"; "energy (uJ)";
                "output SNR (dB, small CNN)" ]
      ()
  in
  (* numeric degradation measured on a small CNN with weight-only PTQ *)
  let snr dtype =
    let module Graph = Ascend.Nn.Graph in
    let module Shape = Ascend.Tensor.Shape in
    let g = Graph.create ~name:"q" ~dtype:Precision.Fp32 in
    let x = Graph.input g ~name:"in" (Shape.nchw ~n:1 ~c:3 ~h:8 ~w:8) in
    let c = Graph.conv2d g ~name:"c1" ~cout:8 ~k:3 ~padding:1 x in
    let r = Graph.relu g c in
    let c2 = Graph.conv2d g ~name:"c2" ~cout:8 ~k:3 ~padding:1 r in
    let gp = Graph.global_avg_pool g c2 in
    let fc = Graph.linear g ~name:"fc" ~out_features:4 gp in
    ignore (Graph.output g fc);
    let params = Ascend.Nn.Eval.random_params ~seed:31 g in
    let rng = Ascend.Util.Prng.create ~seed:32 in
    let inputs =
      [ ("in", Ascend.Tensor.Tensor.random rng (Shape.nchw ~n:1 ~c:3 ~h:8 ~w:8)) ]
    in
    (Ascend.Nn.Quantized.compare_outputs g params ~inputs ~dtype)
      .Ascend.Nn.Quantized.output_snr_db
  in
  List.iter
    (fun (name, dtype, snr_cell) ->
      let g = Ascend.Nn.Resnet.v1_5_18 ~dtype () in
      match Engine.run_inference Config.standard g with
      | Error e -> Format.printf "%s: %s@." name e
      | Ok r ->
        Table.add_row t
          [
            name;
            Table.cell_float (Engine.seconds r *. 1e6);
            Table.cell_float (r.Engine.total_energy_j *. 1e6);
            snr_cell;
          ])
    [
      ("fp16", Precision.Fp16, "(reference)");
      ("int8", Precision.Int8, Printf.sprintf "%.1f" (snr Precision.Int8));
      ("int4", Precision.Int4, Printf.sprintf "%.1f" (snr Precision.Int4));
    ];
  Table.print t;
  Format.printf
    "lower precision buys latency and energy at bounded accuracy cost — the \
     automotive trade of §3.3 (int4 supported on the Ascend 610 core only)@."

(* ------------------------------------------------------------------ *)
(* §7.1: related-work architecture comparison                          *)

let related_work () =
  section_header "related_work"
    "§7.1: SIMT vs systolic vs dataflow vs Ascend on the same workloads";
  let g = Ascend.Nn.Resnet.v1_5_18 () in
  let layers =
    List.map (Workload.of_node g) (Ascend.Nn.Graph.nodes g)
  in
  let t =
    Table.create
      ~header:[ "architecture"; "batch-1 latency (ms)"; "batch-256 util";
                "sync training" ]
      ()
  in
  let v100 = Ascend.Baselines.Simt_gpu.v100 in
  let tpu = Ascend.Baselines.Systolic.tpu_v3 in
  let df = Ascend.Baselines.Dataflow.generic_dataflow in
  Table.add_row t
    [
      "SIMT GPU (V100 model)";
      Table.cell_float (1e3 *. Ascend.Baselines.Simt_gpu.network_seconds v100 layers);
      "high";
      "yes";
    ];
  Table.add_row t
    [
      "systolic (TPUv3 model)";
      Table.cell_float (1e3 *. Ascend.Baselines.Systolic.network_seconds tpu layers);
      "high";
      "yes (norm-layer drains)";
    ];
  Table.add_row t
    [
      "dataflow fabric";
      Table.cell_float
        (1e3 *. Ascend.Baselines.Dataflow.single_sample_latency_s df ~layers);
      Printf.sprintf "%.0f%%"
        (100. *. Ascend.Baselines.Dataflow.utilization df ~layers ~batch:256);
      "no (paper §7.1)";
    ];
  (match Engine.run_inference Config.max g with
  | Ok r ->
    Table.add_row t
      [
        "Ascend-Max (simulated)";
        Table.cell_float (1e3 *. Engine.seconds r);
        "high";
        "yes";
      ]
  | Error e -> Format.printf "ascend: %s@." e);
  Table.print t;
  Format.printf
    "the dataflow fabric's batch-1 latency is reconfiguration-bound (%.0f us \
     x %d layers) — the §7.1 mobile/automotive objection@."
    (df.Ascend.Baselines.Dataflow.reconfiguration_s *. 1e6)
    (List.length layers)

(* ------------------------------------------------------------------ *)
(* Edge inference SoC (Ascend 310)                                     *)

let edge () =
  section_header "edge" "Ascend 310 edge-inference SoC (Tables 5/10)";
  let soc = Ascend.Soc.Inference_soc.ascend310 in
  Format.printf "%s: %.1f TOPS int8 peak, %.0f W TDP@."
    soc.Ascend.Soc.Inference_soc.soc_name
    (Ascend.Soc.Inference_soc.peak_tops soc ~precision:Precision.Int8)
    soc.Ascend.Soc.Inference_soc.tdp_w;
  List.iter
    (fun (name, g) ->
      match Ascend.Soc.Inference_soc.run soc g with
      | Error e -> Format.printf "%s: %s@." name e
      | Ok r ->
        Format.printf
          "  %-10s %.2f ms/frame, %.0f fps ideal / %.0f fps scheduled \
           across cores, %.1f W, %d concurrent 1080p30 channels@."
          name
          (r.Ascend.Soc.Inference_soc.latency_s *. 1e3)
          r.Ascend.Soc.Inference_soc.throughput_per_s
          r.Ascend.Soc.Inference_soc.scheduled_throughput_per_s
          r.Ascend.Soc.Inference_soc.power_w
          r.Ascend.Soc.Inference_soc.video_channels;
        Bench_json.record_float (name ^ "_fps")
          r.Ascend.Soc.Inference_soc.scheduled_throughput_per_s)
    [
      ("resnet18", Ascend.Nn.Resnet.v1_5_18 ());
      ("resnet50", Ascend.Nn.Resnet.v1_5 ());
      ("mobilenet", Ascend.Nn.Mobilenet.v2 ());
    ]

(* ------------------------------------------------------------------ *)
(* Request-level serving (lib/serving over the §5.2 scheduler)         *)

let rec serving () =
  section_header "serving"
    "request-level serving: seeded load, dynamic batching, QoS admission, \
     SLO metrics (2-core Standard SoC under mixed-priority overload)";
  let module Serve = Ascend.Serving.Serve in
  let module Load_gen = Ascend.Serving.Load_gen in
  let duration_s = 0.25 in
  let spec name build priority slo_ms rate seed =
    {
      Serve.name;
      build;
      priority;
      slo_ms;
      workload =
        Serve.Open_loop
          (Load_gen.create ~process:Load_gen.Poisson ~rate_per_s:rate
             ~duration_s ~seed ());
    }
  in
  let specs =
    [
      spec "resnet18"
        (fun ~batch -> Ascend.Nn.Resnet.v1_5_18 ~batch ())
        5 10. 2500. 11;
      spec "mobilenet"
        (fun ~batch -> Ascend.Nn.Mobilenet.v2 ~batch ())
        0 50. 2500. 12;
    ]
  in
  let config =
    { (Serve.default_config ~core:Config.standard ~cores:2) with
      Serve.duration_s; queue_depth = 16; max_batch = 4 }
  in
  match Serve.run config specs with
  | Error e -> Format.printf "serving: %s@." e
  | Ok r ->
    Format.printf "%a" Serve.pp r;
    Format.printf
      "the high-priority detector holds its tighter SLO while the \
       background segmenter absorbs the queueing — §5.2's QoS story at \
       request level@.";
    Bench_json.record_int "offline_makespan_cycles" r.Serve.offline_makespan_cycles;
    List.iter
      (fun (s : Ascend.Serving.Metrics.model_summary) ->
        Bench_json.record_float (s.Ascend.Serving.Metrics.model ^ "_p99_ms")
          s.Ascend.Serving.Metrics.p99_ms;
        Bench_json.record_float
          (s.Ascend.Serving.Metrics.model ^ "_goodput_per_s")
          s.Ascend.Serving.Metrics.goodput_per_s)
      r.Serve.metrics.Ascend.Serving.Metrics.summaries;
    two_tier_costing ()

(* ------------------------------------------------------------------ *)
(* Two-tier costing: the same closed-loop workload priced by the exact
   compile+simulate oracle and by the calibrated surrogate             *)

and two_tier_costing () =
  let module Serve = Ascend.Serving.Serve in
  let module Calibration = Ascend.Cost.Calibration in
  Format.printf
    "@.two-tier costing: 32 closed-loop bert-base clients on a 2-core Max \
     SoC; every dispatched batch pays one Cost.lookup, so the pricing tier \
     dominates the wall clock@.";
  let build ~batch = Ascend.Nn.Bert.base ~batch ~seq_len:128 () in
  let max_batch = 4 in
  let specs =
    [
      {
        Serve.name = "bert-base";
        build;
        priority = 0;
        slo_ms = 500.;
        workload = Serve.Closed_loop { clients = 32; think_s = 0.; seed = 31 };
      };
    ]
  in
  let config =
    { (Serve.default_config ~core:Config.max ~cores:2) with
      Serve.duration_s = 400.; queue_depth = 64; max_batch }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let completed (r : Serve.result) =
    List.fold_left
      (fun acc (s : Ascend.Serving.Metrics.model_summary) ->
        acc + s.Ascend.Serving.Metrics.completed)
      0 r.Serve.metrics.Ascend.Serving.Metrics.summaries
  in
  let run costing =
    match time (fun () -> Serve.run { config with Serve.costing } specs) with
    | Ok r, wall_s -> (r, wall_s)
    | Error e, _ -> failwith ("two-tier costing: " ^ e)
  in
  let exact, exact_wall_s = run `Exact in
  let surrogate, surrogate_wall_s = run `Surrogate in
  if completed exact <> completed surrogate then
    failwith "two-tier costing: tiers served different request counts";
  let exact_rps = float_of_int (completed exact) /. exact_wall_s in
  let surrogate_rps =
    float_of_int (completed surrogate) /. surrogate_wall_s
  in
  let speedup = exact_wall_s /. surrogate_wall_s in
  let t =
    Table.create
      ~header:[ "costing"; "completed"; "batches"; "wall s"; "req/s (wall)" ]
      ()
  in
  let row name (r : Serve.result) wall_s rps =
    [ name;
      string_of_int (completed r);
      string_of_int (List.length r.Serve.batches);
      Printf.sprintf "%.2f" wall_s;
      Printf.sprintf "%.0f" rps ]
  in
  Table.add_rows t
    [
      row "exact" exact exact_wall_s exact_rps;
      row "surrogate" surrogate surrogate_wall_s surrogate_rps;
    ];
  Table.print t;
  (* the surrogate's honesty check: re-run the calibration protocol and
     report its worst cycle error against the oracle *)
  let service = Ascend.Exec.Service.create ~jobs:1 () in
  let report =
    match
      Calibration.run ~service ~core:Config.max ~model:"bert-base" ~build
        ~max_batch ()
    with
    | Ok report -> report
    | Error e -> failwith ("two-tier costing: calibration: " ^ e)
  in
  Ascend.Exec.Service.shutdown service;
  Format.printf "%a" (Calibration.pp ()) report;
  Format.printf "surrogate speedup: %.1fx requests/sec at %.2f%% max cycle \
     error@."
    speedup report.Calibration.max_abs_pct_error;
  Bench_json.record_float "exact_requests_per_wall_s" exact_rps;
  Bench_json.record_float "surrogate_requests_per_wall_s" surrogate_rps;
  Bench_json.record_float "surrogate_speedup" speedup;
  Bench_json.record_float "surrogate_max_abs_pct_error"
    report.Calibration.max_abs_pct_error

(* ------------------------------------------------------------------ *)
(* Fleet serving (lib/fleet over the cluster substrate)                *)

let fleet () =
  section_header "fleet"
    "multi-node inference fleet: routing policy vs goodput, cross-node tail \
     latency and per-node utilization (4x 910 nodes, Tiny cores)";
  let module Fleet = Ascend.Fleet.Fleet in
  let module Router = Ascend.Fleet.Router in
  let module Serve = Ascend.Serving.Serve in
  let module Load_gen = Ascend.Serving.Load_gen in
  let module Metrics = Ascend.Serving.Metrics in
  let duration_s = 0.25 in
  let spec ?(process = Load_gen.Poisson) ?(duration_s = duration_s) name build
      rate seed replicas =
    {
      Fleet.name;
      build;
      priority = 0;
      slo_ms = 50.;
      replicas;
      kv_bytes = 0;
      workload =
        Serve.Open_loop
          (Load_gen.create ~process ~rate_per_s:rate ~duration_s ~seed ());
    }
  in
  let gesture ~batch = Ascend.Nn.Gesture.build ~batch () in
  let face_detect ~batch = Ascend.Nn.Face_detect.build ~batch () in
  let specs =
    [
      spec "gesture" gesture 3000. 21 0;
      spec "face-detect" face_detect 1500. 22 1;
    ]
  in
  let config policy =
    {
      (Fleet.default_config ~core:Config.tiny ~nodes:4) with
      Fleet.cores_per_node = 4;
      duration_s;
      policy;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let t =
    Table.create
      ~header:[ "policy"; "completed"; "goodput/s"; "p99 ms"; "page-ins";
                "mean util"; "wall s"; "req/s (wall)" ]
      ()
  in
  let row pname config specs =
    let r, wall_s =
      time (fun () ->
          match Fleet.run config specs with
          | Ok r -> r
          | Error e -> failwith e)
    in
    let summaries = r.Fleet.fleet_metrics.Metrics.summaries in
    let completed =
      List.fold_left (fun a s -> a + s.Metrics.completed) 0 summaries
    in
    let goodput =
      List.fold_left (fun a s -> a +. s.Metrics.goodput_per_s) 0. summaries
    in
    let p99 =
      List.fold_left (fun a s -> Float.max a s.Metrics.p99_ms) 0. summaries
    in
    let mean_util =
      let u = r.Fleet.fleet_metrics.Metrics.core_utilization in
      Array.fold_left ( +. ) 0. u /. float_of_int (max 1 (Array.length u))
    in
    Table.add_row t
      [
        pname;
        string_of_int completed;
        Table.cell_float ~decimals:0 goodput;
        Table.cell_float p99;
        string_of_int r.Fleet.total_page_ins;
        Printf.sprintf "%.0f%%" (100. *. mean_util);
        Table.cell_float ~decimals:3 wall_s;
        Table.cell_float ~decimals:0 (float_of_int completed /. wall_s);
      ];
    Bench_json.record_int (pname ^ "_completed") completed;
    Bench_json.record_float (pname ^ "_goodput_per_s") goodput;
    Bench_json.record_float (pname ^ "_cross_node_p99_ms") p99;
    Bench_json.record_int (pname ^ "_page_ins") r.Fleet.total_page_ins;
    Bench_json.record_float (pname ^ "_mean_utilization") mean_util;
    Bench_json.record_float (pname ^ "_requests_per_wall_s")
      (float_of_int completed /. wall_s);
    List.iter
      (fun nr ->
        let u = nr.Fleet.node_metrics.Metrics.core_utilization in
        Bench_json.record_float
          (Printf.sprintf "%s_node%d_utilization" pname nr.Fleet.node)
          (Array.fold_left ( +. ) 0. u
          /. float_of_int (max 1 (Array.length u))))
      r.Fleet.node_reports;
    (r, wall_s)
  in
  List.iter
    (fun (pname, policy) -> ignore (row pname (config policy) specs))
    Router.policies;
  (* the event loop at a high arrival rate: 40k req/s per model, bursty,
     round-robin over the same replication plan.  Pending arrivals sit
     in a binary heap, so seeding the trace is O(n log n) *)
  let high_rate_s = 0.5 in
  let bursty = Load_gen.Bursty { factor = 4.; period_s = 0.1 } in
  let r, wall_s =
    row "high_rate"
      { (config Router.Round_robin) with Fleet.duration_s = high_rate_s }
      [
        spec ~process:bursty ~duration_s:high_rate_s "gesture" gesture 40000.
          21 0;
        spec ~process:bursty ~duration_s:high_rate_s "face-detect" face_detect
          40000. 22 1;
      ]
  in
  let arrivals = List.length r.Fleet.records in
  Table.print ~align:Table.Left t;
  Format.printf
    "affinity avoids every page-in by construction; round-robin pays the \
     cold model's weight streaming on every non-home node — the routing \
     policy is a bandwidth decision, not just a load-balancing one@.";
  Format.printf
    "high_rate: round-robin, bursty 40k req/s per model for %.1f s: %d \
     arrivals in %.3f s wall (%.0f arrivals/s)@."
    high_rate_s arrivals wall_s
    (float_of_int arrivals /. wall_s);
  Bench_json.record_int "high_rate_arrivals" arrivals;
  Bench_json.record_float "high_rate_wall_s" wall_s;
  Bench_json.record_float "high_rate_arrivals_per_wall_s"
    (float_of_int arrivals /. wall_s)

(* ------------------------------------------------------------------ *)
(* LLM decode serving (lib/decode: continuous vs static batching)      *)

let decode_bench () =
  section_header "decode"
    "LLM decode serving: continuous vs static batching under prefill \
     pressure (tiny decoder on the Lite core, phase-aware exact costing)";
  let module Engine = Ascend.Decode.Engine in
  let module Request = Ascend.Decode.Request in
  let module Metrics = Ascend.Decode.Metrics in
  let module Load_gen = Ascend.Serving.Load_gen in
  let requests =
    Request.of_load_gen
      ~gen:(Load_gen.create ~rate_per_s:2000. ~duration_s:0.05 ~seed:3 ())
      ~prompt:(Load_gen.Geometric { mean = 12.; max_len = 24 })
      ~output:(Load_gen.Geometric { mean = 8.; max_len = 16 })
  in
  let run mode =
    let config =
      { (Engine.default_config ~core:Config.lite ()) with Engine.mode }
    in
    let t0 = Unix.gettimeofday () in
    match Engine.run config requests with
    | Error e -> failwith e
    | Ok r -> (r, Unix.gettimeofday () -. t0)
  in
  let continuous, wall_c = run Engine.Continuous in
  let static, wall_s = run Engine.Static in
  let t =
    Table.create
      ~header:[ "mode"; "completed"; "tokens/s"; "ttft p99 ms"; "itl p99 ms";
                "mean batch"; "wall s" ]
      ()
  in
  List.iter
    (fun (name, (r : Engine.result), wall) ->
      let m = r.Engine.metrics in
      Table.add_row t
        [
          name;
          string_of_int m.Metrics.completed;
          Table.cell_float ~decimals:0 m.Metrics.tokens_per_s;
          Table.cell_float m.Metrics.ttft_p99_ms;
          Table.cell_float m.Metrics.itl_p99_ms;
          Table.cell_float m.Metrics.mean_decode_batch;
          Table.cell_float ~decimals:3 wall;
        ];
      Bench_json.record_float (name ^ "_tokens_per_s") m.Metrics.tokens_per_s;
      Bench_json.record_float (name ^ "_ttft_p99_ms") m.Metrics.ttft_p99_ms;
      Bench_json.record_float (name ^ "_itl_p99_ms") m.Metrics.itl_p99_ms;
      Bench_json.record_float (name ^ "_mean_decode_batch")
        m.Metrics.mean_decode_batch)
    [ ("continuous", continuous, wall_c); ("static", static, wall_s) ];
  Table.print ~align:Table.Left t;
  let speedup = Engine.speedup ~continuous ~static in
  Bench_json.record_float "continuous_over_static_speedup" speedup;
  Format.printf
    "continuous batching refills decode slots the moment a sequence \
     retires (%.2fx the static lockstep goodput here) and prefills new \
     arrivals between decode steps instead of waiting for a full group@."
    speedup

let compression () =
  section_header "compression"
    "instruction compression on the Lite core (§3.2: reduce NoC fetch \
     bandwidth)";
  let programs =
    Ascend.Compiler.Codegen.graph_programs Config.lite
      (Ascend.Nn.Mobilenet.v2 ())
  in
  let all_instrs =
    List.concat_map
      (fun (_, p) -> p.Ascend.Isa.Program.instructions)
      programs
  in
  let ratio = Ascend.Isa.Encoding.compression_ratio all_instrs in
  let raw_bw =
    Ascend.Isa.Encoding.fetch_bandwidth_bytes_per_cycle
      ~instructions_per_cycle:1. ~compressed:false all_instrs
  in
  let packed_bw =
    Ascend.Isa.Encoding.fetch_bandwidth_bytes_per_cycle
      ~instructions_per_cycle:1. ~compressed:true all_instrs
  in
  Format.printf
    "MobileNetV2 on Ascend-Lite: %d instructions, %d B raw@."
    (List.length all_instrs)
    (Bytes.length (Ascend.Isa.Encoding.encode all_instrs));
  Format.printf
    "compression ratio %.3f (%.1fx); instruction-fetch bandwidth %.1f -> \
     %.1f B/cycle at 1 instr/cycle dispatch@."
    ratio (1. /. ratio) raw_bw packed_bw

(* ------------------------------------------------------------------ *)
(* Ablations of the DESIGN.md design choices                           *)

let ablations () =
  section_header "ablations"
    "design-choice ablations: double buffering, auto-tiling, fp32 cube";
  let g18 = Ascend.Nn.Resnet.v1_5_18 () in
  let cyc options g config =
    match Engine.run_inference ~options config g with
    | Ok r -> r.Engine.total_cycles
    | Error e -> failwith e
  in
  (* 1. double buffering *)
  let with_db = cyc Ascend.Compiler.Codegen.default_options g18 Config.max in
  let without_db =
    cyc
      { Ascend.Compiler.Codegen.default_options with double_buffer = false }
      g18 Config.max
  in
  Format.printf
    "double buffering (ResNet-18, Max): %d -> %d cycles without (x%.2f \
     slower)@."
    with_db without_db
    (float_of_int without_db /. float_of_int with_db);
  (* 2. auto-tiling vs naive single-cube tiles (simulated on the small
     gesture net; the instruction-count blowup makes naive tiling
     impractical on large networks, which is itself the result) *)
  let gg = Ascend.Nn.Gesture.build () in
  let auto = cyc Ascend.Compiler.Codegen.default_options gg Config.tiny in
  let naive =
    cyc
      { Ascend.Compiler.Codegen.default_options with naive_tiling = true }
      gg Config.tiny
  in
  Format.printf
    "auto-tiling (GestureNet, Tiny): %d cycles vs %d naive single-tile \
     (x%.1f slower without the search)@."
    auto naive
    (float_of_int naive /. float_of_int auto);
  let est =
    (Ascend.Compiler.Tiling.choose Config.max ~precision:Precision.Fp16
       ~m:4096 ~k:4096 ~n:4096 ())
      .Ascend.Compiler.Tiling.estimated_cycles
  in
  let est_naive =
    (Ascend.Compiler.Tiling.naive Config.max ~precision:Precision.Fp16
       ~m:4096 ~k:4096 ~n:4096 ())
      .Ascend.Compiler.Tiling.estimated_cycles
  in
  Format.printf
    "analytical 4096^3 GEMM estimate: %d vs %d cycles (x%.1f)@." est est_naive
    (float_of_int est_naive /. float_of_int est);
  (* 3. Figure 3's decoupled flags vs coarse barrier-only sync *)
  let flags = cyc Ascend.Compiler.Codegen.default_options g18 Config.max in
  let barriers =
    cyc
      { Ascend.Compiler.Codegen.default_options with
        sync_mode = Ascend.Compiler.Codegen.Coarse_barriers }
      g18 Config.max
  in
  Format.printf
    "flag synchronisation (ResNet-18, Max): %d cycles vs %d with \
     barrier-only sync (x%.2f — what Figure 3's decoupled pipes buy)@."
    flags barriers
    (float_of_int barriers /. float_of_int flags);
  (* 4. §7.2 future work: fp32 in the cube *)
  let g18_fp32 =
    Ascend.Nn.Resnet.v1_5_18 ~dtype:Precision.Fp32 ()
  in
  let fp16 = cyc Ascend.Compiler.Codegen.default_options g18 Config.max in
  let fp32 =
    cyc Ascend.Compiler.Codegen.default_options g18_fp32 Config.hpc_prototype
  in
  Format.printf
    "fp32-cube HPC prototype (ResNet-18): fp32 %d cycles vs fp16 %d \
     (x%.2f — half-rate cube plus doubled traffic)@."
    fp32 fp16
    (float_of_int fp32 /. float_of_int fp16)

(* ------------------------------------------------------------------ *)
(* §3.3: Vector Core SLAM extensions                                   *)

let slam () =
  section_header "slam"
    "Vector Core (§3.3): SLAM front end on the cube-less core";
  let open Ascend.Vector_core in
  let p =
    Slam_pipeline.profile_frame ~width:640 ~height:480 ~features:4000
      ~landmarks:2000 ()
  in
  Format.printf "%a@." Slam_pipeline.pp p;
  let small =
    Slam_pipeline.profile_frame ~width:320 ~height:240 ~features:2000
      ~landmarks:500 ()
  in
  Format.printf "QVGA front end: %a@." Slam_pipeline.pp small;
  Format.printf
    "primitive cycle models — 1k quaternion muls: %d cyc; sort 4096 keys: \
     %d cyc; 8x6 LP (3 pivots): %d cyc@."
    (Quaternion.batched_mul_cycles Slam_pipeline.vector_core_config ~count:1000)
    (Sort.sort_cycles Slam_pipeline.vector_core_config ~n:4096)
    (Simplex.tableau_cycles Slam_pipeline.vector_core_config ~constraints:8
       ~variables:6 ~pivots:3)

(* ------------------------------------------------------------------ *)
(* §5.1/§5.2: graph engine streams                                     *)

let streams () =
  section_header "streams"
    "graph engine (§5.1): stream decomposition and block-level scheduling";
  let show name graph config =
    match Ascend.Compiler.Graph_engine.plan config graph with
    | Error e -> Format.printf "%s: %s@." name e
    | Ok p ->
      let serial = Ascend.Compiler.Graph_engine.serial_cycles p in
      let m2 = Ascend.Compiler.Graph_engine.makespan p ~cores:2 in
      let m4 = Ascend.Compiler.Graph_engine.makespan p ~cores:4 in
      Format.printf
        "%-16s %d streams, %d tasks; serial %d cyc; 2 cores %d (x%.2f); 4 \
         cores %d (x%.2f)@."
        name p.Ascend.Compiler.Graph_engine.stream_count
        (List.length p.Ascend.Compiler.Graph_engine.tasks)
        serial m2
        (float_of_int serial /. float_of_int m2)
        m4
        (float_of_int serial /. float_of_int m4)
  in
  show "siamese" (Ascend.Nn.Siamese.build ()) Config.standard;
  show "resnet18" (Ascend.Nn.Resnet.v1_5_18 ()) Config.standard;
  show "wide-deep" (Ascend.Nn.Wide_deep.default ~batch:128 ()) Config.max;
  Format.printf
    "a pure chain gains nothing from extra cores; the Siamese tracker's \
     exemplar tower hides entirely under its search tower@."

(* ------------------------------------------------------------------ *)
(* Execution service: serial vs parallel vs warm-cache compile         *)

let compile () =
  section_header "compile"
    "execution service: serial vs parallel vs warm-cache compile+simulate \
     over the zoo x Table-5 cores";
  let module Service = Ascend.Exec.Service in
  let module Cache = Ascend.Exec.Cache in
  let workload =
    List.concat_map
      (fun (name, g) ->
        List.filter_map
          (fun config ->
            if Config.supports config (Ascend.Nn.Graph.dtype g) then
              Some (name, config, g)
            else None)
          Config.all)
      [
        ("gesture", Ascend.Nn.Gesture.build ());
        ("resnet18", Ascend.Nn.Resnet.v1_5_18 ());
        ("resnet50", Ascend.Nn.Resnet.v1_5 ());
        ("mobilenet", Ascend.Nn.Mobilenet.v2 ());
        ("bert-base-s32", Ascend.Nn.Bert.base ~seq_len:32 ());
      ]
  in
  let programs =
    List.fold_left
      (fun acc (_, _, g) -> acc + List.length (Fusion.partition g))
      0 workload
  in
  let run_all () =
    List.map
      (fun (name, config, g) ->
        match Engine.run_inference config g with
        | Ok r -> (name, config.Config.name, r.Engine.total_cycles)
        | Error e -> failwith e)
      workload
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* serial baseline: the engine's built-in path, no pool, no cache *)
  Service.uninstall ();
  let serial_results, serial_s = time run_all in
  (* parallel cold pass: fresh service, every group is a miss *)
  let jobs = Ascend.Util.Domain_pool.default_jobs () in
  let svc = Service.create ~jobs () in
  Service.install svc;
  let parallel_results, parallel_s = time run_all in
  (* warm pass: same service, every group should hit the cache *)
  let warm_before = Service.stats svc in
  let warm_results, warm_s = time run_all in
  let warm_after = Service.stats svc in
  Service.shutdown svc;
  Service.install_default ();
  let identical =
    serial_results = parallel_results && serial_results = warm_results
  in
  let warm_hits = warm_after.Cache.hits - warm_before.Cache.hits in
  let warm_misses = warm_after.Cache.misses - warm_before.Cache.misses in
  let warm_hit_rate =
    float_of_int warm_hits /. float_of_int (max 1 (warm_hits + warm_misses))
  in
  let t =
    Table.create
      ~header:[ "pass"; "wall s"; "speedup vs serial"; "programs/s" ]
      ()
  in
  List.iter
    (fun (name, wall) ->
      Table.add_row t
        [
          name;
          Table.cell_float ~decimals:3 wall;
          Table.cell_ratio (serial_s /. wall);
          Table.cell_float ~decimals:0 (float_of_int programs /. wall);
        ])
    [
      ("serial (no service)", serial_s);
      (Printf.sprintf "parallel cold (%d domains)" jobs, parallel_s);
      ("warm cache", warm_s);
    ];
  Table.print ~align:Table.Left t;
  Format.printf
    "%d model/core pairs, %d programs; results byte-identical across passes: \
     %s; warm pass: %d hits / %d misses (%.1f%% hit rate)@."
    (List.length workload) programs
    (if identical then "yes" else "NO")
    warm_hits warm_misses (100. *. warm_hit_rate);
  Bench_json.record_int "model_core_pairs" (List.length workload);
  Bench_json.record_int "programs" programs;
  Bench_json.record_int "jobs" jobs;
  Bench_json.record_float "serial_s" serial_s;
  Bench_json.record_float "parallel_s" parallel_s;
  Bench_json.record_float "warm_s" warm_s;
  Bench_json.record_float "speedup" (serial_s /. parallel_s);
  Bench_json.record_float "warm_speedup" (serial_s /. warm_s);
  Bench_json.record_float "warm_hit_rate" warm_hit_rate;
  Bench_json.record_float "programs_per_s"
    (float_of_int programs /. parallel_s);
  Bench_json.record_int "identical" (if identical then 1 else 0)

(* ------------------------------------------------------------------ *)
(* lib/obs: tracing overhead                                           *)

let trace () =
  section_header "trace"
    "observability overhead: per-instruction simulation with the collector \
     absent vs installed (link-time hook: absent must cost nothing)";
  let module Obs = Ascend.Obs in
  let programs =
    Ascend.Compiler.Codegen.graph_programs Config.max (Ascend.Nn.Mobilenet.v2 ())
  in
  let run () =
    List.fold_left
      (fun acc (_, p) ->
        match Simulator.run Config.max p with
        | Ok r -> acc + r.Simulator.total_cycles
        | Error e -> failwith e)
      0 programs
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Obs.Hook.uninstall ();
  ignore (run ());
  (* warm *)
  let cycles_off, off_s = time run in
  let collector = Obs.Collector.create ~capacity:2_000_000 () in
  let cycles_on, on_s =
    time (fun () -> Obs.Hook.with_collector collector run)
  in
  let events = Obs.Collector.length collector in
  let dropped = Obs.Collector.dropped collector in
  let ratio = on_s /. off_s in
  let t = Table.create ~header:[ "pass"; "wall s"; "events collected" ] () in
  Table.add_row t [ "collector absent"; Table.cell_float ~decimals:3 off_s; "0" ];
  Table.add_row t
    [ "collector installed"; Table.cell_float ~decimals:3 on_s;
      string_of_int events ];
  Table.print ~align:Table.Left t;
  Format.printf
    "%d programs, %d events (%d dropped); instrumented/plain wall ratio \
     %.2fx; simulated cycles identical across passes: %s@."
    (List.length programs) events dropped ratio
    (if cycles_off = cycles_on then "yes" else "NO");
  Bench_json.record_int "programs" (List.length programs);
  Bench_json.record_int "events" events;
  Bench_json.record_int "dropped" dropped;
  Bench_json.record_int "total_cycles" cycles_on;
  Bench_json.record_float "off_s" off_s;
  Bench_json.record_float "on_s" on_s;
  Bench_json.record_float "overhead_ratio" ratio;
  Bench_json.record_int "cycles_identical" (if cycles_off = cycles_on then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Verification throughput: static lint, whole-SoC analysis and the    *)
(* shadow-state sanitizer, serial vs service fan-out                   *)

let lint_bench () =
  section_header "lint"
    "static lint + whole-SoC analysis + shadow-state sanitizer throughput, \
     serial vs execution-service fan-out";
  let module Service = Ascend.Exec.Service in
  let module Verify = Ascend.Verify in
  let module Sanitizer = Ascend.Core_sim.Sanitizer in
  let module Soc_schedule = Ascend.Compiler.Soc_schedule in
  let module Codegen = Ascend.Compiler.Codegen in
  let workload =
    List.concat_map
      (fun (name, g) ->
        List.filter_map
          (fun config ->
            if Config.supports config (Ascend.Nn.Graph.dtype g) then
              Some (name, config, g)
            else None)
          Config.all)
      [
        ("gesture", Ascend.Nn.Gesture.build ());
        ("resnet18", Ascend.Nn.Resnet.v1_5_18 ());
        ("resnet50", Ascend.Nn.Resnet.v1_5 ());
        ("mobilenet", Ascend.Nn.Mobilenet.v2 ());
        ("bert-base-s32", Ascend.Nn.Bert.base ~seq_len:32 ());
      ]
  in
  let compiled =
    List.concat_map
      (fun (_, config, g) ->
        List.map (fun (_, p) -> (config, p)) (Codegen.graph_programs config g))
      workload
  in
  let n_programs = List.length compiled in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let lint_counts items =
    List.map (fun (config, p) -> List.length (Verify.analyze config p)) items
  in
  let serial_counts, serial_s = time (fun () -> lint_counts compiled) in
  let jobs = Ascend.Util.Domain_pool.default_jobs () in
  let svc = Service.create ~jobs () in
  let parallel_counts, parallel_s =
    time (fun () ->
        Service.map svc
          (fun (config, p) -> List.length (Verify.analyze config p))
          compiled)
  in
  Service.shutdown svc;
  let findings = List.fold_left ( + ) 0 serial_counts in
  let identical = serial_counts = parallel_counts in
  let san_instrs, sanitize_s =
    time (fun () ->
        List.fold_left
          (fun acc (config, p) ->
            acc + (Sanitizer.run config p).Sanitizer.instructions_executed)
          0 compiled)
  in
  let soc_findings, soc_s =
    time (fun () ->
        List.fold_left
          (fun acc (_, config, g) ->
            let plan, _ = Soc_schedule.build config g in
            acc + List.length (Ascend.Verify.Soc.analyze plan))
          0 workload)
  in
  (* cluster collective-schedule verification: expand the lint
     --cluster sweep's schedules and time Verify.Cluster.analyze *)
  let cluster_schedules =
    List.map
      (fun (p : Ascend.Cluster.Collective_schedule.point) -> p.build ())
      (Ascend.Cluster.Collective_schedule.sweep ())
  in
  let n_schedules = List.length cluster_schedules in
  let cluster_findings, cluster_s =
    time (fun () ->
        List.fold_left
          (fun acc s ->
            acc + List.length (Ascend.Verify.Cluster.analyze s))
          0 cluster_schedules)
  in
  let rate denom_s = float_of_int n_programs /. denom_s in
  let t =
    Table.create ~header:[ "pass"; "items"; "wall s"; "items/s" ] ()
  in
  Table.add_rows t
    [
      [ "lint serial"; string_of_int n_programs;
        Table.cell_float ~decimals:3 serial_s;
        Table.cell_float ~decimals:0 (rate serial_s) ];
      [ Printf.sprintf "lint --jobs %d" jobs; string_of_int n_programs;
        Table.cell_float ~decimals:3 parallel_s;
        Table.cell_float ~decimals:0 (rate parallel_s) ];
      [ "sanitize serial"; string_of_int n_programs;
        Table.cell_float ~decimals:3 sanitize_s;
        Table.cell_float ~decimals:0 (rate sanitize_s) ];
      [ "soc analyze"; string_of_int (List.length workload);
        Table.cell_float ~decimals:3 soc_s;
        Table.cell_float ~decimals:0
          (float_of_int (List.length workload) /. soc_s) ];
      [ "cluster analyze"; string_of_int n_schedules;
        Table.cell_float ~decimals:3 cluster_s;
        Table.cell_float ~decimals:0 (float_of_int n_schedules /. cluster_s) ];
    ];
  Table.print t;
  Format.printf
    "%d program(s), %d static finding(s), %d soc finding(s), %d cluster \
     finding(s) over %d schedule(s), %d sanitizer instruction(s) replayed; \
     parallel output identical: %b@."
    n_programs findings soc_findings cluster_findings n_schedules san_instrs
    identical;
  Bench_json.record_int "programs" n_programs;
  Bench_json.record_int "static_findings" findings;
  Bench_json.record_int "soc_findings" soc_findings;
  Bench_json.record_int "sanitizer_instructions" san_instrs;
  Bench_json.record_int "jobs" jobs;
  Bench_json.record_float "lint_serial_s" serial_s;
  Bench_json.record_float "lint_parallel_s" parallel_s;
  Bench_json.record_float "lint_serial_programs_per_s" (rate serial_s);
  Bench_json.record_float "lint_parallel_programs_per_s" (rate parallel_s);
  Bench_json.record_float "sanitize_s" sanitize_s;
  Bench_json.record_float "sanitize_programs_per_s" (rate sanitize_s);
  Bench_json.record_float "soc_analyze_s" soc_s;
  Bench_json.record_int "cluster_schedules" n_schedules;
  Bench_json.record_int "cluster_findings" cluster_findings;
  Bench_json.record_float "cluster_analyze_s" cluster_s;
  Bench_json.record_float "cluster_schedules_per_s"
    (float_of_int n_schedules /. cluster_s);
  Bench_json.record "parallel_identical" (Ascend.Util.Json.Bool identical)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("lite_rebalance", lite_rebalance);
    ("noc", noc);
    ("table7", table7);
    ("table8", table8);
    ("table9", table9);
    ("table10", table10);
    ("mobile_util", mobile_util);
    ("qos", qos);
    ("llc_scaling", llc_scaling);
    ("cluster", cluster);
    ("mlperf", mlperf);
    ("precision", precision);
    ("related_work", related_work);
    ("edge", edge);
    ("serving", serving);
    ("fleet", fleet);
    ("decode", decode_bench);
    ("compression", compression);
    ("ablations", ablations);
    ("slam", slam);
    ("streams", streams);
    ("compile", compile);
    ("lint", lint_bench);
    ("trace", trace);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  (* every name is checked before any section runs *)
  (match
     List.find_opt (fun name -> not (List.mem_assoc name sections)) requested
   with
  | Some name ->
    prerr_endline
      (Printf.sprintf "error: unknown section %s (available: %s)" name
         (String.concat ", " (List.map fst sections)));
    exit 1
  | None -> ());
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name sections) ();
      let wall_s = Unix.gettimeofday () -. t0 in
      Bench_json.write ~section:name ~wall_s;
      Format.printf "[%s completed in %.1f s -> BENCH_%s.json]@." name wall_s
        name)
    requested
