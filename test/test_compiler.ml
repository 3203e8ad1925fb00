open Ascend.Compiler
module Config = Ascend.Arch.Config
module Precision = Ascend.Arch.Precision
module Graph = Ascend.Nn.Graph
module Shape = Ascend.Tensor.Shape
module Pipe = Ascend.Isa.Pipe
module Program = Ascend.Isa.Program
module Prng = Ascend.Util.Prng
module Verify = Ascend.Verify
module Sanitizer = Ascend.Core_sim.Sanitizer

(* ------------------------------------------------------------------ *)
(* Tiling                                                             *)

let tiling_legal_prop =
  QCheck.Test.make ~count:100 ~name:"chosen tilings are always legal"
    QCheck.(triple (int_range 1 4096) (int_range 1 4096) (int_range 1 4096))
    (fun (m, k, n) ->
      let t = Tiling.choose Config.max ~precision:Precision.Fp16 ~m ~k ~n () in
      Tiling.legal Config.max ~precision:Precision.Fp16 ~mt:t.Tiling.mt
        ~kt:t.Tiling.kt ~nt:t.Tiling.nt
      && t.Tiling.mt >= 1
      && t.Tiling.m_tiles * t.Tiling.mt >= m
      && t.Tiling.k_tiles * t.Tiling.kt >= k
      && t.Tiling.n_tiles * t.Tiling.nt >= n)

let tiling_legal_all_cores_prop =
  QCheck.Test.make ~count:60 ~name:"tilings legal on every core version"
    QCheck.(pair (int_range 1 1024) (int_range 0 4))
    (fun (dim, core_idx) ->
      let config = List.nth Config.all core_idx in
      let precision = config.Config.native_precision in
      let t = Tiling.choose config ~precision ~m:dim ~k:dim ~n:dim () in
      Tiling.legal config ~precision ~mt:t.Tiling.mt ~kt:t.Tiling.kt
        ~nt:t.Tiling.nt)

let test_tiling_prefers_full_tiles () =
  let t =
    Tiling.choose Config.max ~precision:Precision.Fp16 ~m:256 ~k:256 ~n:256 ()
  in
  Alcotest.(check bool) "mt multiple of 16" true (t.Tiling.mt mod 16 = 0);
  Alcotest.(check bool) "covers problem" true
    (t.Tiling.m_tiles * t.Tiling.mt >= 256)

(* Reference search: the same candidate space and selection rule as
   [Tiling.choose], but scoring every triple through the public
   per-call [Tiling.cost].  [choose] hoists the candidate lists and the
   (mt,kt,nt)-invariant cost terms out of its triple loop; this pins
   the hoisted path to the straightforward one. *)
let reference_choose config ~precision ?(img2col_expansion = 1.) ~m ~k ~n () =
  let div_up a b = (a + b - 1) / b in
  let dims = Config.cube_dims_at config ~precision in
  let candidates base limit =
    List.sort_uniq compare
      (List.filter_map
         (fun mult ->
           let v = base * mult in
           if v < limit + base then Some (min v (div_up limit base * base))
           else None)
         [ 1; 2; 4; 8; 16; 32; 64 ])
  in
  let best = ref None in
  List.iter
    (fun mt ->
      List.iter
        (fun kt ->
          List.iter
            (fun nt ->
              if Tiling.legal config ~precision ~mt ~kt ~nt then
                let c =
                  Tiling.cost config ~precision ~img2col_expansion ~m ~k ~n
                    ~mt ~kt ~nt
                in
                match !best with
                | Some (bc, bmt, bkt, bnt)
                  when bc < c || (bc = c && bmt * bkt * bnt >= mt * kt * nt) ->
                  ()
                | _ -> best := Some (c, mt, kt, nt))
            (candidates dims.Config.n n))
        (candidates dims.Config.k k))
    (candidates dims.Config.m m);
  match !best with
  | None -> Alcotest.fail "reference_choose: no legal tiling"
  | Some (c, mt, kt, nt) -> (mt, kt, nt, c)

let quad = Alcotest.(pair (pair int int) (pair int int))
let as_quad (t : Tiling.t) =
  ((t.Tiling.mt, t.Tiling.kt), (t.Tiling.nt, t.Tiling.estimated_cycles))

let test_tiling_choose_matches_reference_on_zoo () =
  (* every GEMM of every fusion group of the zoo, on every supporting
     core: the hoisted search picks exactly what the reference picks *)
  let zoo =
    [
      ("gesture", Ascend.Nn.Gesture.build ());
      ("resnet18", Ascend.Nn.Resnet.v1_5_18 ());
      ("mobilenet", Ascend.Nn.Mobilenet.v2 ());
      ("bert-base-s32", Ascend.Nn.Bert.base ~seq_len:32 ());
    ]
  in
  let checked = ref 0 in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun config ->
          if Config.supports config (Graph.dtype g) then
            List.iter
              (fun (grp : Fusion.t) ->
                List.iter
                  (fun (gemm : Ascend.Nn.Workload.gemm) ->
                    let precision = grp.Fusion.precision in
                    let img2col_expansion = grp.Fusion.img2col_expansion in
                    let m = gemm.Ascend.Nn.Workload.m
                    and k = gemm.Ascend.Nn.Workload.k
                    and n = gemm.Ascend.Nn.Workload.n in
                    incr checked;
                    let chosen =
                      Tiling.choose config ~precision ~img2col_expansion ~m ~k
                        ~n ()
                    in
                    let expected =
                      reference_choose config ~precision ~img2col_expansion ~m
                        ~k ~n ()
                    in
                    Alcotest.check quad
                      (Printf.sprintf "%s/%s/%s %dx%dx%d" name
                         config.Config.name grp.Fusion.tag m k n)
                      (let emt, ekt, ent, ec = expected in
                       ((emt, ekt), (ent, ec)))
                      (as_quad chosen))
                  grp.Fusion.gemms)
              (Fusion.partition g))
        Config.all)
    zoo;
  Alcotest.(check bool) "covered a real population" true (!checked > 200)

let tiling_choose_matches_reference_prop =
  QCheck.Test.make ~count:60 ~name:"choose matches per-call cost reference"
    QCheck.(triple (int_range 1 2048) (int_range 1 2048) (int_range 1 2048))
    (fun (m, k, n) ->
      let chosen =
        Tiling.choose Config.max ~precision:Precision.Fp16 ~m ~k ~n ()
      in
      let emt, ekt, ent, ec =
        reference_choose Config.max ~precision:Precision.Fp16 ~m ~k ~n ()
      in
      as_quad chosen = ((emt, ekt), (ent, ec)))

(* ------------------------------------------------------------------ *)
(* Fusion                                                             *)

let test_fusion_partitions_at_cube_ops () =
  let g = Ascend.Nn.Resnet.v1_5_18 () in
  let groups = Fusion.partition g in
  (* ResNet-18: 20 convs + 1 fc = 21 cube anchors, stem pool absorbed *)
  let cube_groups =
    List.filter (fun (x : Fusion.t) -> x.kind = Fusion.Cube_anchored) groups
  in
  Alcotest.(check int) "21 cube-anchored groups" 21 (List.length cube_groups)

let test_fusion_mobilenet_has_vector_only_work () =
  let g = Ascend.Nn.Mobilenet.v2 () in
  let groups = Fusion.partition g in
  (* the depthwise convolutions are absorbed as vector work inside the
     expand groups; their element count must show up *)
  let total_vec =
    List.fold_left (fun acc (x : Fusion.t) -> acc +. x.vector_elems) 0. groups
  in
  Alcotest.(check bool) "vector work > 30M elems" true (total_vec > 30e6)

let test_fusion_expansion () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  let x = Graph.input g (Shape.nchw ~n:1 ~c:8 ~h:8 ~w:8) in
  let c = Graph.conv2d g ~cout:8 ~k:3 ~padding:1 x in
  ignore (Graph.output g c);
  match Fusion.partition g with
  | [ grp ] ->
    (* same-size output, 3x3 kernel: expansion = 9 *)
    Alcotest.(check (float 1e-9)) "img2col expansion 9" 9.
      grp.Fusion.img2col_expansion
  | _ -> Alcotest.fail "one group expected"

(* The partition spelled out the direct way — group membership by
   [List.mem], the last node by [List.nth] — as the reference the linear
   [Fusion.partition] must reproduce field for field, [nodes] included. *)
let reference_partition g =
  let interesting =
    List.filter
      (fun (n : Graph.node) ->
        match n.op with
        | Ascend.Nn.Op.Input | Ascend.Nn.Op.Output | Ascend.Nn.Op.Reshape _ ->
          false
        | _ -> true)
      (Graph.nodes g)
  in
  let runs =
    List.fold_left
      (fun runs (n : Graph.node) ->
        match runs with
        | current :: rest when not (Ascend.Nn.Op.is_cube_op n.op) ->
          (n :: current) :: rest
        | _ -> [ n ] :: runs)
      [] interesting
    |> List.rev_map List.rev
  in
  List.map
    (fun (nodes : Graph.node list) ->
      let first = List.hd nodes in
      let anchored = Ascend.Nn.Op.is_cube_op first.op in
      let w =
        List.fold_left
          (fun acc n -> Ascend.Nn.Workload.combine acc (Ascend.Nn.Workload.of_node g n))
          Ascend.Nn.Workload.zero nodes
      in
      let ids = List.map (fun (n : Graph.node) -> n.id) nodes in
      let input_bytes =
        List.fold_left
          (fun acc (n : Graph.node) ->
            List.fold_left
              (fun acc i ->
                if List.mem i ids then acc
                else acc + Shape.bytes (Graph.find g i).out_shape ~dtype:n.dtype)
              acc n.inputs)
          0 nodes
      in
      let last = List.nth nodes (List.length nodes - 1) in
      let img2col_expansion =
        match (first.op, first.inputs) with
        | Ascend.Nn.Op.Conv2d { kh; kw; _ }, [ x ] when anchored ->
          let input = (Graph.find g x).out_shape in
          float_of_int
            (Shape.dim first.out_shape 2 * Shape.dim first.out_shape 3 * kh * kw)
          /. float_of_int (Shape.dim input 2 * Shape.dim input 3)
        | _ -> 1.
      in
      {
        Fusion.tag = first.node_name;
        kind = (if anchored then Fusion.Cube_anchored else Fusion.Vector_only);
        nodes;
        gemms = w.gemms;
        vector_elems = w.vector_elems;
        input_bytes;
        weight_bytes = w.weight_bytes;
        output_bytes = Shape.bytes last.out_shape ~dtype:last.dtype;
        img2col_expansion;
        precision = first.dtype;
      })
    runs

let test_fusion_matches_reference_on_zoo () =
  List.iter
    (fun (name, g) ->
      let got = Fusion.partition g and want = reference_partition g in
      Alcotest.(check int) (name ^ ": group count") (List.length want)
        (List.length got);
      List.iter2
        (fun (a : Fusion.t) (b : Fusion.t) ->
          if a <> b then Alcotest.failf "%s: group %s differs" name b.tag)
        got want)
    [
      ("resnet50", Ascend.Nn.Resnet.v1_5 ~batch:2 ());
      ("mobilenet", Ascend.Nn.Mobilenet.v2 ());
      ("vgg16", Ascend.Nn.Vgg.v16 ());
      ("bert-base", Ascend.Nn.Bert.base ~batch:3 ~seq_len:32 ());
      ("gesture", Ascend.Nn.Gesture.build ());
      ("siamese", Ascend.Nn.Siamese.build ());
      ("wide-deep", Ascend.Nn.Wide_deep.default ());
      ("pointnet", Ascend.Nn.Pointnet.build ());
      ("face-detect", Ascend.Nn.Face_detect.build ());
      ("fpn-detector", Ascend.Nn.Fpn_detector.build ());
      ("llm-prefill", Ascend.Nn.Llm.prefill ~seq_len:16 Ascend.Nn.Llm.tiny_config);
      ("llm-decode",
       Ascend.Nn.Llm.decode ~batch:2 ~cache_len:40 Ascend.Nn.Llm.tiny_config);
    ]

(* ------------------------------------------------------------------ *)
(* Codegen: generated programs are valid and deadlock-free            *)

let all_zoo () =
  [
    ("resnet18", Ascend.Nn.Resnet.v1_5_18 ());
    ("mobilenet", Ascend.Nn.Mobilenet.v2 ());
    ("bert-base-s32", Ascend.Nn.Bert.base ~seq_len:32 ());
  ]

let test_codegen_validates_everywhere () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun config ->
          if Config.supports config (Graph.dtype g) then
            List.iter
              (fun (grp, p) ->
                let fail e =
                  Alcotest.failf "%s / %s / %s: %s" name config.Config.name
                    grp.Fusion.tag e
                in
                match Program.validate config p with
                | Error e -> fail e
                | Ok _ -> (
                  match Ascend.Verify.(errors (analyze config p)) with
                  | [] -> ()
                  | f :: _ -> fail (Ascend.Verify.Finding.to_string f)))
              (Codegen.graph_programs config g))
        Config.all)
    (("gesture", Ascend.Nn.Gesture.build ()) :: all_zoo ())

let test_codegen_simulates_without_deadlock () =
  List.iter
    (fun (name, g) ->
      match Engine.run_inference Config.max g with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    (all_zoo ())

let test_codegen_double_buffer_helps () =
  let g = Ascend.Nn.Resnet.v1_5_18 () in
  let run options =
    match Engine.run_inference ~options Config.max g with
    | Ok r -> r.Engine.total_cycles
    | Error e -> Alcotest.fail e
  in
  let with_db = run Codegen.default_options in
  let without_db =
    run { Codegen.default_options with double_buffer = false }
  in
  Alcotest.(check bool) "double buffering not slower" true
    (with_db <= without_db)

let test_codegen_barrier_sync_slower () =
  (* the Figure 3 ablation: coarse barriers serialise the pipes *)
  let g = Ascend.Nn.Gesture.build () in
  let run options =
    match Engine.run_inference ~options Config.tiny g with
    | Ok r -> r.Engine.total_cycles
    | Error e -> Alcotest.fail e
  in
  let flags = run Codegen.default_options in
  let barriers =
    run { Codegen.default_options with sync_mode = Codegen.Coarse_barriers }
  in
  Alcotest.(check bool) "barriers strictly slower" true (barriers > flags)

let test_codegen_naive_tiling_slower () =
  let g = Ascend.Nn.Gesture.build () in
  let run options =
    match Engine.run_inference ~options Config.tiny g with
    | Ok r -> r.Engine.total_cycles
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "auto-tiling wins" true
    (run { Codegen.default_options with naive_tiling = true }
    > run Codegen.default_options)

let test_fp32_hpc_prototype () =
  (* §7.2 future work: the fp32-capable cube runs fp32 ResNet at roughly
     half rate plus traffic overhead *)
  let fp16 = Ascend.Nn.Resnet.v1_5_18 () in
  let fp32 = Ascend.Nn.Resnet.v1_5_18 ~dtype:Precision.Fp32 () in
  (match Engine.run_inference Config.max fp32 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "the shipped Max core must reject fp32 cube work");
  match
    ( Engine.run_inference Config.hpc_prototype fp32,
      Engine.run_inference Config.hpc_prototype fp16 )
  with
  | Ok r32, Ok r16 ->
    let ratio =
      float_of_int r32.Engine.total_cycles
      /. float_of_int r16.Engine.total_cycles
    in
    Alcotest.(check bool) "between 1.1x and 3x slower" true
      (ratio > 1.1 && ratio < 3.)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_codegen_sparsity_reduces_traffic () =
  let g = Ascend.Nn.Resnet.v1_5_18 () in
  let ext options =
    match Engine.run_inference ~options Config.max g with
    | Ok r ->
      List.fold_left
        (fun acc (l : Engine.layer_result) ->
          acc
          + (Ascend.Core_sim.Simulator.traffic l.Engine.report
               Ascend.Isa.Buffer_id.External)
              .Ascend.Core_sim.Simulator.read_bytes)
        0 r.Engine.layers
    | Error e -> Alcotest.fail e
  in
  let dense = ext Codegen.default_options in
  let sparse =
    ext { Codegen.default_options with weight_sparsity = Some 0.5 }
  in
  Alcotest.(check bool) "sparse reads less" true (sparse < dense)

(* ------------------------------------------------------------------ *)
(* Engine: the paper's per-layer shapes                               *)

let test_gesture_all_layers_cube_biased () =
  (* Figure 8: on Tiny, every layer's cube/vector ratio is > 1 *)
  match Engine.run_inference Config.tiny (Ascend.Nn.Gesture.build ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    List.iter
      (fun (l : Engine.layer_result) ->
        if l.Engine.group.Fusion.kind = Fusion.Cube_anchored then
          Alcotest.(check bool)
            (l.Engine.group.Fusion.tag ^ " ratio > 1")
            true (l.Engine.ratio > 1.))
      r.Engine.layers

let test_bert_mostly_cube_biased () =
  (* Figure 4: most BERT layers' ratio is much greater than 1 *)
  match
    Engine.run_inference Config.max (Ascend.Nn.Bert.base ~seq_len:64 ())
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let above =
      List.length (List.filter (fun l -> l.Engine.ratio > 1.) r.Engine.layers)
    in
    Alcotest.(check bool) "most layers above 1" true
      (float_of_int above /. float_of_int (List.length r.Engine.layers) > 0.7)

let test_mobilenet_has_sub1_layers () =
  (* Figure 6: many MobileNet layers sit between 0 and 1 *)
  match Engine.run_inference Config.max (Ascend.Nn.Mobilenet.v2 ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let sub1 =
      List.length
        (List.filter (fun l -> l.Engine.ratio < 1.) r.Engine.layers)
    in
    Alcotest.(check bool) "at least a third below 1" true
      (3 * sub1 >= List.length r.Engine.layers)

let test_training_ratio_below_inference () =
  (* Figure 5 vs Figure 4: training shifts work toward the vector unit *)
  let g = Ascend.Nn.Bert.base ~seq_len:64 () in
  match (Engine.run_inference Config.max g, Engine.run_training Config.max g) with
  | Ok inf, Ok tra ->
    let geo r =
      let ratios =
        List.filter_map
          (fun (l : Engine.layer_result) ->
            if l.Engine.ratio > 0. && l.Engine.ratio < infinity then
              Some l.Engine.ratio
            else None)
          r.Engine.layers
      in
      Ascend.Util.Stats.geomean ratios
    in
    Alcotest.(check bool) "training geomean below inference" true
      (geo tra < geo inf);
    (* but still above 1 in most layers (the §2.4 design point) *)
    let above_1 =
      List.filter (fun (_, r) -> r > 1.) (Engine.training_ratio_by_layer tra)
    in
    Alcotest.(check bool) "most training layers still above 1" true
      (2 * List.length above_1 > List.length (Engine.training_ratio_by_layer tra))
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_l1_bandwidth_within_figure9_bound () =
  (* Figure 9: per-layer L1 read demand stays under 4096 bits/cycle and
     writes under 2048 bits/cycle on the 8192-FLOPS/cycle config *)
  match Engine.run_inference Config.max (Ascend.Nn.Resnet.v1_5 ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    List.iter
      (fun (l : Engine.layer_result) ->
        let read = Ascend.Core_sim.Simulator.l1_read_bits_per_cycle l.Engine.report in
        Alcotest.(check bool)
          (l.Engine.group.Fusion.tag ^ " read bits/cycle bounded")
          true (read <= 4096.))
      r.Engine.layers

let test_faster_core_faster_network () =
  let g = Ascend.Nn.Mobilenet.v2 () in
  let cyc config =
    match Engine.run_inference config g with
    | Ok r -> Engine.seconds r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "Max beats Lite" true (cyc Config.max < cyc Config.lite)

(* ------------------------------------------------------------------ *)
(* Memory planner                                                     *)

let test_planner_valid_on_zoo () =
  List.iter
    (fun (name, g) ->
      let plan = Memory_planner.plan g in
      match Memory_planner.validate plan with
      | Ok () ->
        Alcotest.(check bool) (name ^ " positive peak") true
          (plan.Memory_planner.peak_bytes > 0)
      | Error e -> Alcotest.failf "%s: %s" name e)
    (all_zoo ())

let test_planner_reuses_memory () =
  (* a deep chain must reuse buffers: peak far below the sum *)
  let g = Graph.create ~name:"chain" ~dtype:Precision.Fp16 in
  let x = ref (Graph.input g (Shape.nchw ~n:1 ~c:16 ~h:32 ~w:32)) in
  for _ = 1 to 20 do
    x := Graph.relu g !x
  done;
  ignore (Graph.output g !x);
  let plan = Memory_planner.plan g in
  let total = Memory_planner.total_activation_bytes g in
  Alcotest.(check bool) "peak <= 1/4 of total" true
    (plan.Memory_planner.peak_bytes * 4 <= total)

let planner_random_prop =
  QCheck.Test.make ~count:30 ~name:"planner valid on random branchy graphs"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let g = Graph.create ~name:"rand" ~dtype:Precision.Fp16 in
      let nodes = ref [ Graph.input g (Shape.nchw ~n:1 ~c:8 ~h:8 ~w:8) ] in
      for _ = 1 to 10 do
        let pick = List.nth !nodes (Prng.int rng ~bound:(List.length !nodes)) in
        let n =
          match Prng.int rng ~bound:3 with
          | 0 -> Graph.relu g pick
          | 1 -> Graph.batch_norm g pick
          | _ -> Graph.add g pick pick
        in
        nodes := n :: !nodes
      done;
      ignore (Graph.output g (List.hd !nodes));
      Memory_planner.validate (Memory_planner.plan g) = Ok ())

(* ------------------------------------------------------------------ *)
(* Operator Lib (§5.1 canned kernels)                                  *)

(* (instructions, total cycles) of each registry kernel on each core of
   [Config.all]: Tiny, Lite, Mini, Standard, Max *)
let operator_lib_pins =
  [
    ("softmax",
     [ (449, 68_747); (225, 18_251); (113, 9_857); (113, 9_673);
       (113, 9_887) ]);
    ("layer_norm",
     [ (961, 168_715); (481, 43_659); (241, 22_561); (241, 22_377);
       (241, 22_591) ]);
    ("transpose",
     [ (3_585, 133_416); (1_793, 42_216); (897, 22_774); (897, 19_784);
       (897, 23_229) ]);
    ("requantize",
     [ (221, 17_153); (111, 5_535); (56, 3_125); (56, 2_737); (56, 3_183) ]);
  ]

let test_operator_lib_all_simulate () =
  let findings fs = List.map Verify.Finding.to_string fs in
  List.iter
    (fun (name, make) ->
      let k = make () in
      List.iter2
        (fun config pin ->
          let what = Printf.sprintf "%s on %s" name config.Config.name in
          match Operator_lib.simulate config k with
          | Ok r ->
            let p = k.Operator_lib.generate config in
            Alcotest.(check (list string)) (what ^ ": Verify.analyze") []
              (findings (Verify.analyze config p));
            Alcotest.(check (list string)) (what ^ ": Sanitizer.run") []
              (findings (Sanitizer.run config p).Sanitizer.findings);
            Alcotest.(check (pair int int))
              (what ^ ": (instructions, cycles)")
              pin
              (Program.length p, r.Ascend.Core_sim.Simulator.total_cycles)
          | Error e ->
            (* a kernel may legitimately reject a core whose UB cannot
               hold one row — but only for the small cores *)
            if config.Config.vector_width_bytes >= 256 then
              Alcotest.failf "%s: %s" what e)
        Config.all (List.assoc name operator_lib_pins))
    (Operator_lib.registry ())

let test_operator_lib_row_residency () =
  (* a row wider than the UB budget must be rejected, not mis-chunked *)
  let k = Operator_lib.softmax ~rows:1 ~cols:2_000_000 () in
  match Operator_lib.simulate Config.max k with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized row must be rejected"

let test_operator_lib_transpose_uses_trans_module () =
  let k = Operator_lib.transpose ~rows:512 ~cols:512 () in
  let p = k.Operator_lib.generate Config.max in
  let has_trans =
    List.exists
      (fun i ->
        match i with
        | Ascend.Isa.Instruction.Mte_move
            { transform = Ascend.Isa.Instruction.Transpose; _ } ->
          true
        | _ -> false)
      p.Program.instructions
  in
  Alcotest.(check bool) "MTE trans move present" true has_trans;
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Program.validate Config.max p))

let test_operator_lib_softmax_matches_engine_scale () =
  (* the canned softmax should be in the same cycle range as the generic
     lowering of a softmax node (they model the same arithmetic) *)
  let rows = 256 and cols = 256 in
  let k = Operator_lib.softmax ~rows ~cols () in
  match Operator_lib.simulate Config.max k with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let g = Graph.create ~name:"sm" ~dtype:Precision.Fp16 in
    let x = Graph.input g (Shape.matrix rows cols) in
    ignore (Graph.output g (Graph.softmax g x));
    (match Engine.run_inference Config.max g with
    | Error e -> Alcotest.fail e
    | Ok net ->
      let generic = net.Engine.total_cycles in
      let canned = r.Ascend.Core_sim.Simulator.total_cycles in
      Alcotest.(check bool)
        (Printf.sprintf "same ballpark (canned %d vs generic %d)" canned generic)
        true
        (float_of_int canned /. float_of_int generic < 4.
        && float_of_int generic /. float_of_int canned < 4.))

(* ------------------------------------------------------------------ *)
(* Graph engine (§5.1 streams)                                         *)

let test_graph_engine_chain_is_one_stream () =
  match Graph_engine.plan Config.tiny (Ascend.Nn.Gesture.build ()) with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check (result unit string)) "valid" (Ok ())
      (Graph_engine.validate p);
    Alcotest.(check int) "a chain is one stream" 1 p.Graph_engine.stream_count;
    (* a single stream cannot go faster with more cores *)
    Alcotest.(check int) "no speedup"
      (Graph_engine.makespan p ~cores:1)
      (Graph_engine.makespan p ~cores:8)

let test_graph_engine_siamese_two_streams () =
  match Graph_engine.plan Config.standard (Ascend.Nn.Siamese.build ()) with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check (result unit string)) "valid" (Ok ())
      (Graph_engine.validate p);
    Alcotest.(check int) "two towers, two streams" 2
      p.Graph_engine.stream_count;
    let serial = Graph_engine.serial_cycles p in
    let dual = Graph_engine.makespan p ~cores:2 in
    Alcotest.(check bool) "overlap helps" true (dual < serial);
    (* the exemplar tower (127^2) hides entirely under the search tower
       (255^2): the two-core makespan is the search stream alone *)
    let search_cycles =
      List.fold_left
        (fun acc (t : Graph_engine.task) ->
          if t.Graph_engine.stream = 1 then acc + t.Graph_engine.cycles
          else acc)
        0 p.Graph_engine.tasks
    in
    Alcotest.(check bool) "exemplar hidden" true
      (dual <= search_cycles + (serial / 100))

let test_graph_engine_join_has_cross_event () =
  match Graph_engine.plan Config.standard (Ascend.Nn.Siamese.build ()) with
  | Error e -> Alcotest.fail e
  | Ok p ->
    (* the join (the group that first consumes the exemplar tower's
       product from the search stream) must carry a cross-stream event *)
    let stream_of id =
      (List.find (fun (t : Graph_engine.task) -> t.Graph_engine.id = id)
         p.Graph_engine.tasks)
        .Graph_engine.stream
    in
    let cross_events =
      List.concat_map
        (fun (t : Graph_engine.task) ->
          List.filter_map
            (fun d ->
              if stream_of d <> t.Graph_engine.stream then
                Some (t.Graph_engine.tag, d)
              else None)
            t.Graph_engine.deps)
        p.Graph_engine.tasks
    in
    Alcotest.(check bool) "at least one cross-stream event" true
      (cross_events <> [])

let graph_engine_makespan_props =
  QCheck.Test.make ~count:10 ~name:"makespan between critical path and serial"
    QCheck.(int_range 1 8)
    (fun cores ->
      match Graph_engine.plan Config.standard (Ascend.Nn.Siamese.build ()) with
      | Error _ -> false
      | Ok p ->
        let m = Graph_engine.makespan p ~cores in
        m <= Graph_engine.serial_cycles p
        && m >= Graph_engine.serial_cycles p / max 1 cores)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "compiler"
    [
      ( "tiling",
        [
          Alcotest.test_case "full tiles" `Quick test_tiling_prefers_full_tiles;
          Alcotest.test_case "matches reference on zoo" `Quick
            test_tiling_choose_matches_reference_on_zoo;
          q tiling_legal_prop;
          q tiling_legal_all_cores_prop;
          q tiling_choose_matches_reference_prop;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "partitions at cube ops" `Quick
            test_fusion_partitions_at_cube_ops;
          Alcotest.test_case "mobilenet vector work" `Quick
            test_fusion_mobilenet_has_vector_only_work;
          Alcotest.test_case "img2col expansion" `Quick test_fusion_expansion;
          Alcotest.test_case "matches reference on zoo" `Quick
            test_fusion_matches_reference_on_zoo;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "validates on all cores" `Slow
            test_codegen_validates_everywhere;
          Alcotest.test_case "no deadlocks" `Quick
            test_codegen_simulates_without_deadlock;
          Alcotest.test_case "double buffering helps" `Quick
            test_codegen_double_buffer_helps;
          Alcotest.test_case "barrier sync slower" `Quick
            test_codegen_barrier_sync_slower;
          Alcotest.test_case "naive tiling slower" `Quick
            test_codegen_naive_tiling_slower;
          Alcotest.test_case "fp32 hpc prototype" `Quick test_fp32_hpc_prototype;
          Alcotest.test_case "sparsity reduces traffic" `Quick
            test_codegen_sparsity_reduces_traffic;
        ] );
      ( "engine-figures",
        [
          Alcotest.test_case "fig8 gesture cube-biased" `Quick
            test_gesture_all_layers_cube_biased;
          Alcotest.test_case "fig4 bert cube-biased" `Quick
            test_bert_mostly_cube_biased;
          Alcotest.test_case "fig6 mobilenet sub-1 layers" `Quick
            test_mobilenet_has_sub1_layers;
          Alcotest.test_case "fig5 training ratios drop" `Slow
            test_training_ratio_below_inference;
          Alcotest.test_case "fig9 L1 bandwidth bound" `Slow
            test_l1_bandwidth_within_figure9_bound;
          Alcotest.test_case "faster core faster net" `Quick
            test_faster_core_faster_network;
        ] );
      ( "memory-planner",
        [
          Alcotest.test_case "valid on zoo" `Quick test_planner_valid_on_zoo;
          Alcotest.test_case "reuses memory" `Quick test_planner_reuses_memory;
          q planner_random_prop;
        ] );
      ( "operator-lib",
        [
          Alcotest.test_case "all kernels simulate" `Quick
            test_operator_lib_all_simulate;
          Alcotest.test_case "row residency" `Quick
            test_operator_lib_row_residency;
          Alcotest.test_case "transpose via MTE trans" `Quick
            test_operator_lib_transpose_uses_trans_module;
          Alcotest.test_case "softmax scale" `Quick
            test_operator_lib_softmax_matches_engine_scale;
        ] );
      ( "graph-engine",
        [
          Alcotest.test_case "chain is one stream" `Quick
            test_graph_engine_chain_is_one_stream;
          Alcotest.test_case "siamese two streams" `Quick
            test_graph_engine_siamese_two_streams;
          Alcotest.test_case "join cross event" `Quick
            test_graph_engine_join_has_cross_event;
          q graph_engine_makespan_props;
        ] );
    ]
