open Ascend.Nn
module Shape = Ascend.Tensor.Shape
module Tensor = Ascend.Tensor.Tensor
module Precision = Ascend.Arch.Precision
module Prng = Ascend.Util.Prng

let validated g =
  match Graph.validate g with
  | Ok () -> g
  | Error e -> Alcotest.failf "graph %s invalid: %s" (Graph.name g) e

(* ------------------------------------------------------------------ *)
(* Graph builder                                                      *)

let test_builder_shapes () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  let x = Graph.input g (Shape.nchw ~n:1 ~c:3 ~h:8 ~w:8) in
  let c = Graph.conv2d g ~cout:16 ~k:3 ~padding:1 x in
  Alcotest.(check string) "conv shape" "[1x16x8x8]"
    (Shape.to_string (Graph.find g c).out_shape);
  let p = Graph.max_pool g ~kernel:2 ~stride:2 c in
  Alcotest.(check string) "pool shape" "[1x16x4x4]"
    (Shape.to_string (Graph.find g p).out_shape);
  let gap = Graph.global_avg_pool g p in
  let fc = Graph.linear g ~out_features:10 gap in
  Alcotest.(check string) "fc shape" "[1x10]"
    (Shape.to_string (Graph.find g fc).out_shape);
  ignore (Graph.output g fc);
  ignore (validated g)

let test_builder_rejects_forward_refs () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  Alcotest.(check bool) "bad input id raises" true
    (try
       ignore (Graph.relu g 5);
       false
     with Invalid_argument _ -> true)

let test_graph_without_output_invalid () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  let x = Graph.input g (Shape.vector 4) in
  ignore (Graph.relu g x);
  match Graph.validate g with
  | Error e ->
    Alcotest.(check string) "message" "graph has no output node" e
  | Ok () -> Alcotest.fail "should be invalid"

(* random DAGs of same-shaped elementwise nodes, each reading one or
   two earlier nodes (sometimes the same one twice): [find] must return
   node [id] itself and [consumers] must agree with a scan of [nodes] *)
let graph_index_prop =
  QCheck.Test.make ~count:100 ~name:"find and consumers match a node scan"
    QCheck.(list_of_size Gen.(int_range 1 80) (pair small_nat small_nat))
    (fun picks ->
      let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
      ignore (Graph.input g (Shape.vector 4));
      List.iteri
        (fun i (a, b) ->
          let x = a mod (i + 1) and y = b mod (i + 1) in
          ignore (if a mod 3 = 0 then Graph.relu g x else Graph.add g x y))
        picks;
      let ns = Graph.nodes g in
      let scan id = List.filter (fun (n : Graph.node) -> List.mem id n.inputs) ns in
      List.length ns = Graph.node_count g
      && List.for_all
           (fun (n : Graph.node) ->
             Graph.find g n.id == n && Graph.consumers g n.id = scan n.id)
           ns
      && List.mapi (fun i _ -> i) ns = List.map (fun (n : Graph.node) -> n.id) ns
      && Graph.consumers g (Graph.node_count g) = []
      && (try ignore (Graph.find g (Graph.node_count g)); false
          with Invalid_argument _ -> true))

let test_matmul_shape_inference () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  let a = Graph.input g (Shape.of_list [ 4; 8; 16 ]) in
  let b = Graph.input g (Shape.of_list [ 4; 8; 16 ]) in
  let s = Graph.matmul g ~transpose_b:true a b in
  Alcotest.(check string) "scores" "[4x8x8]"
    (Shape.to_string (Graph.find g s).out_shape);
  Alcotest.(check bool) "mismatched inner raises" true
    (try
       let c = Graph.input g (Shape.of_list [ 4; 8; 4 ]) in
       ignore (Graph.matmul g a c);
       false
     with Invalid_argument _ -> true)

let test_concat () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  let a = Graph.input g (Shape.nchw ~n:1 ~c:4 ~h:2 ~w:2) in
  let b = Graph.input g (Shape.nchw ~n:1 ~c:6 ~h:2 ~w:2) in
  let c = Graph.concat g ~axis:1 [ a; b ] in
  Alcotest.(check string) "concat" "[1x10x2x2]"
    (Shape.to_string (Graph.find g c).out_shape)

(* ------------------------------------------------------------------ *)
(* Model zoo                                                          *)

let test_zoo_validates () =
  ignore (validated (Resnet.v1_5 ()));
  ignore (validated (Resnet.v1_5_18 ()));
  ignore (validated (Mobilenet.v2 ()));
  ignore (validated (Bert.base ~seq_len:32 ()));
  ignore (validated (Bert.large ~seq_len:32 ()));
  ignore (validated (Gesture.build ()));
  ignore (validated (Vgg.v16 ()));
  ignore (validated (Siamese.build ()));
  ignore (validated (Wide_deep.default ()));
  ignore (validated (Pointnet.build ()));
  ignore (validated (Face_detect.build ()));
  ignore (validated (Fpn_detector.build ()))

let test_upsample () =
  let g = Graph.create ~name:"up" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"x" (Shape.nchw ~n:1 ~c:2 ~h:2 ~w:2) in
  let u = Graph.upsample g ~factor:3 x in
  Alcotest.(check string) "shape" "[1x2x6x6]"
    (Shape.to_string (Graph.find g u).out_shape);
  ignore (Graph.output g u);
  let params = Eval.random_params g in
  let input =
    Tensor.of_array (Shape.nchw ~n:1 ~c:2 ~h:2 ~w:2)
      [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |]
  in
  (match Eval.run g params ~inputs:[ ("x", input) ] with
  | [ (_, t) ] ->
    Alcotest.(check (float 0.)) "nearest copy" 1. (Tensor.get t [| 0; 0; 2; 2 |]);
    Alcotest.(check (float 0.)) "next block" 2. (Tensor.get t [| 0; 0; 1; 4 |]);
    Alcotest.(check (float 0.)) "bottom" 4. (Tensor.get t [| 0; 0; 5; 5 |])
  | _ -> Alcotest.fail "one output");
  (* gradient: each source pixel receives factor^2 ones *)
  let grads = Autodiff.backward g params ~inputs:[ ("x", input) ] () in
  match grads.Autodiff.input_grads with
  | [ (_, gx) ] ->
    Alcotest.(check (float 0.)) "9 ones per source" 9. (Tensor.get_flat gx 0)
  | _ -> Alcotest.fail "one input grad"

let test_fpn_structure () =
  let g = validated (Fpn_detector.build ()) in
  let ups =
    List.filter
      (fun (n : Graph.node) ->
        match n.op with Op.Upsample _ -> true | _ -> false)
      (Graph.nodes g)
  in
  Alcotest.(check int) "three top-down upsamples" 3 (List.length ups);
  (* pyramid levels have matching channel counts *)
  List.iter
    (fun tag ->
      let n =
        List.find (fun (n : Graph.node) -> n.node_name = tag ^ ".smooth")
          (Graph.nodes g)
      in
      Alcotest.(check int) (tag ^ " channels") Fpn_detector.pyramid_channels
        (Shape.dim n.out_shape 1))
    [ "p2"; "p3"; "p4"; "p5" ]

let test_siamese_structure () =
  let g = validated (Siamese.build ()) in
  (* two inputs and one cross-correlation matmul *)
  let inputs =
    List.filter (fun (n : Graph.node) -> n.op = Op.Input) (Graph.nodes g)
  in
  Alcotest.(check int) "two camera inputs" 2 (List.length inputs);
  let xcorr =
    List.find (fun (n : Graph.node) -> n.node_name = "xcorr") (Graph.nodes g)
  in
  Alcotest.(check int) "joins two branches" 2 (List.length xcorr.inputs);
  (* weight-shared towers have identical per-tower MAC counts per stage
     scaled by spatial size; just check both towers produce 256 channels *)
  let feat name =
    (List.find (fun (n : Graph.node) -> n.node_name = name) (Graph.nodes g))
      .out_shape
  in
  Alcotest.(check int) "exemplar tower channels" 256
    (Shape.dim (feat "exemplar_tower.conv5") 1);
  Alcotest.(check int) "search tower channels" 256
    (Shape.dim (feat "search_tower.conv5") 1)

let test_wide_deep_structure () =
  let g = validated (Wide_deep.default ~batch:8 ()) in
  let w = Workload.of_graph g in
  (* embeddings dominate parameters; GEMMs dominate cube work *)
  Alcotest.(check bool) "has cube GEMMs" true (w.Workload.cube_macs > 0);
  let params = Graph.total_params g in
  let emb = 26 * 100_000 * 16 in
  Alcotest.(check bool) "embedding-dominated params" true
    (params > emb && params < emb * 2);
  (* the output is a probability *)
  let out = List.hd (Graph.outputs g) in
  Alcotest.(check string) "scalar output per row" "[8x1]"
    (Shape.to_string out.out_shape)

let gmacs g =
  float_of_int (Workload.of_graph g).Workload.cube_macs /. 1e9

let test_resnet50_macs () =
  (* the canonical ResNet-50 number: ~4.1 GMACs per 224x224 image *)
  let v = gmacs (Resnet.v1_5 ~batch:1 ()) in
  Alcotest.(check bool) "4.0..4.2 GMACs" true (v > 3.9 && v < 4.3)

let test_mobilenet_macs () =
  (* MobileNetV2: ~0.3 GMACs, most of them in pointwise convs; the
     depthwise MACs land on the vector unit *)
  let g = Mobilenet.v2 ~batch:1 () in
  let w = Workload.of_graph g in
  let cube_g = float_of_int w.Workload.cube_macs /. 1e9 in
  Alcotest.(check bool) "cube macs 0.25..0.35G" true
    (cube_g > 0.25 && cube_g < 0.35);
  Alcotest.(check bool) "vector work present (depthwise)" true
    (w.Workload.vector_elems > 30e6)

let test_vgg_macs () =
  let v = gmacs (Vgg.v16 ~batch:1 ()) in
  (* VGG-16: ~15.5 GMACs *)
  Alcotest.(check bool) "15..16 GMACs" true (v > 15. && v < 16.)

let test_bert_params () =
  (* BERT-Large: ~334 M params including embeddings *)
  let g = Bert.large ~seq_len:32 () in
  let p = float_of_int (Graph.total_params g) /. 1e6 in
  Alcotest.(check bool) "320..350 M params" true (p > 320. && p < 350.)

let test_bert_macs_scale_with_seq () =
  let m s = gmacs (Bert.base ~seq_len:s ()) in
  Alcotest.(check bool) "longer sequences cost more" true (m 64 > m 32);
  (* linear layers dominate at short sequence, so roughly 2x *)
  let r = m 64 /. m 32 in
  Alcotest.(check bool) "scaling between 1.9x and 2.6x" true (r > 1.9 && r < 2.6)

let test_batch_scaling () =
  let m b = gmacs (Resnet.v1_5 ~batch:b ()) in
  Alcotest.(check (float 1e-6)) "macs scale linearly in batch" (4. *. m 1) (m 4)

(* ------------------------------------------------------------------ *)
(* Workload characterisation                                          *)

let test_depthwise_on_vector () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  let x = Graph.input g (Shape.nchw ~n:1 ~c:8 ~h:4 ~w:4) in
  let dw = Graph.depthwise_conv2d g ~k:3 ~padding:1 x in
  let w = Workload.of_node g (Graph.find g dw) in
  Alcotest.(check int) "no cube macs" 0 w.Workload.cube_macs;
  Alcotest.(check (float 0.)) "one element-op per MAC"
    (float_of_int (8 * 4 * 4 * 9))
    w.Workload.vector_elems

let test_conv_gemm_dims () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  let x = Graph.input g (Shape.nchw ~n:2 ~c:3 ~h:8 ~w:8) in
  let c = Graph.conv2d g ~cout:16 ~k:3 ~padding:1 x in
  let w = Workload.of_node g (Graph.find g c) in
  match w.Workload.gemms with
  | [ { count = 1; m; k; n } ] ->
    Alcotest.(check int) "M = n*oh*ow" (2 * 8 * 8) m;
    Alcotest.(check int) "K = cin*kh*kw" (3 * 3 * 3) k;
    Alcotest.(check int) "N = cout" 16 n
  | _ -> Alcotest.fail "expected one GEMM"

let test_attention_gemm_batch () =
  let g = Bert.base ~batch:2 ~seq_len:32 () in
  let scores =
    List.find
      (fun (n : Graph.node) -> n.node_name = "layer0.scores")
      (Graph.nodes g)
  in
  let w = Workload.of_node g scores in
  match w.Workload.gemms with
  | [ { count; m; k; n } ] ->
    Alcotest.(check int) "count = batch*heads" (2 * 12) count;
    Alcotest.(check int) "m = seq" 32 m;
    Alcotest.(check int) "k = head dim" 64 k;
    Alcotest.(check int) "n = seq" 32 n
  | _ -> Alcotest.fail "expected one batched GEMM"

let workload_nonnegative_prop =
  QCheck.Test.make ~count:20 ~name:"workloads are non-negative on random CNNs"
    QCheck.(pair (int_range 1 3) (int_range 0 100))
    (fun (depth, seed) ->
      let rng = Prng.create ~seed in
      let g = Graph.create ~name:"rand" ~dtype:Precision.Fp16 in
      let x = ref (Graph.input g (Shape.nchw ~n:1 ~c:4 ~h:16 ~w:16)) in
      for _ = 1 to depth do
        let cout = 4 * (1 + Prng.int rng ~bound:4) in
        x := Graph.conv2d g ~cout ~k:3 ~padding:1 !x;
        x := Graph.relu g !x
      done;
      ignore (Graph.output g !x);
      let w = Workload.of_graph g in
      w.Workload.cube_macs >= 0 && w.Workload.vector_elems >= 0.
      && Graph.validate g = Ok ())

(* ------------------------------------------------------------------ *)
(* Training workload                                                  *)

let test_backward_doubles_gemm () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp16 in
  let x = Graph.input g (Shape.matrix 8 32) in
  let fc = Graph.linear g ~out_features:16 x in
  ignore (Graph.output g fc);
  let node = Graph.find g fc in
  let fwd = Workload.of_node g node in
  let bwd = Training.backward_of_node g node in
  Alcotest.(check int) "2x macs" (2 * fwd.Workload.cube_macs)
    bwd.Workload.cube_macs;
  Alcotest.(check int) "two backward GEMMs" 2 (List.length bwd.Workload.gemms);
  (* SGD update: 3 vector ops per parameter *)
  Alcotest.(check (float 0.)) "optimizer update" (3. *. float_of_int (32 * 16))
    bwd.Workload.vector_elems

let test_training_heavier_than_inference () =
  let g = Resnet.v1_5_18 () in
  let inf = Workload.of_graph g in
  let tra = Training.graph_training_workload g in
  Alcotest.(check bool) "3x cube work (fwd + 2x bwd)" true
    (tra.Workload.cube_macs > (2 * inf.Workload.cube_macs));
  Alcotest.(check bool) "vector grows more than cube" true
    (tra.Workload.vector_elems /. inf.Workload.vector_elems
     > float_of_int tra.Workload.cube_macs /. float_of_int inf.Workload.cube_macs)

(* ------------------------------------------------------------------ *)
(* Numeric evaluation                                                 *)

let test_eval_small_cnn () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"in" (Shape.nchw ~n:1 ~c:2 ~h:6 ~w:6) in
  let c = Graph.conv2d g ~cout:4 ~k:3 x in
  let r = Graph.relu g c in
  let p = Graph.max_pool g ~kernel:2 ~stride:2 r in
  let gp = Graph.global_avg_pool g p in
  let fc = Graph.linear g ~out_features:3 gp in
  ignore (Graph.output g ~name:"out" fc);
  let params = Eval.random_params ~seed:1 g in
  let rng = Prng.create ~seed:2 in
  let input = Tensor.random rng (Shape.nchw ~n:1 ~c:2 ~h:6 ~w:6) in
  match Eval.run g params ~inputs:[ ("in", input) ] with
  | [ ("out", t) ] ->
    Alcotest.(check string) "shape" "[1x3]" (Shape.to_string (Tensor.shape t));
    Alcotest.(check bool) "finite" true
      (Tensor.fold (fun acc v -> acc && Float.is_finite v) true t)
  | _ -> Alcotest.fail "expected single output"

let test_eval_conv_matches_reference () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"in" (Shape.nchw ~n:1 ~c:3 ~h:5 ~w:5) in
  let c = Graph.conv2d g ~name:"c" ~cout:2 ~k:3 ~padding:1 x in
  ignore (Graph.output g ~name:"out" c);
  let params = Eval.random_params ~seed:5 g in
  let rng = Prng.create ~seed:6 in
  let input = Tensor.random rng (Shape.nchw ~n:1 ~c:3 ~h:5 ~w:5) in
  let out =
    match Eval.run g params ~inputs:[ ("in", input) ] with
    | [ (_, t) ] -> t
    | _ -> Alcotest.fail "one output"
  in
  let w =
    match Eval.find_param params "c" with
    | Some w -> w
    | None -> Alcotest.fail "conv weight"
  in
  let reference =
    Ascend.Tensor.Ops.conv2d
      ~params:{ Ascend.Tensor.Ops.stride = 1; padding = 1; groups = 1 }
      input w
  in
  Alcotest.(check bool) "matches Ops.conv2d" true
    (Tensor.max_abs_diff out reference < 1e-9)

let test_eval_missing_input () =
  let g = Graph.create ~name:"t" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"in" (Shape.vector 4) in
  ignore (Graph.output g (Graph.relu g x));
  let params = Eval.random_params g in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.run g params ~inputs:[]);
       false
     with Invalid_argument _ -> true)

let test_eval_bert_tiny () =
  (* a 1-layer toy transformer executes end to end *)
  let cfg =
    { Bert.layers = 1; hidden = 32; heads = 4; intermediate = 64;
      vocab_size = 100; max_position = 64 }
  in
  let g = Bert.build ~batch:1 ~seq_len:8 cfg in
  let params = Eval.random_params ~seed:3 g in
  let ids =
    Tensor.init (Shape.matrix 1 8) (fun i -> float_of_int ((i.(1) * 7) mod 100))
  in
  match Eval.run g params ~inputs:[ ("input_ids", ids) ] with
  | [ (_, t) ] ->
    Alcotest.(check string) "shape" "[8x32]" (Shape.to_string (Tensor.shape t));
    Alcotest.(check bool) "tanh-bounded" true
      (Tensor.fold (fun acc v -> acc && Float.abs v <= 1.) true t)
  | _ -> Alcotest.fail "one output"

(* ------------------------------------------------------------------ *)
(* Quantized inference (the §3.3 precision trade, numerically)         *)

let small_cnn () =
  let g = Graph.create ~name:"q" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"in" (Shape.nchw ~n:1 ~c:3 ~h:8 ~w:8) in
  let c = Graph.conv2d g ~name:"c1" ~cout:8 ~k:3 ~padding:1 x in
  let r = Graph.relu g c in
  let c2 = Graph.conv2d g ~name:"c2" ~cout:8 ~k:3 ~padding:1 r in
  let gp = Graph.global_avg_pool g c2 in
  let fc = Graph.linear g ~name:"fc" ~out_features:4 gp in
  ignore (Graph.output g fc);
  g

let test_quantized_int8_close () =
  let g = small_cnn () in
  let params = Eval.random_params ~seed:21 g in
  let rng = Prng.create ~seed:22 in
  let inputs = [ ("in", Tensor.random rng (Shape.nchw ~n:1 ~c:3 ~h:8 ~w:8)) ] in
  let r = Quantized.compare_outputs g params ~inputs ~dtype:Precision.Int8 in
  Alcotest.(check bool) "all params counted" true
    (r.Quantized.parameters_quantized > 500);
  (* int8 weight-only PTQ keeps the output close: > 25 dB SNR *)
  Alcotest.(check bool)
    (Printf.sprintf "int8 SNR %.1f dB > 25" r.Quantized.output_snr_db)
    true (r.Quantized.output_snr_db > 25.)

let test_quantized_int4_degrades_more () =
  let g = small_cnn () in
  let params = Eval.random_params ~seed:23 g in
  let rng = Prng.create ~seed:24 in
  let inputs = [ ("in", Tensor.random rng (Shape.nchw ~n:1 ~c:3 ~h:8 ~w:8)) ] in
  let r8 = Quantized.compare_outputs g params ~inputs ~dtype:Precision.Int8 in
  let r4 = Quantized.compare_outputs g params ~inputs ~dtype:Precision.Int4 in
  Alcotest.(check bool) "int4 noisier than int8" true
    (r4.Quantized.output_snr_db < r8.Quantized.output_snr_db);
  Alcotest.(check bool) "int4 still correlated (> 8 dB)" true
    (r4.Quantized.output_snr_db > 8.)

let test_quantized_rejects_float () =
  let g = small_cnn () in
  let params = Eval.random_params g in
  Alcotest.(check bool) "fp16 rejected" true
    (try
       ignore (Quantized.quantize_params ~dtype:Precision.Fp16 g params);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Autodiff: gradient checking against finite differences             *)

(* the analytic gradient of every parameter, at a handful of entries,
   against the central difference of the loss.  Where they disagree, a
   ReLU kink may lie within [eps] of the entry: the central difference
   then averages the two slopes.  That is accepted only when the two
   one-sided differences disagree with each other by more than [tol]
   (the kink) and the analytic gradient matches one of them. *)
let grad_check ?(tol = 1e-3) g ~seed =
  let eps = 1e-4 in
  let params = Eval.random_params ~seed g in
  let rng = Prng.create ~seed:(seed + 100) in
  let inputs =
    List.filter_map
      (fun (n : Graph.node) ->
        match n.op with
        | Op.Input -> Some (n.node_name, Tensor.random rng n.out_shape)
        | _ -> None)
      (Graph.nodes g)
  in
  let grads = Autodiff.backward g params ~inputs () in
  let agree a b = Float.abs (a -. b) /. Float.max 1. (Float.abs b) <= tol in
  (* the loss with entry [idx] of parameter tensor [t] moved by [d] *)
  let loss_moved t idx d =
    let original = Tensor.get_flat t idx in
    Tensor.set_flat t idx (original +. d);
    let l = Autodiff.loss g params ~inputs in
    Tensor.set_flat t idx original;
    l
  in
  (* check a handful of entries of every parameter *)
  List.iter
    (fun (name, gt) ->
      let n = Tensor.numel gt in
      let t = Option.get (Eval.find_param params name) in
      List.iter
        (fun idx ->
          let idx = idx mod n in
          let analytic = Tensor.get_flat gt idx in
          let numeric =
            Autodiff.numeric_param_grad g params ~inputs ~param:name ~index:idx
              ~eps ()
          in
          if not (agree analytic numeric) then begin
            let here = Autodiff.loss g params ~inputs in
            let forward = (loss_moved t idx eps -. here) /. eps in
            let backward = (here -. loss_moved t idx (-.eps)) /. eps in
            if agree forward backward
               || not (agree analytic forward || agree analytic backward)
            then
              Alcotest.failf
                "%s[%d]: analytic %.6f vs numeric %.6f (one-sided %.6f, %.6f)"
                name idx analytic numeric forward backward
          end)
        [ 0; 7; 13; n - 1 ])
    grads.Autodiff.param_grads

let test_autodiff_linear () =
  let g = Graph.create ~name:"lin" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"x" (Shape.matrix 3 5) in
  let fc = Graph.linear g ~name:"fc" ~out_features:4 x in
  let s = Graph.activation g ~name:"sig" Op.Sigmoid fc in
  ignore (Graph.output g s);
  grad_check g ~seed:1

let test_autodiff_conv_pool () =
  let g = Graph.create ~name:"conv" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"x" (Shape.nchw ~n:1 ~c:2 ~h:6 ~w:6) in
  let c = Graph.conv2d g ~name:"c1" ~cout:3 ~k:3 ~padding:1 x in
  let r = Graph.relu g c in
  let p = Graph.max_pool g ~kernel:2 ~stride:2 r in
  let a = Graph.avg_pool g ~kernel:3 ~stride:3 p in
  let gp = Graph.global_avg_pool g a in
  let fc = Graph.linear g ~name:"head" ~out_features:2 gp in
  ignore (Graph.output g fc);
  grad_check g ~seed:2

let test_autodiff_strided_grouped_conv () =
  let g = Graph.create ~name:"dw" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"x" (Shape.nchw ~n:1 ~c:4 ~h:6 ~w:6) in
  let c = Graph.conv2d g ~name:"pw" ~cout:4 ~k:1 x in
  let d = Graph.depthwise_conv2d g ~name:"dwc" ~k:3 ~padding:1 c in
  let s = Graph.conv2d g ~name:"strided" ~cout:2 ~k:3 ~stride:2 d in
  let gp = Graph.global_avg_pool g s in
  ignore (Graph.output g gp);
  grad_check g ~seed:3

let test_autodiff_norms_and_softmax () =
  let g = Graph.create ~name:"norm" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"x" (Shape.nchw ~n:2 ~c:3 ~h:4 ~w:4) in
  let bn = Graph.batch_norm g ~name:"bn" x in
  let gp = Graph.global_avg_pool g bn in
  let fc = Graph.linear g ~name:"fc" ~out_features:5 gp in
  let ln = Graph.layer_norm g fc in
  let sm = Graph.softmax g ln in
  ignore (Graph.output g sm);
  grad_check g ~seed:4

let test_autodiff_attention () =
  (* matmul both ways, residual add, gelu *)
  let g = Graph.create ~name:"attn" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"x" (Shape.matrix 4 6) in
  let q = Graph.linear g ~name:"q" ~out_features:6 x in
  let k = Graph.linear g ~name:"k" ~out_features:6 x in
  let v = Graph.linear g ~name:"v" ~out_features:6 x in
  let scores = Graph.matmul g ~transpose_b:true q k in
  let probs = Graph.softmax g scores in
  let ctx = Graph.matmul g probs v in
  let res = Graph.add g ctx x in
  let gl = Graph.gelu g res in
  ignore (Graph.output g gl);
  grad_check g ~seed:5

let test_autodiff_embedding () =
  let g = Graph.create ~name:"emb" ~dtype:Precision.Fp32 in
  let ids = Graph.input g ~name:"ids" (Shape.matrix 2 3) in
  let e = Graph.embedding g ~name:"table" ~vocab_size:7 ~hidden:4 ids in
  let fl = Graph.reshape g [ 6; 4 ] e in
  let fc = Graph.linear g ~name:"fc" ~out_features:2 fl in
  ignore (Graph.output g fc);
  let params = Eval.random_params ~seed:9 g in
  let inputs =
    [ ("ids", Tensor.of_array (Shape.matrix 2 3) [| 0.; 3.; 6.; 1.; 3.; 2. |]) ]
  in
  let grads = Autodiff.backward g params ~inputs () in
  let table_grad = List.assoc "table" grads.Autodiff.param_grads in
  (* row 3 was used twice: its gradient must be the accumulated one; a
     never-used row (5) stays zero *)
  let row_norm r =
    let acc = ref 0. in
    for j = 0 to 3 do
      acc := !acc +. Float.abs (Tensor.get table_grad [| r; j |])
    done;
    !acc
  in
  Alcotest.(check bool) "used row has gradient" true (row_norm 3 > 0.);
  Alcotest.(check (float 0.)) "unused row zero" 0. (row_norm 5);
  (* and finite differences agree *)
  List.iter
    (fun idx ->
      let analytic = Tensor.get_flat table_grad idx in
      let numeric =
        Autodiff.numeric_param_grad g params ~inputs ~param:"table" ~index:idx ()
      in
      Alcotest.(check (float 1e-3)) "fd matches" numeric analytic)
    [ 12; 13; 14; 15 ]

let test_autodiff_input_grad_shape () =
  let g = Graph.create ~name:"ig" ~dtype:Precision.Fp32 in
  let x = Graph.input g ~name:"x" (Shape.matrix 2 3) in
  let fc = Graph.linear g ~name:"fc" ~out_features:4 x in
  ignore (Graph.output g fc);
  let params = Eval.random_params g in
  let rng = Prng.create ~seed:3 in
  let inputs = [ ("x", Tensor.random rng (Shape.matrix 2 3)) ] in
  let grads = Autodiff.backward g params ~inputs () in
  match grads.Autodiff.input_grads with
  | [ ("x", gx) ] ->
    Alcotest.(check string) "same shape as x" "[2x3]"
      (Shape.to_string (Tensor.shape gx))
  | _ -> Alcotest.fail "one input gradient expected"

(* a random two-conv ReLU CNN drawn from graph seed [seed] *)
let random_cnn seed =
  let rng = Prng.create ~seed in
  let g = Graph.create ~name:"rand" ~dtype:Precision.Fp32 in
  let x = ref (Graph.input g ~name:"x" (Shape.nchw ~n:1 ~c:2 ~h:5 ~w:5)) in
  for i = 0 to 1 do
    let cout = 2 + Prng.int rng ~bound:2 in
    x := Graph.conv2d g ~name:(Printf.sprintf "c%d" i) ~cout ~k:3 ~padding:1 !x;
    x := Graph.relu g !x
  done;
  let gp = Graph.global_avg_pool g !x in
  let fc = Graph.linear g ~name:"fc" ~out_features:3 gp in
  ignore (Graph.output g fc);
  g

let autodiff_random_cnn_prop =
  QCheck.Test.make ~count:8 ~name:"gradient check on random small CNNs"
    QCheck.(int_range 0 1000)
    (fun seed ->
      try
        grad_check (random_cnn seed) ~seed;
        true
      with _ -> false)

(* graph seed 445 puts a ReLU pre-activation within eps of zero: c0[7]'s
   central difference straddles the kink, and the analytic gradient
   matches the backward one-sided difference *)
let test_autodiff_relu_kink () = grad_check (random_cnn 445) ~seed:445

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "nn"
    [
      ( "graph",
        [
          Alcotest.test_case "builder shapes" `Quick test_builder_shapes;
          Alcotest.test_case "forward refs" `Quick test_builder_rejects_forward_refs;
          Alcotest.test_case "output required" `Quick
            test_graph_without_output_invalid;
          Alcotest.test_case "matmul inference" `Quick test_matmul_shape_inference;
          Alcotest.test_case "concat" `Quick test_concat;
          q graph_index_prop;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "all models validate" `Quick test_zoo_validates;
          Alcotest.test_case "resnet50 macs" `Quick test_resnet50_macs;
          Alcotest.test_case "mobilenet macs" `Quick test_mobilenet_macs;
          Alcotest.test_case "vgg macs" `Quick test_vgg_macs;
          Alcotest.test_case "bert params" `Quick test_bert_params;
          Alcotest.test_case "bert seq scaling" `Quick test_bert_macs_scale_with_seq;
          Alcotest.test_case "batch scaling" `Quick test_batch_scaling;
          Alcotest.test_case "siamese structure" `Quick test_siamese_structure;
          Alcotest.test_case "upsample op" `Quick test_upsample;
          Alcotest.test_case "fpn structure" `Quick test_fpn_structure;
          Alcotest.test_case "wide&deep structure" `Quick test_wide_deep_structure;
        ] );
      ( "workload",
        [
          Alcotest.test_case "depthwise on vector" `Quick test_depthwise_on_vector;
          Alcotest.test_case "conv gemm dims" `Quick test_conv_gemm_dims;
          Alcotest.test_case "attention batch" `Quick test_attention_gemm_batch;
          q workload_nonnegative_prop;
        ] );
      ( "training",
        [
          Alcotest.test_case "backward doubles gemm" `Quick
            test_backward_doubles_gemm;
          Alcotest.test_case "training heavier" `Quick
            test_training_heavier_than_inference;
        ] );
      ( "eval",
        [
          Alcotest.test_case "small cnn" `Quick test_eval_small_cnn;
          Alcotest.test_case "conv matches reference" `Quick
            test_eval_conv_matches_reference;
          Alcotest.test_case "missing input" `Quick test_eval_missing_input;
          Alcotest.test_case "tiny bert" `Quick test_eval_bert_tiny;
        ] );
      ( "quantized",
        [
          Alcotest.test_case "int8 close" `Quick test_quantized_int8_close;
          Alcotest.test_case "int4 degrades" `Quick
            test_quantized_int4_degrades_more;
          Alcotest.test_case "rejects float" `Quick test_quantized_rejects_float;
        ] );
      ( "autodiff",
        [
          Alcotest.test_case "linear+sigmoid" `Quick test_autodiff_linear;
          Alcotest.test_case "conv+pool" `Quick test_autodiff_conv_pool;
          Alcotest.test_case "strided/grouped conv" `Quick
            test_autodiff_strided_grouped_conv;
          Alcotest.test_case "norms+softmax" `Quick
            test_autodiff_norms_and_softmax;
          Alcotest.test_case "attention" `Quick test_autodiff_attention;
          Alcotest.test_case "embedding scatter" `Quick test_autodiff_embedding;
          Alcotest.test_case "input grads" `Quick test_autodiff_input_grad_shape;
          Alcotest.test_case "gradient check at a ReLU kink" `Quick
            test_autodiff_relu_kink;
          q autodiff_random_cnn_prop;
        ] );
    ]
