module Config = Ascend_arch.Config
module Graph = Ascend_nn.Graph
module Codegen = Ascend_compiler.Codegen
module Nn = Ascend_nn

let models : (string * (batch:int -> Graph.t)) list =
  [
    ("resnet50", fun ~batch -> Nn.Resnet.v1_5 ~batch ());
    ("resnet18", fun ~batch -> Nn.Resnet.v1_5_18 ~batch ());
    ("mobilenet", fun ~batch -> Nn.Mobilenet.v2 ~batch ());
    ("vgg16", fun ~batch -> Nn.Vgg.v16 ~batch ());
    ("bert-base", fun ~batch -> Nn.Bert.base ~batch ~seq_len:128 ());
    ("bert-large", fun ~batch -> Nn.Bert.large ~batch ~seq_len:128 ());
    ("gesture", fun ~batch -> Nn.Gesture.build ~batch ());
    ("siamese", fun ~batch -> Nn.Siamese.build ~batch ());
    ("wide-deep", fun ~batch -> Nn.Wide_deep.default ~batch ());
    ("pointnet", fun ~batch -> Nn.Pointnet.build ~batch ());
    ("face-detect", fun ~batch -> Nn.Face_detect.build ~batch ());
    ("fpn-detector", fun ~batch -> Nn.Fpn_detector.build ~batch ());
    ( "llm-prefill",
      fun ~batch -> Nn.Llm.prefill ~batch ~seq_len:64 Nn.Llm.tiny_config );
    ( "llm-decode",
      fun ~batch -> Nn.Llm.decode ~batch ~cache_len:128 Nn.Llm.tiny_config );
  ]

let cores =
  [
    ("tiny", Config.tiny);
    ("lite", Config.lite);
    ("mini", Config.mini);
    ("standard", Config.standard);
    ("max", Config.max);
  ]

let supporting g =
  List.filter (fun c -> Config.supports c (Graph.dtype g)) (List.map snd cores)

let option_combos =
  List.concat_map
    (fun sync_mode ->
      List.concat_map
        (fun double_buffer ->
          List.map
            (fun weight_sparsity ->
              { Codegen.default_options with
                sync_mode; double_buffer; weight_sparsity })
            [ None; Some 0.5 ])
        [ true; false ])
    [ Codegen.Flags; Codegen.Coarse_barriers ]

let corpus =
  [
    ("gesture", fun () -> Nn.Gesture.build ());
    ("resnet18", fun () -> Nn.Resnet.v1_5_18 ());
    ("resnet50", fun () -> Nn.Resnet.v1_5 ());
    ("mobilenet", fun () -> Nn.Mobilenet.v2 ());
    ("bert-base-s32", fun () -> Nn.Bert.base ~seq_len:32 ());
  ]
