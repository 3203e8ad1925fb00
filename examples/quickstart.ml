(* Quickstart: build a small CNN in the layer IR, compile it with the
   multi-tier compiler, and simulate it on an Ascend-Mini core.

     dune exec examples/quickstart.exe *)

module Graph = Ascend.Nn.Graph
module Shape = Ascend.Tensor.Shape
module Engine = Ascend.Compiler.Engine
module Config = Ascend.Arch.Config

let build_net () =
  let g = Graph.create ~name:"quickstart_cnn" ~dtype:Ascend.Arch.Precision.Fp16 in
  let x = Graph.input g ~name:"image" (Shape.nchw ~n:1 ~c:3 ~h:64 ~w:64) in
  let x = Graph.conv2d g ~name:"conv1" ~cout:32 ~k:3 ~stride:2 ~padding:1 x in
  let x = Graph.batch_norm g ~name:"bn1" x in
  let x = Graph.relu g ~name:"relu1" x in
  let x = Graph.conv2d g ~name:"conv2" ~cout:64 ~k:3 ~padding:1 x in
  let x = Graph.relu g ~name:"relu2" x in
  let x = Graph.max_pool g ~name:"pool" ~kernel:2 ~stride:2 x in
  let x = Graph.conv2d g ~name:"conv3" ~cout:128 ~k:3 ~padding:1 x in
  let x = Graph.relu g ~name:"relu3" x in
  let x = Graph.global_avg_pool g ~name:"gap" x in
  let x = Graph.linear g ~name:"fc" ~out_features:10 x in
  ignore (Graph.output g ~name:"logits" x);
  g

let () =
  let g = build_net () in
  (match Graph.validate g with
  | Ok () -> ()
  | Error e -> failwith ("invalid graph: " ^ e));
  Format.printf "%a@." Graph.pp_summary g;

  (* numeric forward execution against the reference operators *)
  let params = Ascend.Nn.Eval.random_params ~seed:42 g in
  let rng = Ascend.Util.Prng.create ~seed:1 in
  let image =
    Ascend.Tensor.Tensor.random rng (Shape.nchw ~n:1 ~c:3 ~h:64 ~w:64)
  in
  (match Ascend.Nn.Eval.run g params ~inputs:[ ("image", image) ] with
  | [ (name, t) ] ->
    Format.printf "numeric eval -> %s : %a@.@." name Ascend.Tensor.Tensor.pp t
  | _ -> assert false);

  (* compile + simulate on every core version that supports fp16 *)
  List.iter
    (fun config ->
      match Engine.run_inference config g with
      | Error e -> Format.printf "%s: ERROR %s@." config.Config.name e
      | Ok r ->
        Format.printf "%s: %a / inference, %.2f W average@."
          config.Config.name Ascend.Util.Units.pp_seconds (Engine.seconds r)
          (Engine.average_power_w r))
    (Ascend.Zoo.supporting g);
  Format.printf "@.";

  (* the per-layer cube/vector profile on Ascend-Mini (the paper's §2.4
     profiling methodology) *)
  (match Engine.run_inference Config.mini g with
  | Error e -> failwith e
  | Ok r ->
    Format.printf "%a@." Engine.pp_layer_table r;
    (* peek at the generated code of the first layer *)
    (match r.Engine.layers with
    | first :: _ ->
      let p = first.Engine.program in
      Format.printf "first 12 instructions of layer '%s':@."
        p.Ascend.Isa.Program.program_name;
      List.iteri
        (fun i instr ->
          if i < 12 then
            Format.printf "  %2d  %a@." i Ascend.Isa.Instruction.pp instr)
        p.Ascend.Isa.Program.instructions
    | [] -> ()));

  (* a Gantt view of the decoupled pipes (paper Figure 3, regenerated
     from an actual traced run of the conv2 layer) *)
  let groups = Ascend.Compiler.Fusion.partition g in
  match List.nth_opt groups 1 with
  | None -> ()
  | Some group ->
    let program =
      Ascend.Compiler.Codegen.group_program Config.mini group
    in
    (match Ascend.Core_sim.Simulator.run ~trace:true Config.mini program with
    | Error e -> failwith e
    | Ok report ->
      Format.printf "@.pipe timeline of layer '%s' (paper Figure 3):@.%s@."
        group.Ascend.Compiler.Fusion.tag
        (Ascend.Core_sim.Timeline.render report);
      Format.printf "%s"
        (Ascend.Core_sim.Timeline.utilization_bars report))
