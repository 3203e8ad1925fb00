(* The fixed program corpus the report and finding pins digest, shared by
   test_core_sim and test_verify: gesture, resnet18 and the tiny LLM
   decode graph, on every core that supports each graph's dtype, under
   the eight lint option combinations, plus a mutation set that reaches
   the checkers' failure paths. *)

open Ascend.Isa
module Config = Ascend.Arch.Config
module Codegen = Ascend.Compiler.Codegen

let lint_option_combos =
  List.concat_map
    (fun sync_mode ->
      List.concat_map
        (fun double_buffer ->
          List.map
            (fun weight_sparsity ->
              { Codegen.default_options with
                Codegen.sync_mode; double_buffer; weight_sparsity })
            [ None; Some 0.5 ])
        [ true; false ])
    [ Codegen.Flags; Codegen.Coarse_barriers ]

let drop_nth n instrs = List.filteri (fun i _ -> i <> n) instrs

let positions_of pred instrs =
  List.mapi (fun i x -> (i, x)) instrs
  |> List.filter_map (fun (i, x) -> if pred x then Some i else None)

let pick seed = function
  | [] -> None
  | xs -> Some (List.nth xs (seed mod List.length xs))

(* the first of the longest programs *)
let longest programs =
  List.fold_left
    (fun best p -> if Program.length p > Program.length best then p else best)
    (List.hd programs) programs

(* the stream of the pipe that issues the program's first wait, in
   reverse order; every other pipe keeps its order and positions *)
let reverse_stream instrs =
  match
    List.find_opt
      (function Instruction.Wait_flag _ -> true | _ -> false)
      instrs
  with
  | Some (Instruction.Wait_flag { to_pipe; _ }) ->
    let on_pipe x = Instruction.pipe_of x = Some to_pipe in
    let rev = ref (List.rev (List.filter on_pipe instrs)) in
    Some
      (List.map
         (fun x ->
           if on_pipe x then (
             let y = List.hd !rev in
             rev := List.tl !rev;
             y)
           else x)
         instrs)
  | _ -> None

(* drop a set, a wait and the first barrier; reverse a stream; halve a
   declared peak; add one illegal MTE move *)
let mutants (p : Program.t) =
  let instrs = p.Program.instructions in
  let drop pred =
    Option.map
      (fun n -> { p with Program.instructions = drop_nth n instrs })
      (pick 0 (positions_of pred instrs))
  in
  let illegal =
    Instruction.Mte_move
      { src = Buffer_id.L0c; dst = Buffer_id.L0a; bytes = 64;
        transform = Instruction.Plain; src_slot = 0; dst_slot = 0 }
  in
  List.filter_map Fun.id
    [
      drop (function Instruction.Set_flag _ -> true | _ -> false);
      drop (function Instruction.Wait_flag _ -> true | _ -> false);
      drop (function Instruction.Barrier -> true | _ -> false);
      Option.map
        (fun instructions -> { p with Program.instructions })
        (reverse_stream instrs);
      (match p.Program.buffer_peak with
      | (b, v) :: rest ->
        Some { p with Program.buffer_peak = (b, v / 2) :: rest }
      | [] -> None);
      Some { p with Program.instructions = illegal :: instrs };
    ]

let graphs () =
  [
    Ascend.Nn.Gesture.build ();
    Ascend.Nn.Resnet.v1_5_18 ();
    Ascend.Nn.Llm.decode ~cache_len:128 Ascend.Nn.Llm.tiny_config;
  ]

(* [iter f] calls [f ~core ~combo config programs] once per (graph,
   supporting core, option combination), in that nesting order; [core]
   and [combo] are the positions of [config] among the graph's cores
   and of the options in [lint_option_combos] *)
let iter f =
  List.iter
    (fun g ->
      let cores =
        List.filter
          (fun c -> Config.supports c (Ascend.Nn.Graph.dtype g))
          Config.all
      in
      List.iteri
        (fun core config ->
          List.iteri
            (fun combo options ->
              f ~core ~combo config
                (List.map snd (Codegen.graph_programs ~options config g)))
            lint_option_combos)
        cores)
    (graphs ())

let contains needle s =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = needle || at (i + 1))
  in
  at 0
