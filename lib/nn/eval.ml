module Shape = Ascend_tensor.Shape
module Tensor = Ascend_tensor.Tensor
module Ops = Ascend_tensor.Ops

type params = (string, Tensor.t) Hashtbl.t

let find_param p name = Hashtbl.find_opt p name

let random_params ?(seed = 7) g =
  let rng = Ascend_util.Prng.create ~seed in
  let params : params = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      match n.inputs with
      | [ x ] -> (
        let input = (Graph.find g x).out_shape in
        match Op.weight_shape n.op ~input with
        | None -> ()
        | Some ws ->
          let fan_in =
            match Shape.to_list ws with
            | [ _cout; cin; kh; kw ] -> cin * kh * kw
            | [ infe; _outf ] -> infe
            | _ -> Shape.numel ws
          in
          let sigma =
            match n.op with
            | Op.Embedding _ -> 0.02
            | _ -> sqrt (2. /. float_of_int (max 1 fan_in))
          in
          let t =
            match n.op with
            | Op.Batch_norm ->
              (* rows: mean 0, var 1, gamma 1, beta 0 *)
              Tensor.init ws (fun idx ->
                  match idx.(0) with
                  | 0 -> 0.
                  | 1 -> 1.
                  | 2 -> 1.
                  | _ -> 0.)
            | _ ->
              Tensor.map
                (fun v -> v *. sigma)
                (Tensor.random rng ws)
          in
          Hashtbl.replace params n.node_name t)
      | _ -> ())
    (Graph.nodes g);
  params

let require_param params (n : Graph.node) =
  match Hashtbl.find_opt params n.node_name with
  | Some t -> t
  | None ->
    invalid_arg (Printf.sprintf "Eval: missing parameter for node %s" n.node_name)

let batched_matmul ~transpose_b a b =
  let da = Shape.to_list (Tensor.shape a) in
  let rev = List.rev da in
  match rev with
  | k :: m :: batch_rev ->
    let batch = List.fold_left ( * ) 1 batch_rev in
    let db = Shape.to_list (Tensor.shape b) in
    let rev_b = List.rev db in
    let last_b = List.hd rev_b and pre_b = List.hd (List.tl rev_b) in
    let n = if transpose_b then pre_b else last_b in
    let out_shape = Shape.of_list (List.rev (n :: m :: batch_rev)) in
    let out = Tensor.create out_shape in
    let a_data = Tensor.data a and b_data = Tensor.data b in
    let o_data = Tensor.data out in
    for bi = 0 to batch - 1 do
      let abase = bi * m * k in
      let bbase = bi * k * n in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0. in
          for p = 0 to k - 1 do
            let bv =
              if transpose_b then b_data.(bbase + (j * k) + p)
              else b_data.(bbase + (p * n) + j)
            in
            acc := !acc +. (a_data.(abase + (i * k) + p) *. bv)
          done;
          o_data.((bi * m * n) + (i * n) + j) <- !acc
        done
      done
    done;
    out
  | _ -> invalid_arg "Eval: matmul input rank < 2"

let linear_apply x w =
  (* x : (.. x in), w : in x out *)
  let dims = Shape.to_list (Tensor.shape x) in
  let infe = List.hd (List.rev dims) in
  let batch = List.fold_left ( * ) 1 dims / infe in
  let x2 = Tensor.reshape x (Shape.matrix batch infe) in
  let y = Ops.matmul x2 w in
  let out_dims = List.rev (Shape.dim (Tensor.shape w) 1 :: List.tl (List.rev dims)) in
  Tensor.reshape y (Shape.of_list out_dims)

let concat_tensors ~axis ts =
  let shapes = List.map Tensor.shape ts in
  let out_shape = Op.infer_shape (Op.Concat { axis }) shapes in
  let out = Tensor.create out_shape in
  let offset = ref 0 in
  List.iter
    (fun t ->
      let d = Shape.dim (Tensor.shape t) axis in
      Tensor.iteri
        (fun idx v ->
          let idx' = Array.copy idx in
          idx'.(axis) <- idx'.(axis) + !offset;
          Tensor.set out idx' v)
        t;
      offset := !offset + d)
    ts;
  out

let embedding_apply table ids ~hidden ~vocab =
  let id_dims = Shape.to_list (Tensor.shape ids) in
  let out_shape = Shape.of_list (id_dims @ [ hidden ]) in
  let out = Tensor.create out_shape in
  let n = Tensor.numel ids in
  let id_data = Tensor.data ids in
  let tab = Tensor.data table in
  let o = Tensor.data out in
  for i = 0 to n - 1 do
    let id = max 0 (min (vocab - 1) (int_of_float id_data.(i))) in
    Array.blit tab (id * hidden) o (i * hidden) hidden
  done;
  out

let eval_node params values (n : Graph.node) =
  let inputs = List.map (fun i -> Hashtbl.find values i) n.inputs in
  let result =
    match (n.op, inputs) with
    | Op.Input, _ -> Hashtbl.find values n.id
    | Op.Conv2d { stride; padding; groups; _ }, [ x ] ->
      let w = require_param params n in
      Ops.conv2d ~params:{ stride; padding; groups } x w
    | Op.Linear _, [ x ] -> linear_apply x (require_param params n)
    | Op.Matmul { transpose_b }, [ a; b ] -> batched_matmul ~transpose_b a b
    | Op.Pool { kind = Op.Max_pool; kernel; stride }, [ x ] ->
      Ops.max_pool2d x ~kernel ~stride
    | Op.Pool { kind = Op.Avg_pool; kernel; stride }, [ x ] ->
      Ops.avg_pool2d x ~kernel ~stride
    | Op.Global_avg_pool, [ x ] -> Ops.global_avg_pool x
    | Op.Activation Op.Relu, [ x ] -> Ops.relu x
    | Op.Activation Op.Relu6, [ x ] -> Ops.relu6 x
    | Op.Activation Op.Gelu, [ x ] -> Ops.gelu x
    | Op.Activation Op.Sigmoid, [ x ] -> Ops.sigmoid x
    | Op.Activation Op.Tanh, [ x ] -> Ops.tanh_ x
    | Op.Batch_norm, [ x ] ->
      let w = require_param params n in
      let c = Shape.dim (Tensor.shape w) 1 in
      let row r = Array.init c (fun i -> Tensor.get w [| r; i |]) in
      Ops.batch_norm_inference ~mean:(row 0) ~var:(Array.map Float.abs (row 1))
        ~gamma:(row 2) ~beta:(row 3) x
    | Op.Layer_norm, [ x ] -> Ops.layer_norm x
    | Op.Softmax, [ x ] -> Ops.softmax x
    | Op.Add, [ a; b ] -> Tensor.add a b
    | Op.Mul, [ a; b ] -> Tensor.mul a b
    | Op.Concat { axis }, ts -> concat_tensors ~axis ts
    | Op.Embedding { vocab_size; hidden }, [ ids ] ->
      embedding_apply (require_param params n) ids ~hidden ~vocab:vocab_size
    | Op.Upsample { factor }, [ x ] ->
      let out_shape = Op.infer_shape n.op [ Tensor.shape x ] in
      Tensor.init ~dtype:(Tensor.dtype x) out_shape (fun idx ->
          Tensor.get x
            [| idx.(0); idx.(1); idx.(2) / factor; idx.(3) / factor |])
    | Op.Reshape dims, [ x ] -> Tensor.reshape x (Shape.of_list dims)
    | Op.Transpose_last_two, [ x ] -> Tensor.transpose x
    | Op.Output, [ x ] -> x
    | _, _ ->
      invalid_arg (Printf.sprintf "Eval: malformed node %s" n.node_name)
  in
  Hashtbl.replace values n.id result

let run_all g params ~inputs =
  let values : (int, Tensor.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      match n.op with
      | Op.Input -> (
        match List.assoc_opt n.node_name inputs with
        | Some t ->
          if not (Shape.equal (Tensor.shape t) n.out_shape) then
            invalid_arg
              (Printf.sprintf "Eval: input %s has shape %s, expected %s"
                 n.node_name
                 (Shape.to_string (Tensor.shape t))
                 (Shape.to_string n.out_shape));
          Hashtbl.replace values n.id t
        | None ->
          invalid_arg (Printf.sprintf "Eval: missing input %s" n.node_name))
      | _ -> ())
    (Graph.nodes g);
  List.iter
    (fun (n : Graph.node) ->
      match n.op with Op.Input -> () | _ -> eval_node params values n)
    (Graph.nodes g);
  List.map (fun (n : Graph.node) -> (n.id, Hashtbl.find values n.id)) (Graph.nodes g)

let run g params ~inputs =
  let all = run_all g params ~inputs in
  List.filter_map
    (fun (n : Graph.node) ->
      match n.op with
      | Op.Output -> Some (n.node_name, List.assoc n.id all)
      | _ -> None)
    (Graph.nodes g)
