module Shape = Ascend_tensor.Shape

type node = {
  id : int;
  node_name : string;
  op : Op.t;
  inputs : int list;
  out_shape : Shape.t;
  dtype : Ascend_arch.Precision.t;
}

(* Nodes live in fixed-size chunks indexed by id (ids are dense and
   equal creation order), so [find] is two array reads.  A chunk is small
   enough for the minor heap and is never copied; only the chunk
   directory grows.  Slots at or past [count] hold [filler] and are
   never read. *)
let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits

type t = {
  graph_name : string;
  graph_dtype : Ascend_arch.Precision.t;
  mutable chunks : node array array;
  mutable count : int;
  (* the reverse edges: one newest-first consumer-id list per node, built
     on the first [consumers] call and again if nodes were added since.
     Domains racing to build it each store a complete, equal index. *)
  mutable consumer_ids : int list array;
}

let filler =
  { id = -1; node_name = ""; op = Op.Input; inputs = []; out_shape = Shape.scalar;
    dtype = Ascend_arch.Precision.Fp16 }

let create ~name ~dtype =
  { graph_name = name; graph_dtype = dtype; chunks = [||]; count = 0;
    consumer_ids = [||] }

let name t = t.graph_name
let dtype t = t.graph_dtype
let node_count t = t.count
let slot t id = t.chunks.(id lsr chunk_bits).(id land (chunk_size - 1))

let nodes t =
  let rec go acc i = if i < 0 then acc else go (slot t i :: acc) (i - 1) in
  go [] (t.count - 1)

let find t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Graph.find: no node %d" id);
  slot t id

let consumer_index t =
  if Array.length t.consumer_ids <> t.count then begin
    let ids = Array.make t.count [] in
    for c = 0 to t.count - 1 do
      List.iter
        (fun i ->
          (* a node reading [i] twice is listed once *)
          match ids.(i) with
          | c' :: _ when c' = c -> ()
          | cs -> ids.(i) <- c :: cs)
        (slot t c).inputs
    done;
    t.consumer_ids <- ids
  end;
  t.consumer_ids

let consumers t id =
  if id < 0 || id >= t.count then []
  else List.rev_map (slot t) (consumer_index t).(id)

let outputs t =
  List.filter (fun n -> match n.op with Op.Output -> true | _ -> false) (nodes t)

let push t node =
  let id = t.count in
  let c = id lsr chunk_bits and i = id land (chunk_size - 1) in
  if i = 0 then begin
    if c = Array.length t.chunks then begin
      let chunks = Array.make (max 4 (2 * c)) [||] in
      Array.blit t.chunks 0 chunks 0 c;
      t.chunks <- chunks
    end;
    t.chunks.(c) <- Array.make chunk_size filler
  end;
  t.chunks.(c).(i) <- node;
  t.count <- id + 1;
  id

let add_node t ?name ~op inputs =
  List.iter
    (fun i ->
      if i < 0 || i >= t.count then
        invalid_arg
          (Printf.sprintf "Graph.add_node: input %d does not exist yet" i))
    inputs;
  let in_shapes =
    match (op, inputs) with
    | Op.Input, [] -> []
    | _ -> List.map (fun i -> (find t i).out_shape) inputs
  in
  let out_shape =
    match op with
    | Op.Input -> invalid_arg "Graph.add_node: use Graph.input"
    | _ -> Op.infer_shape op in_shapes
  in
  let id = t.count in
  let node_name =
    match name with Some n -> n | None -> Printf.sprintf "%s_%d" (Op.name op) id
  in
  push t { id; node_name; op; inputs; out_shape; dtype = t.graph_dtype }

let input t ?name shape =
  let id = t.count in
  let node_name =
    match name with Some n -> n | None -> Printf.sprintf "input_%d" id
  in
  push t
    { id; node_name; op = Op.Input; inputs = []; out_shape = shape;
      dtype = t.graph_dtype }

let conv2d_rect t ?name ?(stride = 1) ?(padding = 0) ?(groups = 1) ~cout ~kh ~kw x =
  add_node t ?name ~op:(Op.Conv2d { cout; kh; kw; stride; padding; groups }) [ x ]

let conv2d t ?name ?stride ?padding ?groups ~cout ~k x =
  conv2d_rect t ?name ?stride ?padding ?groups ~cout ~kh:k ~kw:k x

let depthwise_conv2d t ?name ?(stride = 1) ?(padding = 0) ~k x =
  let shape = (find t x).out_shape in
  let c = Shape.dim shape 1 in
  conv2d t ?name ~stride ~padding ~groups:c ~cout:c ~k x

let linear t ?name ~out_features x =
  add_node t ?name ~op:(Op.Linear { out_features }) [ x ]

let matmul t ?name ?(transpose_b = false) a b =
  add_node t ?name ~op:(Op.Matmul { transpose_b }) [ a; b ]

let max_pool t ?name ~kernel ~stride x =
  add_node t ?name ~op:(Op.Pool { kind = Op.Max_pool; kernel; stride }) [ x ]

let avg_pool t ?name ~kernel ~stride x =
  add_node t ?name ~op:(Op.Pool { kind = Op.Avg_pool; kernel; stride }) [ x ]

let global_avg_pool t ?name x =
  add_node t ?name ~op:Op.Global_avg_pool [ x ]

let activation t ?name a x = add_node t ?name ~op:(Op.Activation a) [ x ]
let relu t ?name x = activation t ?name Op.Relu x
let relu6 t ?name x = activation t ?name Op.Relu6 x
let gelu t ?name x = activation t ?name Op.Gelu x
let batch_norm t ?name x = add_node t ?name ~op:Op.Batch_norm [ x ]
let layer_norm t ?name x = add_node t ?name ~op:Op.Layer_norm [ x ]
let softmax t ?name x = add_node t ?name ~op:Op.Softmax [ x ]
let add t ?name a b = add_node t ?name ~op:Op.Add [ a; b ]
let mul t ?name a b = add_node t ?name ~op:Op.Mul [ a; b ]

let concat t ?name ~axis xs =
  add_node t ?name ~op:(Op.Concat { axis }) xs

let embedding t ?name ~vocab_size ~hidden x =
  add_node t ?name ~op:(Op.Embedding { vocab_size; hidden }) [ x ]

let kv_attention t ?name ~heads ~cache_len q k v =
  add_node t ?name ~op:(Op.Kv_attention { heads; cache_len }) [ q; k; v ]

let upsample t ?name ~factor x =
  add_node t ?name ~op:(Op.Upsample { factor }) [ x ]

let reshape t ?name dims x = add_node t ?name ~op:(Op.Reshape dims) [ x ]

let transpose_last_two t ?name x =
  add_node t ?name ~op:Op.Transpose_last_two [ x ]

let output t ?name x = add_node t ?name ~op:Op.Output [ x ]

let validate t =
  let ns = nodes t in
  let check_node acc n =
    match acc with
    | Error _ as e -> e
    | Ok () -> (
      let bad_ref = List.exists (fun i -> i < 0 || i >= n.id) n.inputs in
      if bad_ref then
        Error (Printf.sprintf "node %s: forward or invalid reference" n.node_name)
      else
        match n.op with
        | Op.Input -> Ok ()
        | _ -> (
          let in_shapes = List.map (fun i -> (find t i).out_shape) n.inputs in
          try
            let s = Op.infer_shape n.op in_shapes in
            if Shape.equal s n.out_shape then Ok ()
            else
              Error
                (Printf.sprintf "node %s: stored shape %s but inferred %s"
                   n.node_name
                   (Shape.to_string n.out_shape)
                   (Shape.to_string s))
          with Invalid_argument msg ->
            Error (Printf.sprintf "node %s: %s" n.node_name msg)))
  in
  let structural = List.fold_left check_node (Ok ()) ns in
  match structural with
  | Error _ as e -> e
  | Ok () ->
    if outputs t = [] then Error "graph has no output node" else Ok ()

let total_params t =
  List.fold_left
    (fun acc n ->
      match n.inputs with
      | [ x ] -> (
        match Op.weight_shape n.op ~input:(find t x).out_shape with
        | Some s -> acc + Shape.numel s
        | None -> acc)
      | _ -> acc)
    0 (nodes t)

let pp_summary ppf t =
  Format.fprintf ppf "graph %s (%s): %d nodes, %d params@." t.graph_name
    (Ascend_arch.Precision.name t.graph_dtype)
    t.count (total_params t);
  List.iter
    (fun n ->
      Format.fprintf ppf "  %3d %-14s %-18s <- [%s] %s@." n.id n.node_name
        (Op.name n.op)
        (String.concat "," (List.map string_of_int n.inputs))
        (Shape.to_string n.out_shape))
    (nodes t)
