module Graph = Ascend_nn.Graph
module Op = Ascend_nn.Op
module Shape = Ascend_tensor.Shape

type allocation = {
  node_id : int;
  node_name : string;
  offset : int;
  size_bytes : int;
  first_use : int;
  last_use : int;
}

type plan = {
  allocations : allocation list;
  peak_bytes : int;
  weight_bytes : int;
}

let last_use g (n : Graph.node) =
  let consumers = Graph.consumers g n.id in
  List.fold_left
    (fun acc (c : Graph.node) -> max acc c.id)
    n.id consumers

let overlaps a b =
  (* live ranges are inclusive intervals over node ids *)
  a.first_use <= b.last_use && b.first_use <= a.last_use

let plan g =
  let nodes = Graph.nodes g in
  let weight_bytes =
    List.fold_left
      (fun acc (n : Graph.node) ->
        match n.inputs with
        | [ x ] -> (
          match Op.weight_shape n.op ~input:(Graph.find g x).out_shape with
          | Some ws -> acc + Shape.bytes ws ~dtype:n.dtype
          | None -> acc)
        | _ -> acc)
      0 nodes
  in
  (* first-fit by definition order: place each buffer at the lowest offset
     not overlapping any already-placed buffer whose live range intersects *)
  let placed = ref [] in
  let alloc (n : Graph.node) =
    let size_bytes = Shape.bytes n.out_shape ~dtype:n.dtype in
    let live = { node_id = n.id; node_name = n.node_name; offset = 0;
                 size_bytes; first_use = n.id; last_use = last_use g n }
    in
    let conflicting =
      List.filter (fun a -> overlaps a live) !placed
      |> List.sort (fun a b -> compare a.offset b.offset)
    in
    let rec fit offset = function
      | [] -> offset
      | a :: rest ->
        if offset + size_bytes <= a.offset then offset
        else fit (max offset (a.offset + a.size_bytes)) rest
    in
    let offset = fit 0 conflicting in
    let a = { live with offset } in
    placed := a :: !placed;
    a
  in
  let allocations = List.map alloc nodes in
  let peak_bytes =
    List.fold_left (fun acc a -> max acc (a.offset + a.size_bytes)) 0 allocations
  in
  { allocations; peak_bytes; weight_bytes }

let validate p =
  let rec pairs = function
    | [] -> Ok ()
    | a :: rest ->
      let bad =
        List.find_opt
          (fun b ->
            overlaps a b
            && a.offset < b.offset + b.size_bytes
            && b.offset < a.offset + a.size_bytes)
          rest
      in
      (match bad with
      | Some b ->
        Error
          (Printf.sprintf "allocations %s and %s overlap in time and space"
             a.node_name b.node_name)
      | None -> pairs rest)
  in
  pairs p.allocations

let total_activation_bytes g =
  List.fold_left
    (fun acc (n : Graph.node) -> acc + Shape.bytes n.out_shape ~dtype:n.dtype)
    0 (Graph.nodes g)

(* KV-cache residency implied by the graph's attention nodes: every
   Kv_attention holds a per-layer cache of (cache_len + tokens) K and V
   rows in device memory across serving steps — state that outlives the
   activation plan and must be budgeted against HBM alongside weights *)
let kv_cache_bytes g =
  List.fold_left
    (fun acc (n : Graph.node) ->
      match n.op with
      | Op.Kv_attention { cache_len; _ } -> (
        match Shape.to_list n.out_shape with
        | [ b; t; h ] ->
          acc + (2 * Shape.bytes (Shape.of_list [ b; cache_len + t; h ])
                     ~dtype:n.dtype)
        | _ -> acc)
      | _ -> acc)
    0 (Graph.nodes g)

let plan_hbm g ~hbm_bytes =
  if hbm_bytes < 1 then invalid_arg "Memory_planner.plan_hbm: hbm_bytes < 1";
  let p = plan g in
  let kv = kv_cache_bytes g in
  let resident = p.weight_bytes + kv + p.peak_bytes in
  if resident > hbm_bytes then
    Error
      (Printf.sprintf
         "graph %s needs %d B resident (weights %d + kv cache %d + \
          activations %d) but HBM holds %d B"
         (Graph.name g) resident p.weight_bytes kv p.peak_bytes hbm_bytes)
  else Ok p
