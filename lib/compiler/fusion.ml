module Graph = Ascend_nn.Graph
module Op = Ascend_nn.Op
module Workload = Ascend_nn.Workload
module Shape = Ascend_tensor.Shape

type kind = Cube_anchored | Vector_only

type t = {
  tag : string;
  kind : kind;
  nodes : Graph.node list;
  gemms : Workload.gemm list;
  vector_elems : float;
  input_bytes : int;
  weight_bytes : int;
  output_bytes : int;
  img2col_expansion : float;
  precision : Ascend_arch.Precision.t;
}

let is_anchor (n : Graph.node) = Op.is_cube_op n.op

let is_bookkeeping (n : Graph.node) =
  match n.op with
  | Op.Input | Op.Output | Op.Reshape _ -> true
  | _ -> false

let expansion_of_anchor g (n : Graph.node) =
  match n.op with
  | Op.Conv2d { kh; kw; stride; _ } -> (
    match n.inputs with
    | [ x ] ->
      let input = (Graph.find g x).out_shape in
      let h = Shape.dim input 2 and w = Shape.dim input 3 in
      let oh = Shape.dim n.out_shape 2 and ow = Shape.dim n.out_shape 3 in
      ignore stride;
      float_of_int (oh * ow * kh * kw) /. float_of_int (h * w)
    | _ -> 1.)
  | _ -> 1.

(* [owner.(id)] is the index of the group node [id] was placed in (-1
   when none yet), so "is this input produced inside the group?" is one
   array read and the whole partition is linear in nodes + edges *)
let finish g owner index group_nodes =
  match group_nodes with
  | [] -> None
  | first :: _ ->
    List.iter (fun (n : Graph.node) -> owner.(n.id) <- index) group_nodes;
    let anchor = if is_anchor first then Some first else None in
    let tag =
      match anchor with Some a -> a.node_name | None -> first.node_name
    in
    let precision = first.dtype in
    (* one pass in node order (the float sum of vector work depends on
       it): the workload fold, the external input bytes (tensors
       produced outside the group) and the last node, whose product is
       the group's external output (its consumers are outside) *)
    let combined, input_bytes, last =
      List.fold_left
        (fun (w, bytes, _) (n : Graph.node) ->
          let bytes =
            List.fold_left
              (fun acc i ->
                if owner.(i) = index then acc
                else acc + Shape.bytes (Graph.find g i).out_shape ~dtype:n.dtype)
              bytes n.inputs
          in
          (Workload.combine w (Workload.of_node g n), bytes, n))
        (Workload.zero, 0, first) group_nodes
    in
    let output_bytes = Shape.bytes last.out_shape ~dtype:last.dtype in
    let img2col_expansion =
      match anchor with Some a -> expansion_of_anchor g a | None -> 1.
    in
    Some
      {
        tag;
        kind = (match anchor with Some _ -> Cube_anchored | None -> Vector_only);
        nodes = group_nodes;
        gemms = combined.gemms;
        vector_elems = combined.vector_elems;
        input_bytes;
        weight_bytes = combined.weight_bytes;
        output_bytes;
        img2col_expansion;
        precision;
      }

let partition g =
  let owner = Array.make (Graph.node_count g) (-1) in
  let groups = ref 0 in
  let close acc current =
    incr groups;
    match finish g owner !groups (List.rev current) with
    | Some grp -> grp :: acc
    | None -> acc
  in
  let rec split acc current = function
    | [] -> List.rev (close acc current)
    | n :: rest when is_bookkeeping n -> split acc current rest
    | n :: rest ->
      if is_anchor n then split (close acc current) [ n ] rest
      else split acc (n :: current) rest
  in
  split [] [] (Graph.nodes g)

let of_workloads ~tag ~precision (w : Workload.t) =
  {
    tag;
    kind = (if w.gemms = [] then Vector_only else Cube_anchored);
    nodes = [];
    gemms = w.gemms;
    vector_elems = w.vector_elems;
    input_bytes = w.input_bytes;
    weight_bytes = w.weight_bytes;
    output_bytes = w.output_bytes;
    img2col_expansion = 1.;
    precision;
  }

let pp ppf t =
  Format.fprintf ppf "%-24s %-13s %d nodes, %d GEMMs, %.2f Mvec-elems" t.tag
    (match t.kind with Cube_anchored -> "cube" | Vector_only -> "vector-only")
    (List.length t.nodes) (List.length t.gemms)
    (t.vector_elems /. 1e6)
