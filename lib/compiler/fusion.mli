(** Operator fusion: partition the topologically-ordered graph into the
    execution layers the paper's per-layer profiles (Figures 4-8) are
    drawn over.

    A group starts at each cube-anchored node (non-depthwise convolution,
    linear, matmul) and absorbs the vector-executed nodes that follow it
    (normalisation, activation, elementwise, softmax...) until the next
    cube node.  Vector-executed nodes with no preceding cube anchor (e.g.
    MobileNet's depthwise convolutions, BERT's embedding layer-norm) form
    vector-only groups — these are the layers whose cube/vector ratio is
    0 in Figure 6. *)

type kind = Cube_anchored | Vector_only

type t = {
  tag : string;               (** anchor (or first) node name *)
  kind : kind;
  nodes : Ascend_nn.Graph.node list;   (** in topological order *)
  gemms : Ascend_nn.Workload.gemm list;
  vector_elems : float;       (** element-ops on the vector unit *)
  input_bytes : int;          (** unique external input bytes of the group *)
  weight_bytes : int;
  output_bytes : int;         (** external output bytes of the group *)
  img2col_expansion : float;  (** A-side im2col expansion; 1.0 for GEMMs *)
  precision : Ascend_arch.Precision.t;
}

val partition : Ascend_nn.Graph.t -> t list
(** Input/Output/Reshape-style bookkeeping nodes join no group: they are
    in no group's [nodes] and add nothing to its workload (a tensor read
    through one counts as external input bytes).
    Linear in nodes + edges. *)

val of_workloads :
  tag:string -> precision:Ascend_arch.Precision.t ->
  Ascend_nn.Workload.t -> t
(** Build a synthetic group straight from a workload record (used for
    backward-pass layers, which have no graph nodes). *)

val pp : Format.formatter -> t -> unit
