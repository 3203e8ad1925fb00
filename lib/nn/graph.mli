(** DNN computation graphs ("Graph" in the paper's software stack, §5.1):
    a DAG of operator nodes with inferred shapes, built through a typed
    builder API.  Node creation order is a valid topological order. *)

type node = private {
  id : int;
  node_name : string;
  op : Op.t;
  inputs : int list;       (** ids of producer nodes *)
  out_shape : Ascend_tensor.Shape.t;
  dtype : Ascend_arch.Precision.t;
}

type t

val create : name:string -> dtype:Ascend_arch.Precision.t -> t
val name : t -> string
val dtype : t -> Ascend_arch.Precision.t

val nodes : t -> node list
(** In topological (creation) order. *)

val node_count : t -> int

val find : t -> int -> node
(** O(1).  Raises [Invalid_argument] for an id the graph does not hold. *)

val consumers : t -> int -> node list
(** The nodes reading [id], in creation order, each once; [[]] for an
    unknown id.  The first call indexes every edge (linear); later calls
    cost the node's out-degree until the graph grows again. *)

val outputs : t -> node list

(** {2 Builders} — each returns the new node's id.  [?name] defaults to
    ["<op><id>"]. *)

val input : t -> ?name:string -> Ascend_tensor.Shape.t -> int

val conv2d :
  t -> ?name:string -> ?stride:int -> ?padding:int -> ?groups:int ->
  cout:int -> k:int -> int -> int

val conv2d_rect :
  t -> ?name:string -> ?stride:int -> ?padding:int -> ?groups:int ->
  cout:int -> kh:int -> kw:int -> int -> int

val depthwise_conv2d :
  t -> ?name:string -> ?stride:int -> ?padding:int -> k:int -> int -> int
(** groups = channels. *)

val linear : t -> ?name:string -> out_features:int -> int -> int
val matmul : t -> ?name:string -> ?transpose_b:bool -> int -> int -> int
val max_pool : t -> ?name:string -> kernel:int -> stride:int -> int -> int
val avg_pool : t -> ?name:string -> kernel:int -> stride:int -> int -> int
val global_avg_pool : t -> ?name:string -> int -> int
val activation : t -> ?name:string -> Op.activation -> int -> int
val relu : t -> ?name:string -> int -> int
val relu6 : t -> ?name:string -> int -> int
val gelu : t -> ?name:string -> int -> int
val batch_norm : t -> ?name:string -> int -> int
val layer_norm : t -> ?name:string -> int -> int
val softmax : t -> ?name:string -> int -> int
val add : t -> ?name:string -> int -> int -> int
val mul : t -> ?name:string -> int -> int -> int
val concat : t -> ?name:string -> axis:int -> int list -> int
val embedding : t -> ?name:string -> vocab_size:int -> hidden:int -> int -> int

val kv_attention :
  t -> ?name:string -> heads:int -> cache_len:int -> int -> int -> int -> int
(** [kv_attention g ~heads ~cache_len q k v]: causal multi-head attention
    of the (projected) q/k/v chunk against a KV cache of [cache_len]
    positions — see {!Op.Kv_attention}. *)

val upsample : t -> ?name:string -> factor:int -> int -> int
val reshape : t -> ?name:string -> int list -> int -> int
val transpose_last_two : t -> ?name:string -> int -> int
val output : t -> ?name:string -> int -> int

val add_node : t -> ?name:string -> op:Op.t -> int list -> int
(** Generic node insertion with shape inference; the typed builders above
    all route through this. *)

val validate : t -> (unit, string) result
(** Checks reference integrity, acyclicity (by construction), single
    output presence, and re-runs shape inference on every node. *)

val total_params : t -> int
(** Learned parameter element count. *)

val pp_summary : Format.formatter -> t -> unit
