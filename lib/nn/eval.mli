(** Numeric forward execution of a graph on reference tensors — the golden
    model the compiled/simulated path is validated against, and the
    engine behind the runnable examples.

    [Reshape] nodes reinterpret storage in row-major order (exactly what
    the zoo builders assume for attention head split/merge). *)

type params
(** Learned tensors keyed by node name. *)

val random_params : ?seed:int -> Graph.t -> params
(** He/Glorot-style initialisation appropriate to each op. *)

val find_param : params -> string -> Ascend_tensor.Tensor.t option

val run :
  Graph.t -> params ->
  inputs:(string * Ascend_tensor.Tensor.t) list ->
  (string * Ascend_tensor.Tensor.t) list
(** Evaluate every node; returns (name, tensor) for each [Output] node.
    Raises [Invalid_argument] on missing inputs or shape mismatches. *)

val run_all :
  Graph.t -> params ->
  inputs:(string * Ascend_tensor.Tensor.t) list ->
  (int * Ascend_tensor.Tensor.t) list
(** Like {!run} but returns every node's value keyed by node id — used by
    tests that compare intermediate values against reference operators. *)
