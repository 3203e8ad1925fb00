(** Ascend core design points (paper Table 5).

    One normalized architecture, five configurations.  Buffer capacities
    are not disclosed in the paper; we use the publicly documented
    DaVinci-generation values for the large cores and scale them for Lite
    and Tiny (see DESIGN.md substitution table). *)

type version = Tiny | Lite | Mini | Standard | Max

type cube_dims = { m : int; k : int; n : int }
(** The matrix tile one cube instruction consumes per cycle, as an
    m*k by k*n product (fp16 sources).  16x16x16 for the large cores,
    4x16x16 for Lite (batch-1 utilisation, paper §3.2), 4x32x4 for Tiny. *)

type buffers = {
  l0a_bytes : int;  (** input feature-map tile buffer, feeds cube side A *)
  l0b_bytes : int;  (** weight tile buffer, feeds cube side B *)
  l0c_bytes : int;  (** accumulator / output tile buffer *)
  l1_bytes : int;   (** per-core staging buffer loaded via the BIU *)
  ub_bytes : int;   (** unified buffer: cube-vector pipeline + vector + output *)
}

type bandwidth = {
  l1_to_l0a : int;  (** bytes/cycle, asymmetric vs l0b (paper §2.5) *)
  l1_to_l0b : int;  (** bytes/cycle *)
  ub_port : int;    (** bytes/cycle on the unified-buffer port *)
  llc_gb_s : float option;
      (** LLC bandwidth per core in GB/s (Table 5 last column); [None] for
          Tiny, which has no LLC behind it. *)
}

type t = {
  version : version;
  name : string;
  frequency_ghz : float;
  cube : cube_dims;
  native_precision : Precision.t;
  supported_precisions : Precision.t list;
  vector_width_bytes : int;
  buffers : buffers;
  bandwidth : bandwidth;
  scalar_flops_per_cycle : int;
  duplex_ub_vector : bool;
      (** duplex datapath between unified buffer and vector unit, needed for
          training backward passes (paper §3.1). *)
}

val tiny : t
val lite : t
val mini : t
val standard : t
val max : t

val hpc_prototype : t
(** The §7.2 future-work design point: a Max core whose cube also
    accepts fp32 sources at half rate (16x8x16 effective tile) — used by
    the HPC ablation bench, not part of {!all}. *)

(** The five shipped design points (Table 5). *)
val all : t list

val cube_macs : t -> int
(** m*k*n at native precision. *)

val flops_per_cycle : t -> precision:Precision.t -> int
(** MAC throughput x2 per cycle at the given precision; 0 if the precision
    is not supported by the cube of this version. *)

val peak_flops : t -> precision:Precision.t -> float
(** flops_per_cycle x frequency. *)

val supports : t -> Precision.t -> bool

val cube_dims_at : t -> precision:Precision.t -> cube_dims
(** The effective cube tile at a precision: the int8 datapath doubles the
    k dimension of an fp16-native cube (16x16x16 -> 16x32x16, §2.1) and
    int4 quadruples it.  Raises [Invalid_argument] if unsupported. *)

val cube_tile_cycles : t -> ?precision:Precision.t -> m:int -> k:int -> n:int -> unit -> int
(** Cycles for one cube instruction over an m x k x n GEMM tile:
    ceil(m/Cm) * ceil(k/Ck) * ceil(n/Cn) at the effective cube dims
    (default native precision). *)

val llc_bytes_per_cycle : t -> float
(** Per-core LLC bandwidth expressed in bytes/cycle; 0 when absent. *)

val pp : Format.formatter -> t -> unit
