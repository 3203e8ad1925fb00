(** External-memory channel models: the HBM subsystem behind the Ascend
    910 I/O die (4 stacks, 1.2 TB/s total) and LPDDR-class channels for
    the mobile and automotive parts.  Bandwidth is shared max-min among
    requestors; latency inflates with utilisation. *)

type t = {
  kind : string;
  channels : int;
  bandwidth_per_channel : float;  (** bytes/s *)
  base_latency_ns : float;
}

val hbm2_ascend910 : t
(** 4 stacks x 300 GB/s = 1.2 TB/s, ~120 ns loaded-idle latency. *)

val lpddr4_mobile : t
(** 4 x 10.7 GB/s = 42.7 GB/s (Kirin 990-class). *)

val lpddr5_automotive : t
(** 4 x 25.6 GB/s (Ascend 610-class). *)

val total_bandwidth : t -> float

val share :
  t -> demands:float array -> float array
(** Max-min fair allocation of the total bandwidth. *)

val loaded_latency_ns : t -> utilization:float -> float
