(** Fat-tree cluster network (paper §4.2: 256 servers connected with a
    fat-tree; 100 Gb/s links between servers).

    Modeled as a two-level folded Clos with full bisection: leaf switches
    of [servers_per_leaf] downlinks each, enough spine capacity that the
    network is non-blocking at the server-link rate.  What matters to the
    training model is per-server injection bandwidth and the hop-count
    latency ladder. *)

type t

val create :
  ?server_link_gbps:float -> ?servers_per_leaf:int -> servers:int -> unit -> t
(** Defaults: 100 Gb/s server links, 16 servers per leaf. *)

val ascend_cluster : t
(** 256 servers (2048 chips), the paper's flagship cluster. *)

val servers : t -> int
val leaves : t -> int
val server_bandwidth : t -> float
(** bytes/s of one server's network interface. *)

val bisection_bandwidth : t -> float

val latency_us : t -> src:int -> dst:int -> float
(** ~1 us within a leaf, ~3 us across the spine (switch + serialisation
    at cluster scale). *)
