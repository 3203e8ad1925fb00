(** Unit conversions and human-readable formatting for the quantities the
    paper reasons in: bytes, bandwidths, FLOPS, frequencies, energy. *)

val kib : int
val mib : int

val kb : int
(** 10^3 bytes — the paper quotes bandwidths in decimal units. *)

val mb : int
val gb : int
val tb : int

val giga : float
val tera : float

val bytes_per_cycle_of_gbps : bandwidth_gb_s:float -> frequency_ghz:float -> float
(** Convert a bandwidth in GB/s into bytes per clock cycle at a core
    frequency in GHz.  E.g. 4 TB/s at 1 GHz is 4096 B/cycle. *)

val seconds_of_cycles : cycles:int -> frequency_ghz:float -> float

val pp_bytes : Format.formatter -> int -> unit
(** Binary-scaled, e.g. "64 KiB", "1.0 MiB". *)

val pp_rate : Format.formatter -> float -> unit
(** Decimal-scaled per-second rate, e.g. "1.2 TB/s" for bytes,
    "8.0 T" for FLOPS (caller appends the unit name). *)

val pp_flops : Format.formatter -> float -> unit
(** e.g. "256.0 TFLOPS". *)

val pp_seconds : Format.formatter -> float -> unit
(** e.g. "1.81 ms", "83 s". *)
