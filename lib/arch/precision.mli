(** Numeric precisions supported by the Ascend datapath (paper §2.1, §3.3).

    The cube consumes fp16 (extensible to int8 / int4 on inference parts)
    and accumulates in fp32; the vector unit handles precision conversion
    (quantise / dequantise among int32, fp16, int8). *)

type t = Fp32 | Fp16 | Int32 | Int8 | Int4

val size_bytes : t -> float
(** Storage size in bytes; [Int4] is 0.5. *)

val size_bits : t -> int

val name : t -> string
val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
val compare : t -> t -> int

val all : t list

val is_integer : t -> bool

val accumulator : t -> t
(** The accumulation precision the cube uses for a given source precision:
    fp16 -> fp32, int8/int4 -> int32 (paper §2.1 and Table 4 note). *)

val macs_multiplier : t -> int
(** Relative MAC throughput versus fp16 on the same cube datapath:
    fp16 = 1, int8 = 2 (16x32x16 extension, paper §2.1), int4 = 4
    (§3.3), fp32 = 0 (not supported by the cube; vector-assisted). *)
