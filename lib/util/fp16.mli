(** IEEE 754 binary16 (half precision) encode/decode.

    The Ascend cube unit consumes fp16 sources and produces fp32
    destinations (paper §2.1).  This codec lets the numeric executor and
    the quantisation pipeline round values through fp16 exactly as the
    hardware datapath would. *)

type t = int
(** A half-precision value stored in the low 16 bits of an [int]. *)

val of_float : float -> t
(** Round a double to the nearest half-precision value (round to nearest,
    ties to even), with overflow to infinity and subnormal support. *)

val to_float : t -> float
(** Exact widening conversion. *)

val round_float : float -> float
(** [round_float x] is [to_float (of_float x)]: the value [x] takes after
    passing through an fp16 register. *)

val is_nan : t -> bool
val is_inf : t -> bool
val is_subnormal : t -> bool

val neg : t -> t

val zero : t
val one : t

val min_positive_subnormal : float
val min_positive_normal : float

val epsilon : float
(** Machine epsilon of fp16, [2. ** -10.]. *)

val bits : t -> int
(** Raw bit pattern, masked to 16 bits. *)
