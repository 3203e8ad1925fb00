type t = Fp32 | Fp16 | Int32 | Int8 | Int4

let size_bytes = function
  | Fp32 | Int32 -> 4.
  | Fp16 -> 2.
  | Int8 -> 1.
  | Int4 -> 0.5

let size_bits = function
  | Fp32 | Int32 -> 32
  | Fp16 -> 16
  | Int8 -> 8
  | Int4 -> 4

let name = function
  | Fp32 -> "fp32"
  | Fp16 -> "fp16"
  | Int32 -> "int32"
  | Int8 -> "int8"
  | Int4 -> "int4"

let pp ppf t = Format.pp_print_string ppf (name t)

let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b

let all = [ Fp32; Fp16; Int32; Int8; Int4 ]

let is_integer = function Int32 | Int8 | Int4 -> true | Fp32 | Fp16 -> false

let accumulator = function
  | Fp16 -> Fp32
  | Fp32 -> Fp32
  | Int8 | Int4 | Int32 -> Int32

let macs_multiplier = function
  | Fp16 -> 1
  | Int8 -> 2
  | Int4 -> 4
  | Fp32 | Int32 -> 0
