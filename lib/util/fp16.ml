type t = int

let bits h = h land 0xffff

let zero = 0x0000
let one = 0x3c00

let min_positive_subnormal = 5.9604644775390625e-08 (* 2^-24 *)
let min_positive_normal = 6.103515625e-05 (* 2^-14 *)
let epsilon = 0.0009765625 (* 2^-10 *)

let is_nan h =
  let h = bits h in
  h land 0x7c00 = 0x7c00 && h land 0x03ff <> 0

let is_inf h =
  let h = bits h in
  h land 0x7fff = 0x7c00

let is_subnormal h =
  let h = bits h in
  h land 0x7c00 = 0 && h land 0x03ff <> 0

let neg h = bits h lxor 0x8000

(* Conversion via the binary32 bit pattern: decompose the float's sign,
   exponent and mantissa, then re-round the 23-bit mantissa to 10 bits with
   round-to-nearest-even, handling subnormal and overflow ranges. *)
let of_float x =
  let b32 = Int32.bits_of_float x in
  let b = Int32.to_int (Int32.shift_right_logical b32 16) land 0xffff in
  let sign = b land 0x8000 in
  let b32 = Int32.to_int (Int32.logand b32 0x7fffffffl) in
  let exp32 = b32 lsr 23 in
  let mant32 = b32 land 0x7fffff in
  if exp32 = 0xff then
    (* inf or nan: keep a quiet-nan payload bit if any mantissa bit set *)
    if mant32 = 0 then sign lor 0x7c00 else sign lor 0x7e00
  else
    (* unbiased exponent *)
    let e = exp32 - 127 in
    if e > 15 then
      (* |x| >= 65536 always overflows; 65504 < |x| < 65536 has e = 15 and
         overflows through the rounding carry in the branch below *)
      sign lor 0x7c00
    else if e >= -14 then (
      (* normal fp16 range: round 23-bit mantissa to 10 bits *)
      let exp16 = e + 15 in
      let shift = 13 in
      let mant = mant32 lsr shift in
      let rem = mant32 land ((1 lsl shift) - 1) in
      let half = 1 lsl (shift - 1) in
      let mant =
        if rem > half || (rem = half && mant land 1 = 1) then mant + 1
        else mant
      in
      (* mantissa carry can bump the exponent (and possibly overflow) *)
      let v = (exp16 lsl 10) + mant in
      if v >= 0x7c00 then sign lor 0x7c00 else sign lor v)
    else if e >= -25 then (
      (* subnormal fp16: implicit leading 1 becomes explicit, shifted right *)
      let mant32 = mant32 lor 0x800000 in
      let shift = 13 + (-14 - e) in
      if shift >= 32 then sign
      else
        let mant = mant32 lsr shift in
        let rem = mant32 land ((1 lsl shift) - 1) in
        let half = 1 lsl (shift - 1) in
        let mant =
          if rem > half || (rem = half && mant land 1 = 1) then mant + 1
          else mant
        in
        sign lor mant)
    else (* underflow to signed zero *) sign

let to_float h =
  let h = bits h in
  let sign = if h land 0x8000 <> 0 then -1. else 1. in
  let exp = (h lsr 10) land 0x1f in
  let mant = h land 0x3ff in
  if exp = 0x1f then
    if mant = 0 then sign *. infinity else nan
  else if exp = 0 then sign *. float_of_int mant *. 0x1p-24
  else sign *. (float_of_int (mant lor 0x400)) *. (2. ** float_of_int (exp - 25))

let round_float x = to_float (of_float x)
