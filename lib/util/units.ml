let kib = 1024
let mib = 1024 * 1024

let kb = 1_000
let mb = 1_000_000
let gb = 1_000_000_000
let tb = 1_000_000_000_000

let giga = 1e9
let tera = 1e12

let bytes_per_cycle_of_gbps ~bandwidth_gb_s ~frequency_ghz =
  bandwidth_gb_s /. frequency_ghz

let seconds_of_cycles ~cycles ~frequency_ghz =
  float_of_int cycles /. (frequency_ghz *. giga)

let pp_scaled ~scales ~unit ppf v =
  let rec pick v = function
    | [] -> (v, "")
    | (factor, suffix) :: rest ->
      if Float.abs v >= factor then (v /. factor, suffix) else pick v rest
  in
  let v', suffix = pick v scales in
  if Float.abs v' >= 100. then Format.fprintf ppf "%.0f %s%s" v' suffix unit
  else if Float.abs v' >= 10. then Format.fprintf ppf "%.1f %s%s" v' suffix unit
  else Format.fprintf ppf "%.2f %s%s" v' suffix unit

let binary_scales =
  [ (1024. ** 4., "TiB"); (1024. ** 3., "GiB"); (1024. ** 2., "MiB"); (1024., "KiB") ]

let pp_bytes ppf n =
  let v = float_of_int n in
  if Float.abs v < 1024. then Format.fprintf ppf "%d B" n
  else
    let rec pick v = function
      | [] -> Format.fprintf ppf "%d B" n
      | (factor, suffix) :: rest ->
        if Float.abs v >= factor then Format.fprintf ppf "%.1f %s" (v /. factor) suffix
        else pick v rest
    in
    pick v binary_scales

let decimal_scales = [ (1e15, "P"); (1e12, "T"); (1e9, "G"); (1e6, "M"); (1e3, "K") ]

let pp_rate ppf v = pp_scaled ~scales:decimal_scales ~unit:"B/s" ppf v

let pp_flops ppf v =
  pp_scaled ~scales:decimal_scales ~unit:"FLOPS" ppf v

let pp_seconds ppf v =
  if Float.abs v >= 1. then Format.fprintf ppf "%.2f s" v
  else if Float.abs v >= 1e-3 then Format.fprintf ppf "%.2f ms" (v *. 1e3)
  else if Float.abs v >= 1e-6 then Format.fprintf ppf "%.2f us" (v *. 1e6)
  else Format.fprintf ppf "%.1f ns" (v *. 1e9)
