type version = Tiny | Lite | Mini | Standard | Max

type cube_dims = { m : int; k : int; n : int }

type buffers = {
  l0a_bytes : int;
  l0b_bytes : int;
  l0c_bytes : int;
  l1_bytes : int;
  ub_bytes : int;
}

type bandwidth = {
  l1_to_l0a : int;
  l1_to_l0b : int;
  ub_port : int;
  llc_gb_s : float option;
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
}

let kib = Ascend_util.Units.kib

(* The three large cores share the 16x16x16 cube and 256 B vector
   (Table 5); they differ in LLC bandwidth per core (910/610/310 rows)
   and in the duplex UB-vector path reserved for the training part. *)
let large ~version ~name ~llc_gb_s ~duplex ~precisions =
  {
    version;
    name;
    frequency_ghz = 1.0;
    cube = { m = 16; k = 16; n = 16 };
    native_precision = Precision.Fp16;
    supported_precisions = precisions;
    vector_width_bytes = 256;
    buffers =
      {
        l0a_bytes = 64 * kib;
        l0b_bytes = 64 * kib;
        l0c_bytes = 256 * kib;
        l1_bytes = 1024 * kib;
        ub_bytes = 256 * kib;
      };
    bandwidth =
      (* A: 4 TB/s, B: 2 TB/s, UB: 2 TB/s at 1 GHz (Table 5) *)
      { l1_to_l0a = 4096; l1_to_l0b = 2048; ub_port = 2048; llc_gb_s = Some llc_gb_s };
    scalar_flops_per_cycle = 2;
    duplex_ub_vector = duplex;
  }

let max =
  large ~version:Max ~name:"Ascend-Max" ~llc_gb_s:94. ~duplex:true
    ~precisions:[ Precision.Fp16; Precision.Int8 ]

let standard =
  (* the automotive part adds int4 (paper §3.3) *)
  large ~version:Standard ~name:"Ascend" ~llc_gb_s:111. ~duplex:false
    ~precisions:[ Precision.Fp16; Precision.Int8; Precision.Int4 ]

let mini =
  large ~version:Mini ~name:"Ascend-Mini" ~llc_gb_s:96. ~duplex:false
    ~precisions:[ Precision.Fp16; Precision.Int8 ]

let lite =
  {
    version = Lite;
    name = "Ascend-Lite";
    frequency_ghz = 0.75;
    (* 4x16x16: the small m dimension keeps MAC utilisation high at
       batch size 1 (paper §3.2) *)
    cube = { m = 4; k = 16; n = 16 };
    native_precision = Precision.Fp16;
    supported_precisions = [ Precision.Fp16; Precision.Int8 ];
    vector_width_bytes = 128;
    buffers =
      {
        l0a_bytes = 32 * kib;
        l0b_bytes = 32 * kib;
        l0c_bytes = 128 * kib;
        l1_bytes = 512 * kib;
        ub_bytes = 128 * kib;
      };
    bandwidth =
      (* 768 GB/s on each port at 0.75 GHz = 1024 B/cycle (Table 5) *)
      { l1_to_l0a = 1024; l1_to_l0b = 1024; ub_port = 1024; llc_gb_s = Some 38.4 };
    scalar_flops_per_cycle = 2;
    duplex_ub_vector = false;
  }

let tiny =
  {
    version = Tiny;
    name = "Ascend-Tiny";
    frequency_ghz = 0.75;
    (* 4x32x4 int8 only; fp16 forbidden for the 300 mW power envelope
       (paper §3.2) *)
    cube = { m = 4; k = 32; n = 4 };
    native_precision = Precision.Int8;
    supported_precisions = [ Precision.Int8 ];
    vector_width_bytes = 32;
    buffers =
      {
        l0a_bytes = 16 * kib;
        l0b_bytes = 16 * kib;
        l0c_bytes = 32 * kib;
        l1_bytes = 128 * kib;
        ub_bytes = 64 * kib;
      };
    bandwidth =
      (* A/B: 384 GB/s, UB: 192 GB/s at 0.75 GHz (Table 5) *)
      { l1_to_l0a = 512; l1_to_l0b = 512; ub_port = 256; llc_gb_s = None };
    scalar_flops_per_cycle = 2;
    duplex_ub_vector = false;
  }

(* §7.2 future work: "we would like to apply fp32 in the cube unit to
   adapt to some corner [HPC] applications" — a Max-derived prototype
   whose cube also accepts fp32 sources at half rate *)
let hpc_prototype =
  {
    max with
    name = "Ascend-HPC (prototype)";
    supported_precisions = [ Precision.Fp32; Precision.Fp16; Precision.Int8 ];
  }

let all = [ tiny; lite; mini; standard; max ]

let cube_macs t = t.cube.m * t.cube.k * t.cube.n

let supports t precision =
  List.exists (Precision.equal precision) t.supported_precisions

let flops_per_cycle t ~precision =
  if not (supports t precision) then 0
  else
    (* the int8 datapath doubles and int4 quadruples MAC count relative to
       the native fp16 cube; fp32 (the §7.2 HPC extension) runs at half
       rate; for Tiny the cube is natively int8 *)
    let base = cube_macs t * 2 in
    match (t.native_precision, precision) with
    | Precision.Fp16, Precision.Fp32 -> base / 2
    | Precision.Fp16, p -> base * Precision.macs_multiplier p
    | Precision.Int8, Precision.Int8 -> base
    | Precision.Int8, p -> base * Precision.macs_multiplier p / 2
    | _, _ -> base

let peak_flops t ~precision =
  float_of_int (flops_per_cycle t ~precision) *. t.frequency_ghz *. Ascend_util.Units.giga

let cube_dims_at t ~precision =
  if not (supports t precision) then
    invalid_arg
      (Printf.sprintf "Config.cube_dims_at: %s unsupported on %s"
         (Precision.name precision) t.name);
  match (t.native_precision, precision) with
  | Precision.Fp16, Precision.Fp32 ->
    (* half-rate fp32: the k dimension halves (16x8x16) *)
    { t.cube with k = Stdlib.max 1 (t.cube.k / 2) }
  | native, p ->
    let scale =
      match (native, p) with
      | Precision.Fp16, p -> Precision.macs_multiplier p
      | Precision.Int8, Precision.Int8 -> 1
      | Precision.Int8, p -> Stdlib.max 1 (Precision.macs_multiplier p / 2)
      | _, _ -> 1
    in
    { t.cube with k = t.cube.k * scale }

let cube_tile_cycles t ?precision ~m ~k ~n () =
  let precision =
    match precision with Some p -> p | None -> t.native_precision
  in
  let dims = cube_dims_at t ~precision in
  let div = Ascend_util.Stats.divide_round_up in
  div m dims.m * div k dims.k * div n dims.n

let llc_bytes_per_cycle t =
  match t.bandwidth.llc_gb_s with
  | None -> 0.
  | Some gbps ->
    Ascend_util.Units.bytes_per_cycle_of_gbps ~bandwidth_gb_s:gbps
      ~frequency_ghz:t.frequency_ghz

let pp ppf t =
  Format.fprintf ppf
    "%s: %.2f GHz, cube %dx%dx%d (%d MACs, %d %s-FLOPS/cycle), vector %d B, \
     L1 %d KiB, UB %d KiB"
    t.name t.frequency_ghz t.cube.m t.cube.k t.cube.n (cube_macs t)
    (flops_per_cycle t ~precision:t.native_precision)
    (Precision.name t.native_precision)
    t.vector_width_bytes
    (t.buffers.l1_bytes / kib)
    (t.buffers.ub_bytes / kib)
