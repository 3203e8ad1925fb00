module Config = Ascend_arch.Config
module Precision = Ascend_arch.Precision
module I = Ascend_isa.Instruction
module Buffer_id = Ascend_isa.Buffer_id
module Pipe = Ascend_isa.Pipe
module Program = Ascend_isa.Program

type kernel = {
  kernel_name : string;
  generate : Config.t -> Program.t;
}

let f_in = 0 (* producer -> consumer: input staged *)
let f_in_free = 1 (* consumer -> producer: input slot reusable *)
let f_out = 2 (* Vector -> MTE3: output ready *)
let f_out_free = 3 (* MTE3 -> Vector: output slot stored *)
let f_ub_free = 4 (* MTE3 -> Vector: UB drain slot stored (transpose) *)

let div_up = Ascend_util.Stats.divide_round_up

(* declare exactly what the instruction stream allocates (cross-checked
   by Ascend_verify's independent peak recomputation) *)
let finish ~name instrs =
  let p = Program.make ~name instrs in
  { p with Program.buffer_peak = Program.(derived_buffer_peak (sync p)) }

(* row-granular streamed kernel: [passes] vector sweeps per chunk of
   whole rows, double-buffered through UB ring slots — input ring 0..1,
   working/output ring 2..3 (the first pass reads the input slot and
   writes the working slot; later passes update the working slot in
   place; MTE3 stores from the working slot) *)
let row_kernel ~name ~rows ~cols ~dtype ~passes =
  if rows <= 0 || cols <= 0 then invalid_arg (name ^ ": empty matrix");
  let generate (config : Config.t) =
    let row_bytes =
      int_of_float (ceil (float_of_int cols *. Precision.size_bytes dtype))
    in
    let budget = config.buffers.ub_bytes / 4 in
    if row_bytes > budget then
      invalid_arg
        (Printf.sprintf "%s: a %d-byte row exceeds the UB budget %d" name
           row_bytes budget);
    let rows_per_chunk = max 1 (budget / row_bytes) in
    let chunks = div_up rows rows_per_chunk in
    let instrs = ref [] in
    let emit i = instrs := i :: !instrs in
    emit (I.Scalar_op { cycles = 4 });
    for c = 0 to chunks - 1 do
      let rows_here = min rows_per_chunk (rows - (c * rows_per_chunk)) in
      let bytes = rows_here * row_bytes in
      let in_slot = c mod 2 in
      let work_slot = 2 + (c mod 2) in
      if c >= 2 then
        emit (I.wait_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte2 ~flag:f_in_free);
      emit
        (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.Ub ~dst_slot:in_slot
           ~bytes ());
      emit (I.set_flag ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Vector ~flag:f_in);
      emit (I.wait_flag ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Vector ~flag:f_in);
      if c >= 2 then
        emit (I.wait_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_out_free);
      List.iteri
        (fun pi pass_name ->
          emit
            (I.vector_op ~op_name:pass_name ~bytes
               ~ub_in_slot:(if pi = 0 then in_slot else work_slot)
               ~ub_out_slot:work_slot ()))
        passes;
      emit (I.set_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte2 ~flag:f_in_free);
      emit (I.set_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 ~flag:f_out);
      emit (I.wait_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 ~flag:f_out);
      emit
        (I.mte_move ~src:Buffer_id.Ub ~dst:Buffer_id.External
           ~src_slot:work_slot ~bytes ());
      emit (I.set_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_out_free)
    done;
    (* drain the ring-release flags so the program is flag-clean *)
    for _ = 1 to min chunks 2 do
      emit (I.wait_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte2 ~flag:f_in_free);
      emit (I.wait_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_out_free)
    done;
    finish ~name (List.rev !instrs)
  in
  { kernel_name = name; generate }

let softmax ~rows ~cols ?(dtype = Precision.Fp16) () =
  row_kernel
    ~name:(Printf.sprintf "softmax_%dx%d" rows cols)
    ~rows ~cols ~dtype
    ~passes:[ "rowmax"; "sub_exp"; "rowsum"; "divide" ]

let layer_norm ~rows ~cols ?(dtype = Precision.Fp16) () =
  row_kernel
    ~name:(Printf.sprintf "layernorm_%dx%d" rows cols)
    ~rows ~cols ~dtype
    ~passes:[ "mean"; "center"; "variance"; "rsqrt_scale"; "affine" ]

let transpose ~rows ~cols ?(dtype = Precision.Fp16) () =
  if rows <= 0 || cols <= 0 then invalid_arg "transpose: empty matrix";
  let name = Printf.sprintf "transpose_%dx%d" rows cols in
  let f_l1_free = 1 (* MTE1 -> MTE2: L1 tile slot consumed *) in
  let generate (config : Config.t) =
    let total =
      int_of_float (ceil (float_of_int (rows * cols) *. Precision.size_bytes dtype))
    in
    (* tile so the transposed block double-buffers in L0A *)
    let tile_bytes = config.buffers.l0a_bytes / 2 in
    let tiles = max 1 (div_up total tile_bytes) in
    let chunk = div_up total tiles in
    let instrs = ref [] in
    let emit i = instrs := i :: !instrs in
    emit (I.Scalar_op { cycles = 4 });
    for t = 0 to tiles - 1 do
      let bytes = min chunk (total - (t * chunk)) in
      let slot = t mod 2 in
      if t >= 2 then
        emit (I.wait_flag ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 ~flag:f_l1_free);
      emit
        (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1 ~dst_slot:slot
           ~bytes ());
      emit (I.set_flag ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 ~flag:f_in);
      emit (I.wait_flag ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 ~flag:f_in);
      (* the MTE trans module reorders the block on the L1 -> L0A path *)
      emit
        (I.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a
           ~transform:I.Transpose ~src_slot:slot ~dst_slot:slot ~bytes ());
      emit (I.set_flag ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 ~flag:f_l1_free);
      emit (I.set_flag ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Vector ~flag:f_out);
      emit (I.wait_flag ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Vector ~flag:f_out);
      if t >= 2 then
        emit (I.wait_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_ub_free);
      (* drain through UB *)
      emit
        (I.vector_op ~op_name:"copy" ~bytes ~reads_ub:false ~ub_out_slot:slot ());
      emit (I.set_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 ~flag:f_out_free);
      emit (I.wait_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 ~flag:f_out_free);
      emit
        (I.mte_move ~src:Buffer_id.Ub ~dst:Buffer_id.External ~src_slot:slot
           ~bytes ());
      emit (I.set_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_ub_free)
    done;
    for _ = 1 to min tiles 2 do
      emit (I.wait_flag ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 ~flag:f_l1_free);
      emit (I.wait_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_ub_free)
    done;
    finish ~name (List.rev !instrs)
  in
  { kernel_name = name; generate }

let requantize ~elems ~from_dtype ~to_dtype () =
  if elems <= 0 then invalid_arg "requantize: no elements";
  let name =
    Printf.sprintf "requantize_%s_to_%s_%d" (Precision.name from_dtype)
      (Precision.name to_dtype) elems
  in
  let generate (config : Config.t) =
    let in_total =
      int_of_float (ceil (float_of_int elems *. Precision.size_bytes from_dtype))
    in
    let out_total =
      int_of_float (ceil (float_of_int elems *. Precision.size_bytes to_dtype))
    in
    let budget = config.buffers.ub_bytes / 4 in
    let chunks = max 1 (div_up (in_total + out_total) budget) in
    let share total i =
      (total / chunks) + if i < total mod chunks then 1 else 0
    in
    let instrs = ref [] in
    let emit i = instrs := i :: !instrs in
    emit (I.Scalar_op { cycles = 4 });
    for c = 0 to chunks - 1 do
      let in_slot = c mod 2 in
      let out_slot = 2 + (c mod 2) in
      if c >= 2 then
        emit (I.wait_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte2 ~flag:f_in_free);
      emit
        (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.Ub ~dst_slot:in_slot
           ~bytes:(share in_total c) ());
      emit (I.set_flag ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Vector ~flag:f_in);
      emit (I.wait_flag ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Vector ~flag:f_in);
      if c >= 2 then
        emit (I.wait_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_out_free);
      (* one fused conversion pass over the wider of the two sides *)
      emit
        (I.vector_op ~op_name:"requant"
           ~bytes:(max (share in_total c) (share out_total c))
           ~ub_in_slot:in_slot ~ub_out_slot:out_slot ());
      emit (I.set_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte2 ~flag:f_in_free);
      emit (I.set_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 ~flag:f_out);
      emit (I.wait_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 ~flag:f_out);
      emit
        (I.mte_move ~src:Buffer_id.Ub ~dst:Buffer_id.External ~src_slot:out_slot
           ~bytes:(share out_total c) ());
      emit (I.set_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_out_free)
    done;
    for _ = 1 to min chunks 2 do
      emit (I.wait_flag ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte2 ~flag:f_in_free);
      emit (I.wait_flag ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector ~flag:f_out_free)
    done;
    finish ~name (List.rev !instrs)
  in
  { kernel_name = name; generate }

let registry () =
  [
    ("softmax", fun () -> softmax ~rows:512 ~cols:512 ());
    ("layer_norm", fun () -> layer_norm ~rows:512 ~cols:1024 ());
    ("transpose", fun () -> transpose ~rows:1024 ~cols:1024 ());
    ( "requantize",
      fun () ->
        requantize ~elems:65536 ~from_dtype:Precision.Int32
          ~to_dtype:Precision.Int8 () );
  ]

let simulate config kernel =
  match kernel.generate config with
  | exception Invalid_argument msg -> Error msg
  | program -> Ascend_core_sim.Simulator.run config program
