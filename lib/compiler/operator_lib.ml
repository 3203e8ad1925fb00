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

let div_up = Ascend_util.Stats.divide_round_up

let bytes_of ~elems dtype =
  Codegen.bytes_of ~elems ~size:(Precision.size_bytes dtype)

(* a vector kernel is a chunk plan on codegen's UB stream, double-buffered
   under flags *)
let stream ~name chunks =
  let b = Codegen.builder () in
  Codegen.emit_vector_stream b ~depth:2 chunks;
  Codegen.finish b ~name

(* row-granular streamed kernel: each round is a chunk of whole rows, so
   a row's working set stays UB-resident across its [passes] *)
let row_kernel ~name ~rows ~cols ~dtype ~passes =
  if rows <= 0 || cols <= 0 then invalid_arg (name ^ ": empty matrix");
  let generate config =
    let row_bytes = bytes_of ~elems:cols dtype in
    let budget = Codegen.ub_slot_bytes config in
    if row_bytes > budget then
      invalid_arg
        (Printf.sprintf "%s: a %d-byte row exceeds the UB budget %d" name
           row_bytes budget);
    let rows_per_chunk = budget / row_bytes in
    stream ~name
      (List.init (div_up rows rows_per_chunk) (fun c ->
           let rows_here = min rows_per_chunk (rows - (c * rows_per_chunk)) in
           let bytes = rows_here * row_bytes in
           { Codegen.load = bytes;
             passes = List.map (fun pass -> (pass, bytes)) passes;
             store = bytes }))
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
  let f_in = 0 (* MTE2 -> MTE1: L1 tile staged *) in
  let f_l1_free = 1 (* MTE1 -> MTE2: L1 tile slot consumed *) in
  let f_out = 2 (* MTE1 -> Vector: L0A tile transposed *) in
  let f_out_free = 3 (* Vector -> MTE3: UB tile ready *) in
  let f_ub_free = 4 (* MTE3 -> Vector: UB drain slot stored *) in
  let generate (config : Config.t) =
    let total = bytes_of ~elems:(rows * cols) dtype in
    (* tile so the transposed block double-buffers in L0A *)
    let tiles = max 1 (div_up total (config.buffers.l0a_bytes / 2)) in
    let chunk = div_up total tiles in
    let b = Codegen.builder () in
    let emit = Codegen.emit b in
    let set from_pipe to_pipe flag = Codegen.set b ~from_pipe ~to_pipe flag in
    let wait from_pipe to_pipe flag = Codegen.wait b ~from_pipe ~to_pipe flag in
    for t = 0 to tiles - 1 do
      let bytes = min chunk (total - (t * chunk)) in
      let slot = t mod 2 in
      if t >= 2 then wait Pipe.Mte1 Pipe.Mte2 f_l1_free;
      emit
        (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1 ~dst_slot:slot
           ~bytes ());
      set Pipe.Mte2 Pipe.Mte1 f_in;
      wait Pipe.Mte2 Pipe.Mte1 f_in;
      (* the MTE trans module reorders the block on the L1 -> L0A path *)
      emit
        (I.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a
           ~transform:I.Transpose ~src_slot:slot ~dst_slot:slot ~bytes ());
      set Pipe.Mte1 Pipe.Mte2 f_l1_free;
      set Pipe.Mte1 Pipe.Vector f_out;
      wait Pipe.Mte1 Pipe.Vector f_out;
      if t >= 2 then wait Pipe.Mte3 Pipe.Vector f_ub_free;
      (* drain through UB *)
      emit
        (I.vector_op ~op_name:"copy" ~bytes ~reads_ub:false ~ub_out_slot:slot ());
      set Pipe.Vector Pipe.Mte3 f_out_free;
      wait Pipe.Vector Pipe.Mte3 f_out_free;
      emit
        (I.mte_move ~src:Buffer_id.Ub ~dst:Buffer_id.External ~src_slot:slot
           ~bytes ());
      set Pipe.Mte3 Pipe.Vector f_ub_free
    done;
    Codegen.finish b ~name
  in
  { kernel_name = name; generate }

let requantize ~elems ~from_dtype ~to_dtype () =
  if elems <= 0 then invalid_arg "requantize: no elements";
  let name =
    Printf.sprintf "requantize_%s_to_%s_%d" (Precision.name from_dtype)
      (Precision.name to_dtype) elems
  in
  let generate config =
    let in_total = bytes_of ~elems from_dtype in
    let out_total = bytes_of ~elems to_dtype in
    let chunks =
      max 1 (div_up (in_total + out_total) (Codegen.ub_slot_bytes config))
    in
    stream ~name
      (List.init chunks (fun c ->
           let load = Codegen.share ~chunks in_total c in
           let store = Codegen.share ~chunks out_total c in
           (* one fused conversion pass over the wider of the two sides *)
           { Codegen.load; passes = [ ("requant", max load store) ]; store }))
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
