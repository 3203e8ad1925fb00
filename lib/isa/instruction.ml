type mte_transform =
  | Plain
  | Img2col of { expansion : float }
  | Transpose
  | Decompress of { ratio : float }

type t =
  | Cube_matmul of {
      m : int;
      k : int;
      n : int;
      precision : Ascend_arch.Precision.t;
      accumulate : bool;
      l0a_slot : int;
      l0b_slot : int;
      l0c_slot : int;
    }
  | Vector_op of {
      op_name : string;
      bytes : int;
      reads_ub : bool;
      writes_ub : bool;
      ub_in_slot : int;
      ub_out_slot : int;
    }
  | Mte_move of {
      src : Buffer_id.t;
      dst : Buffer_id.t;
      bytes : int;
      transform : mte_transform;
      src_slot : int;
      dst_slot : int;
    }
  | Scalar_op of { cycles : int }
  | Set_flag of { from_pipe : Pipe.t; to_pipe : Pipe.t; flag : int }
  | Wait_flag of { from_pipe : Pipe.t; to_pipe : Pipe.t; flag : int }
  | Barrier

let pipe_of = function
  | Cube_matmul _ -> Some Pipe.Cube
  | Vector_op _ -> Some Pipe.Vector
  | Scalar_op _ -> Some Pipe.Scalar
  | Set_flag { from_pipe; _ } -> Some from_pipe
  | Wait_flag { to_pipe; _ } -> Some to_pipe
  | Mte_move { src; dst; _ } -> Buffer_id.legal_move ~src ~dst
  | Barrier -> None

let check_slot ctx s =
  if s < 0 then invalid_arg (Printf.sprintf "Instruction.%s: negative slot" ctx)

let mte_move ~src ~dst ?(transform = Plain) ?(src_slot = 0) ?(dst_slot = 0)
    ~bytes () =
  if bytes < 0 then invalid_arg "Instruction.mte_move: negative bytes";
  check_slot "mte_move" src_slot;
  check_slot "mte_move" dst_slot;
  (match transform with
  | Img2col { expansion } when expansion <= 0. ->
    invalid_arg "Instruction.mte_move: img2col expansion <= 0"
  | Decompress { ratio } when ratio <= 0. || ratio > 1. ->
    invalid_arg "Instruction.mte_move: decompress ratio out of (0,1]"
  | Plain | Img2col _ | Transpose | Decompress _ -> ());
  match Buffer_id.legal_move ~src ~dst with
  | Some _ -> Mte_move { src; dst; bytes; transform; src_slot; dst_slot }
  | None ->
    invalid_arg
      (Printf.sprintf "Instruction.mte_move: illegal move %s -> %s"
         (Buffer_id.name src) (Buffer_id.name dst))

let cube_matmul ~m ~k ~n ~precision ?(accumulate = false) ?(l0a_slot = 0)
    ?(l0b_slot = 0) ?(l0c_slot = 0) () =
  if m <= 0 || k <= 0 || n <= 0 then
    invalid_arg "Instruction.cube_matmul: non-positive dimension";
  check_slot "cube_matmul" l0a_slot;
  check_slot "cube_matmul" l0b_slot;
  check_slot "cube_matmul" l0c_slot;
  Cube_matmul { m; k; n; precision; accumulate; l0a_slot; l0b_slot; l0c_slot }

let vector_op ~op_name ~bytes ?(reads_ub = true) ?(writes_ub = true)
    ?(ub_in_slot = 0) ?(ub_out_slot = 0) () =
  if bytes < 0 then invalid_arg "Instruction.vector_op: negative bytes";
  check_slot "vector_op" ub_in_slot;
  check_slot "vector_op" ub_out_slot;
  Vector_op { op_name; bytes; reads_ub; writes_ub; ub_in_slot; ub_out_slot }

let set_flag ~from_pipe ~to_pipe ~flag =
  Set_flag { from_pipe; to_pipe; flag }

let wait_flag ~from_pipe ~to_pipe ~flag =
  Wait_flag { from_pipe; to_pipe; flag }

let source_bytes = function
  | Mte_move { bytes; transform; _ } -> (
    match transform with
    | Plain | Transpose -> bytes
    | Img2col { expansion } -> int_of_float (float_of_int bytes /. expansion)
    | Decompress { ratio } -> int_of_float (float_of_int bytes *. ratio))
  | Cube_matmul _ | Vector_op _ | Scalar_op _ | Set_flag _ | Wait_flag _
  | Barrier ->
    0

(* ------------------------------------------------------------------ *)
(* Abstract buffer accesses: the (buffer, slot) pairs an instruction
   touches, the one model behind the simulator's traffic, the hazard
   scan, the sanitizer and the derived peaks.  A slot stands in for an
   address range inside the buffer (double-buffering rings rotate
   through slots). *)

let iter_accesses f instr =
  let bytes_of elems size = int_of_float (ceil (float_of_int elems *. size)) in
  match instr with
  | Mte_move { src; dst; src_slot; dst_slot; bytes; _ } ->
    f src ~slot:src_slot ~bytes:(source_bytes instr) ~write:false ~alloc:false
      ~exact:true;
    f dst ~slot:dst_slot ~bytes ~write:true ~alloc:true ~exact:true
  | Cube_matmul { m; k; n; precision; accumulate; l0a_slot; l0b_slot; l0c_slot }
    ->
    let src = Ascend_arch.Precision.size_bytes precision in
    let out =
      bytes_of (m * n)
        (Ascend_arch.Precision.size_bytes
           (Ascend_arch.Precision.accumulator precision))
    in
    f Buffer_id.L0a ~slot:l0a_slot ~bytes:(bytes_of (m * k) src) ~write:false
      ~alloc:false ~exact:true;
    f Buffer_id.L0b ~slot:l0b_slot ~bytes:(bytes_of (k * n) src) ~write:false
      ~alloc:false ~exact:true;
    if accumulate then
      f Buffer_id.L0c ~slot:l0c_slot ~bytes:out ~write:false ~alloc:false
        ~exact:true;
    f Buffer_id.L0c ~slot:l0c_slot ~bytes:out ~write:true
      ~alloc:(not accumulate) ~exact:true
  | Vector_op { bytes; reads_ub; writes_ub; ub_in_slot; ub_out_slot; _ } ->
    (* vector bytes are work amounts, never footprint claims *)
    if reads_ub then
      f Buffer_id.Ub ~slot:ub_in_slot ~bytes ~write:false ~alloc:false
        ~exact:false;
    if writes_ub then
      f Buffer_id.Ub ~slot:ub_out_slot ~bytes ~write:true
        (* writing the slot just read is an in-place update *)
        ~alloc:((not reads_ub) || ub_out_slot <> ub_in_slot)
        ~exact:false
  | Scalar_op _ | Set_flag _ | Wait_flag _ | Barrier -> ()

let transform_name = function
  | Plain -> ""
  | Img2col { expansion } -> Printf.sprintf " img2col(x%.1f)" expansion
  | Transpose -> " trans"
  | Decompress { ratio } -> Printf.sprintf " decomp(%.2f)" ratio

let slot_suffix = function 0 -> "" | s -> Printf.sprintf ".%d" s

let pp ppf = function
  | Cube_matmul { m; k; n; precision; accumulate; l0a_slot; l0b_slot; l0c_slot }
    ->
    Format.fprintf ppf "M    matmul %dx%dx%d %s%s" m k n
      (Ascend_arch.Precision.name precision)
      (if accumulate then " +=" else "");
    if l0a_slot <> 0 || l0b_slot <> 0 || l0c_slot <> 0 then
      Format.fprintf ppf " [%d/%d/%d]" l0a_slot l0b_slot l0c_slot
  | Vector_op { op_name; bytes; ub_in_slot; ub_out_slot; _ } ->
    Format.fprintf ppf "V    %s %dB" op_name bytes;
    if ub_in_slot <> 0 || ub_out_slot <> 0 then
      Format.fprintf ppf " [%d>%d]" ub_in_slot ub_out_slot
  | Mte_move { src; dst; bytes; transform; src_slot; dst_slot } ->
    Format.fprintf ppf "MTE  %s%s->%s%s %dB%s" (Buffer_id.name src)
      (slot_suffix src_slot) (Buffer_id.name dst) (slot_suffix dst_slot) bytes
      (transform_name transform)
  | Scalar_op { cycles } -> Format.fprintf ppf "S    scalar %dcyc" cycles
  | Set_flag { from_pipe; to_pipe; flag } ->
    Format.fprintf ppf "SET  %s->%s #%d" (Pipe.name from_pipe)
      (Pipe.name to_pipe) flag
  | Wait_flag { from_pipe; to_pipe; flag } ->
    Format.fprintf ppf "WAIT %s->%s #%d" (Pipe.name from_pipe)
      (Pipe.name to_pipe) flag
  | Barrier -> Format.fprintf ppf "BARRIER"
