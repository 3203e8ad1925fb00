open Ascend.Isa
module Config = Ascend.Arch.Config
module Precision = Ascend.Arch.Precision

let cube m k n =
  Instruction.cube_matmul ~m ~k ~n ~precision:Precision.Fp16 ()

let vec bytes =
  Instruction.vector_op ~op_name:"t" ~bytes ()

(* ------------------------------------------------------------------ *)

let test_pipe_indices () =
  Alcotest.(check int) "six pipes" 6 Pipe.count;
  List.iteri
    (fun i p -> Alcotest.(check int) (Pipe.name p) i (Pipe.index p))
    Pipe.all

let test_legal_moves () =
  let check src dst expected =
    let actual = Buffer_id.legal_move ~src ~dst in
    Alcotest.(check bool)
      (Printf.sprintf "%s->%s" (Buffer_id.name src) (Buffer_id.name dst))
      true
      (match (actual, expected) with
      | Some p, Some q -> Pipe.equal p q
      | None, None -> true
      | _ -> false)
  in
  check Buffer_id.External Buffer_id.L1 (Some Pipe.Mte2);
  check Buffer_id.L1 Buffer_id.L0a (Some Pipe.Mte1);
  check Buffer_id.L1 Buffer_id.L0b (Some Pipe.Mte1);
  check Buffer_id.L0c Buffer_id.Ub (Some Pipe.Vector);
  check Buffer_id.Ub Buffer_id.External (Some Pipe.Mte3);
  (* the cube's L0 buffers are not directly reachable from outside *)
  check Buffer_id.External Buffer_id.L0a None;
  check Buffer_id.L0a Buffer_id.L0b None;
  check Buffer_id.Ub Buffer_id.L0c None

let test_mte_move_smart_constructor () =
  Alcotest.(check bool) "legal ok" true
    (match
       Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1
         ~bytes:64 ()
     with
    | Instruction.Mte_move _ -> true
    | _ -> false);
  Alcotest.(check bool) "illegal raises" true
    (try
       ignore
         (Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L0a
            ~bytes:64 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad decompress ratio" true
    (try
       ignore
         (Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0b
            ~transform:(Instruction.Decompress { ratio = 1.5 })
            ~bytes:64 ());
       false
     with Invalid_argument _ -> true)

let test_source_bytes () =
  let plain =
    Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a ~bytes:900 ()
  in
  Alcotest.(check int) "plain" 900 (Instruction.source_bytes plain);
  let i2c =
    Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a
      ~transform:(Instruction.Img2col { expansion = 9. })
      ~bytes:900 ()
  in
  Alcotest.(check int) "img2col reads 1/9" 100 (Instruction.source_bytes i2c);
  let dec =
    Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0b
      ~transform:(Instruction.Decompress { ratio = 0.5 })
      ~bytes:900 ()
  in
  Alcotest.(check int) "decompress reads half" 450
    (Instruction.source_bytes dec)

let test_pipe_of () =
  Alcotest.(check bool) "cube" true
    (Instruction.pipe_of (cube 16 16 16) = Some Pipe.Cube);
  Alcotest.(check bool) "vector" true
    (Instruction.pipe_of (vec 64) = Some Pipe.Vector);
  Alcotest.(check bool) "set on from-pipe" true
    (Instruction.pipe_of
       (Instruction.Set_flag
          { from_pipe = Pipe.Mte1; to_pipe = Pipe.Cube; flag = 0 })
    = Some Pipe.Mte1);
  Alcotest.(check bool) "wait on to-pipe" true
    (Instruction.pipe_of
       (Instruction.Wait_flag
          { from_pipe = Pipe.Mte1; to_pipe = Pipe.Cube; flag = 0 })
    = Some Pipe.Cube);
  Alcotest.(check bool) "barrier has none" true
    (Instruction.pipe_of Instruction.Barrier = None)

(* ------------------------------------------------------------------ *)
(* Program validation                                                 *)

let test_validate_ok () =
  let p =
    Program.make ~name:"ok"
      [
        Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1
          ~bytes:1024 ();
        Instruction.Set_flag
          { from_pipe = Pipe.Mte2; to_pipe = Pipe.Cube; flag = 0 };
        Instruction.Wait_flag
          { from_pipe = Pipe.Mte2; to_pipe = Pipe.Cube; flag = 0 };
        cube 16 16 16;
      ]
  in
  Alcotest.(check bool) "valid" true
    (Result.is_ok (Program.validate Config.max p))

let test_validate_unbalanced_flags () =
  let p =
    Program.make ~name:"bad"
      [
        Instruction.Wait_flag
          { from_pipe = Pipe.Mte1; to_pipe = Pipe.Cube; flag = 3 };
      ]
  in
  match Program.validate Config.max p with
  | Error e ->
    Alcotest.(check bool) "mentions the flag" true
      (String.length e > 0 && String.contains e '3')
  | Ok _ -> Alcotest.fail "must reject more waits than sets"

let test_validate_names_first_bad_flag () =
  let set f t flag = Instruction.set_flag ~from_pipe:f ~to_pipe:t ~flag in
  let wait f t flag = Instruction.wait_flag ~from_pipe:f ~to_pipe:t ~flag in
  let check name expected instrs =
    Alcotest.(check (result unit string))
      name (Error expected)
      (Result.map ignore
         (Program.validate Config.max (Program.make ~name instrs)))
  in
  check "first out-of-range flag" "flag id 70 out of range"
    [ set Pipe.Mte2 Pipe.Cube 70; wait Pipe.Mte2 Pipe.Cube 99 ];
  (* Vector (index 1) before Cube (index 2): the first unbalanced triple
     in (from, to, flag) order, not in program order *)
  check "first unbalanced triple" "flag V->M #2: 1 waits but only 0 sets"
    [ wait Pipe.Cube Pipe.Vector 5; wait Pipe.Vector Pipe.Cube 2 ]

let test_validate_buffer_overflow () =
  let p =
    Program.make ~name:"big"
      ~buffer_peak:[ (Buffer_id.L0a, 10_000_000) ]
      [ cube 16 16 16 ]
  in
  match Program.validate Config.max p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject oversized buffer footprint"

let test_validate_unsupported_precision () =
  let p =
    Program.make ~name:"fp16-on-tiny"
      [
        Instruction.cube_matmul ~m:4 ~k:32 ~n:4 ~precision:Precision.Fp16 ();
      ]
  in
  match Program.validate Config.tiny p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tiny must reject fp16 cube work"

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_disassembly () =
  let p = Program.make ~name:"d" [ cube 32 16 16; vec 128 ] in
  let s = Format.asprintf "%a" Program.pp p in
  Alcotest.(check bool) "mentions matmul" true (contains_sub s "matmul");
  Alcotest.(check bool) "mentions bytes" true (contains_sub s "128B")

(* ------------------------------------------------------------------ *)
(* Binary encoding and compression (§3.2)                              *)

let sample_program =
  [
    Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1 ~bytes:4096 ();
    Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a
      ~transform:(Instruction.Img2col { expansion = 9. })
      ~bytes:8192 ();
    Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0b
      ~transform:(Instruction.Decompress { ratio = 0.5 })
      ~bytes:2048 ();
    Instruction.Set_flag { from_pipe = Pipe.Mte1; to_pipe = Pipe.Cube; flag = 2 };
    Instruction.Wait_flag { from_pipe = Pipe.Mte1; to_pipe = Pipe.Cube; flag = 2 };
    Instruction.cube_matmul ~m:256 ~k:512 ~n:128 ~precision:Precision.Fp16
      ~accumulate:true ~l0a_slot:1 ~l0b_slot:1 ~l0c_slot:1 ();
    Instruction.vector_op ~op_name:"post" ~bytes:65536 ~writes_ub:false
      ~ub_in_slot:1 ();
    Instruction.Scalar_op { cycles = 7 };
    Instruction.Barrier;
  ]

let test_encode_decode_roundtrip () =
  let encoded = Encoding.encode sample_program in
  Alcotest.(check int) "16 bytes per instruction"
    (16 * List.length sample_program)
    (Bytes.length encoded);
  match Encoding.decode encoded with
  | Ok decoded ->
    Alcotest.(check int) "same length" (List.length sample_program)
      (List.length decoded);
    List.iter2
      (fun a b ->
        Alcotest.(check string) "instruction round-trips"
          (Format.asprintf "%a" Instruction.pp a)
          (Format.asprintf "%a" Instruction.pp b))
      sample_program decoded
  | Error e -> Alcotest.fail e

let test_decode_rejects_garbage () =
  (match Encoding.decode (Bytes.make 15 'x') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short buffer must fail");
  match Encoding.decode (Bytes.make 16 '\xAB') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad opcode must fail"

let test_compress_roundtrip () =
  let raw = Encoding.encode sample_program in
  match Encoding.decompress (Encoding.compress raw) with
  | Ok back -> Alcotest.(check bool) "identical" true (Bytes.equal raw back)
  | Error e -> Alcotest.fail e

let test_compression_helps_on_loops () =
  (* a tiled loop body repeats near-identical instructions: the delta/RLE
     scheme must crush it (the §3.2 bandwidth argument) *)
  let loop =
    List.concat
      (List.init 64 (fun i ->
           [
             Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a
               ~bytes:(4096 + (i mod 2)) ();
             Instruction.cube_matmul ~m:256 ~k:256 ~n:256
               ~precision:Precision.Fp16 ~accumulate:(i > 0) ();
           ]))
  in
  let ratio = Encoding.compression_ratio loop in
  Alcotest.(check bool) "at least 4x compression" true (ratio < 0.25);
  let raw =
    Encoding.fetch_bandwidth_bytes_per_cycle ~instructions_per_cycle:1.
      ~compressed:false loop
  in
  let packed =
    Encoding.fetch_bandwidth_bytes_per_cycle ~instructions_per_cycle:1.
      ~compressed:true loop
  in
  Alcotest.(check (float 1e-9)) "raw fetch = 16 B/cycle" 16. raw;
  Alcotest.(check bool) "compressed fetch under 4 B/cycle" true (packed < 4.)

let random_instr rng =
  let module P = Ascend.Util.Prng in
  match P.int rng ~bound:7 with
  | 0 ->
    Instruction.cube_matmul ~m:(1 + P.int rng ~bound:1024)
      ~k:(1 + P.int rng ~bound:1024) ~n:(1 + P.int rng ~bound:1024)
      ~precision:Precision.Fp16 ~accumulate:(P.bool rng)
      ~l0a_slot:(P.int rng ~bound:4) ~l0b_slot:(P.int rng ~bound:4)
      ~l0c_slot:(P.int rng ~bound:4) ()
  | 1 ->
    Instruction.vector_op ~op_name:"vec" ~bytes:(P.int rng ~bound:100000)
      ~reads_ub:(P.bool rng) ~writes_ub:(P.bool rng)
      ~ub_in_slot:(P.int rng ~bound:4) ~ub_out_slot:(P.int rng ~bound:4) ()
  | 2 ->
    Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1
      ~src_slot:(P.int rng ~bound:4) ~dst_slot:(P.int rng ~bound:4)
      ~bytes:(P.int rng ~bound:100000) ()
  | 3 -> Instruction.Scalar_op { cycles = 1 + P.int rng ~bound:100 }
  | 4 ->
    Instruction.Set_flag
      { from_pipe = Pipe.Cube; to_pipe = Pipe.Vector;
        flag = P.int rng ~bound:64 }
  | 5 ->
    Instruction.Wait_flag
      { from_pipe = Pipe.Cube; to_pipe = Pipe.Vector;
        flag = P.int rng ~bound:64 }
  | _ -> Instruction.Barrier

let encoding_roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"random programs encode/decode/compress"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Ascend.Util.Prng.create ~seed in
      let n = 1 + Ascend.Util.Prng.int rng ~bound:100 in
      let instrs = List.init n (fun _ -> random_instr rng) in
      let raw = Encoding.encode instrs in
      match (Encoding.decode raw, Encoding.decompress (Encoding.compress raw)) with
      | Ok decoded, Ok unpacked ->
        Bytes.equal raw unpacked
        && List.for_all2
             (fun a b ->
               Format.asprintf "%a" Instruction.pp a
               = Format.asprintf "%a" Instruction.pp b)
             instrs decoded
      | _ -> false)

let decoder_fuzz_prop =
  QCheck.Test.make ~count:200
    ~name:"corrupted streams never crash the decoder/decompressor"
    QCheck.(pair (int_range 0 100000) (int_range 1 8))
    (fun (seed, flips) ->
      let rng = Ascend.Util.Prng.create ~seed in
      let instrs = List.init 20 (fun _ -> random_instr rng) in
      let raw = Encoding.encode instrs in
      let packed = Encoding.compress raw in
      let corrupt b =
        let b = Bytes.copy b in
        for _ = 1 to flips do
          let pos = Ascend.Util.Prng.int rng ~bound:(Bytes.length b) in
          Bytes.set_uint8 b pos (Ascend.Util.Prng.int rng ~bound:256)
        done;
        b
      in
      (* both must return Ok or Error, never raise *)
      let safe f x = match f x with Ok _ | Error _ -> true in
      safe Encoding.decode (corrupt raw)
      && safe Encoding.decompress (corrupt packed))

let flag_range_prop =
  QCheck.Test.make ~count:100 ~name:"flag ids outside 0..63 rejected"
    QCheck.(int_range 64 1000)
    (fun flag ->
      let p =
        Program.make ~name:"f"
          [
            Instruction.Set_flag
              { from_pipe = Pipe.Mte1; to_pipe = Pipe.Cube; flag };
          ]
      in
      match Program.validate Config.max p with Error _ -> true | Ok _ -> false)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "isa"
    [
      ( "pipes-buffers",
        [
          Alcotest.test_case "pipe indices" `Quick test_pipe_indices;
          Alcotest.test_case "legal moves" `Quick test_legal_moves;
          Alcotest.test_case "mte_move constructor" `Quick
            test_mte_move_smart_constructor;
          Alcotest.test_case "source bytes" `Quick test_source_bytes;
          Alcotest.test_case "pipe_of" `Quick test_pipe_of;
        ] );
      ( "program",
        [
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "unbalanced flags" `Quick
            test_validate_unbalanced_flags;
          Alcotest.test_case "first bad flag named" `Quick
            test_validate_names_first_bad_flag;
          Alcotest.test_case "buffer overflow" `Quick
            test_validate_buffer_overflow;
          Alcotest.test_case "unsupported precision" `Quick
            test_validate_unsupported_precision;
          Alcotest.test_case "disassembly" `Quick test_disassembly;
          q flag_range_prop;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "compress roundtrip" `Quick test_compress_roundtrip;
          Alcotest.test_case "compression on loops" `Quick
            test_compression_helps_on_loops;
          q encoding_roundtrip_prop;
          q decoder_fuzz_prop;
        ] );
    ]
