open Ascend.Core_sim
open Ascend.Isa
module Config = Ascend.Arch.Config
module Precision = Ascend.Arch.Precision

let cube ?(accumulate = false) m k n =
  Instruction.cube_matmul ~m ~k ~n ~precision:Precision.Fp16 ~accumulate ()

let vec bytes =
  Instruction.vector_op ~op_name:"t" ~bytes ()

let set f t flag = Instruction.Set_flag { from_pipe = f; to_pipe = t; flag }
let wait f t flag = Instruction.Wait_flag { from_pipe = f; to_pipe = t; flag }

let run_ok ?(config = Config.max) instrs =
  match Simulator.run config (Program.make ~name:"t" instrs) with
  | Ok r -> r
  | Error e -> Alcotest.failf "simulation failed: %s" e

(* ------------------------------------------------------------------ *)
(* Latency model                                                      *)

let test_latency_cube () =
  Alcotest.(check int) "one tile + overhead"
    (1 + Latency.cube_issue_overhead)
    (Latency.cube_matmul Config.max ~m:16 ~k:16 ~n:16 ~precision:Precision.Fp16);
  Alcotest.(check int) "256x256x256 = 4096 cycles"
    (4096 + Latency.cube_issue_overhead)
    (Latency.cube_matmul Config.max ~m:256 ~k:256 ~n:256
       ~precision:Precision.Fp16);
  (* int8 doubles the k throughput *)
  Alcotest.(check int) "int8 halves k tiles"
    (2048 + Latency.cube_issue_overhead)
    (Latency.cube_matmul Config.max ~m:256 ~k:256 ~n:256
       ~precision:Precision.Int8)

let test_latency_vector () =
  Alcotest.(check int) "256B in one cycle"
    (1 + Latency.vector_issue_overhead)
    (Latency.vector_op Config.max ~bytes:256);
  Alcotest.(check int) "1KiB on Lite = 8 cycles"
    (8 + Latency.vector_issue_overhead)
    (Latency.vector_op Config.lite ~bytes:1024)

let test_latency_mte () =
  (* Max A port: 4096 B/cycle *)
  Alcotest.(check int) "A port 64KiB"
    (16 + Latency.mte_issue_overhead)
    (Latency.mte_move Config.max ~src:Buffer_id.L1 ~dst:Buffer_id.L0a
       ~bytes:(64 * 1024));
  (* Max external: 94 GB/s at 1 GHz = 94 B/cycle *)
  Alcotest.(check int) "LLC port 9400 B"
    (100 + Latency.mte_issue_overhead)
    (Latency.mte_move Config.max ~src:Buffer_id.External ~dst:Buffer_id.L1
       ~bytes:9400)

(* ------------------------------------------------------------------ *)
(* Execution semantics                                                *)

let test_single_instruction () =
  let r = run_ok [ cube 256 256 256 ] in
  Alcotest.(check int) "makespan = latency"
    (4096 + Latency.cube_issue_overhead)
    r.Simulator.total_cycles

let test_pipes_overlap () =
  (* independent cube and vector work overlaps almost entirely *)
  let r = run_ok [ cube 256 256 256; vec (256 * 1024) ] in
  let cube_lat = 4096 + Latency.cube_issue_overhead in
  let vec_lat = 1024 + Latency.vector_issue_overhead in
  Alcotest.(check bool) "overlapped" true
    (r.Simulator.total_cycles < cube_lat + vec_lat);
  Alcotest.(check bool) "at least the longer one" true
    (r.Simulator.total_cycles >= max cube_lat vec_lat)

let test_flags_serialise () =
  (* vector waits for the cube: the times add *)
  let r =
    run_ok
      [
        cube 256 256 256;
        set Pipe.Cube Pipe.Vector 0;
        wait Pipe.Cube Pipe.Vector 0;
        vec (256 * 1024);
      ]
  in
  let cube_lat = 4096 + Latency.cube_issue_overhead in
  let vec_lat = 1024 + Latency.vector_issue_overhead in
  Alcotest.(check bool) "serialised" true
    (r.Simulator.total_cycles >= cube_lat + vec_lat)

let test_set_before_wait_in_program_order_not_required () =
  (* the wait appears before the set in program order but on another
     pipe; the simulator must not deadlock *)
  let r =
    run_ok
      [
        wait Pipe.Cube Pipe.Vector 1;
        vec 256;
        cube 16 16 16;
        set Pipe.Cube Pipe.Vector 1;
      ]
  in
  Alcotest.(check bool) "completed" true (r.Simulator.total_cycles > 0)

let test_deadlock_detected () =
  (* flag counts balance per triple, so validation passes, yet Vector
     blocks on flag 0 before its set of flag 1 while Cube blocks on
     flag 1 before its set of flag 0: the runtime detector must fire *)
  let cycle =
    Program.make ~name:"cycle"
      [
        wait Pipe.Cube Pipe.Vector 0;
        set Pipe.Vector Pipe.Cube 1;
        wait Pipe.Vector Pipe.Cube 1;
        set Pipe.Cube Pipe.Vector 0;
      ]
  in
  (match Simulator.run Config.max cycle with
  | Error e ->
    Alcotest.(check bool) "mentions deadlock" true
      (String.length e >= 8 && String.sub e 0 8 = "deadlock")
  | Ok _ -> Alcotest.fail "must deadlock");
  (* a wait with no matching set is caught statically *)
  let p = Program.make ~name:"dl" [ wait Pipe.Cube Pipe.Vector 0; vec 256 ] in
  match Simulator.run Config.max p with
  | Error e ->
    Alcotest.(check bool) "static" true
      (String.length e >= 10 && String.sub e 0 10 = "validation")
  | Ok _ -> Alcotest.fail "must fail validation"

let test_barrier_drains () =
  let r =
    run_ok
      [ cube 256 256 256; Instruction.Barrier; vec (256 * 1024) ]
  in
  let cube_lat = 4096 + Latency.cube_issue_overhead in
  let vec_lat = 1024 + Latency.vector_issue_overhead in
  Alcotest.(check bool) "barrier serialises" true
    (r.Simulator.total_cycles >= cube_lat + vec_lat)

let test_makespan_at_least_busy () =
  let r =
    run_ok [ cube 32 32 32; vec 512; cube 16 16 16; vec 128 ]
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Pipe.name p ^ " busy <= makespan")
        true
        ((Simulator.pipe_stats r p).Simulator.busy_cycles
        <= r.Simulator.total_cycles))
    Pipe.all

let test_traffic_accounting () =
  let r =
    run_ok
      [
        Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1
          ~bytes:1000 ();
        Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a
          ~transform:(Instruction.Img2col { expansion = 4. })
          ~bytes:800 ();
      ]
  in
  Alcotest.(check int) "L1 written" 1000
    (Simulator.traffic r Buffer_id.L1).Simulator.written_bytes;
  (* img2col reads only the unique bytes out of L1 *)
  Alcotest.(check int) "L1 read compact" 200
    (Simulator.traffic r Buffer_id.L1).Simulator.read_bytes;
  Alcotest.(check int) "L0A written expanded" 800
    (Simulator.traffic r Buffer_id.L0a).Simulator.written_bytes;
  Alcotest.(check int) "external read" 1000
    (Simulator.traffic r Buffer_id.External).Simulator.read_bytes

(* the access model rounds operand bytes up: 3x5 and 5x7 int4 operands
   take 8 and 18 bytes *)
let test_int4_traffic_ceiling () =
  let r =
    run_ok ~config:Config.standard
      [ Instruction.cube_matmul ~m:3 ~k:5 ~n:7 ~precision:Precision.Int4 () ]
  in
  Alcotest.(check (pair int int)) "L0A/L0B read bytes" (8, 18)
    ( (Simulator.traffic r Buffer_id.L0a).Simulator.read_bytes,
      (Simulator.traffic r Buffer_id.L0b).Simulator.read_bytes )

let test_energy_positive_and_scales () =
  let small = run_ok [ cube 16 16 16 ] in
  let big = run_ok [ cube 256 256 256 ] in
  Alcotest.(check bool) "positive" true (small.Simulator.energy_j > 0.);
  Alcotest.(check bool) "more macs, more energy" true
    (big.Simulator.energy_j > 100. *. small.Simulator.energy_j);
  Alcotest.(check int) "mac count" (256 * 256 * 256)
    big.Simulator.cube_macs_executed

(* a set costs 1 pJ and a wait nothing, so one matched pair adds
   exactly the set's energy *)
let test_energy_set_wait_pair () =
  let pj instrs = (run_ok instrs).Simulator.energy_j *. 1e12 in
  let pair = [ set Pipe.Cube Pipe.Vector 0; wait Pipe.Cube Pipe.Vector 0 ] in
  let paired = (cube 16 16 16 :: pair) @ [ vec 256 ] in
  Alcotest.(check (float 1e-9)) "pJ added" 1.
    (pj paired -. pj [ cube 16 16 16; vec 256 ])

let test_trace () =
  match
    Simulator.run ~trace:true Config.max
      (Program.make ~name:"t" [ cube 16 16 16; vec 256 ])
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "two entries" 2 (List.length r.Simulator.trace);
    List.iter
      (fun (e : Simulator.trace_entry) ->
        Alcotest.(check bool) "start <= end" true
          (e.Simulator.start_cycle <= e.Simulator.end_cycle))
      r.Simulator.trace

let test_timeline () =
  (match
     Simulator.run ~trace:true Config.max
       (Program.make ~name:"t" [ cube 256 256 256; vec (64 * 1024) ])
   with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let s = Timeline.render ~width:40 r in
    Alcotest.(check bool) "has busy marks" true (String.contains s '#');
    Alcotest.(check bool) "has idle marks" true (String.contains s '.');
    let bars = Timeline.utilization_bars r in
    Alcotest.(check bool) "bars mention all pipes" true
      (String.length bars > 0 && String.contains bars '%'));
  (* no trace -> explanatory note, not a crash *)
  match Simulator.run Config.max (Program.make ~name:"t" [ vec 256 ]) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "note without trace" true
      (String.length (Timeline.render r) > 0
      && not (String.contains (Timeline.render r) '#'))

let test_timeline_degenerate () =
  (* degenerate inputs must render, never raise: tiny widths clamp to
     16, a single-cycle trace gets a one-column chart, and utilization
     bars stay within their 40-char budget *)
  (match
     Simulator.run ~trace:true Config.max
       (Program.make ~name:"t" [ cube 16 16 16; vec 256 ])
   with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let w40 = Timeline.render ~width:40 r in
    List.iter
      (fun w ->
        let s = Timeline.render ~width:w r in
        Alcotest.(check bool)
          (Printf.sprintf "width %d clamps to 16" w)
          true
          (s = Timeline.render ~width:16 r);
        Alcotest.(check bool)
          (Printf.sprintf "width %d renders busy marks" w)
          true (String.contains s '#'))
      [ -5; 0; 1; 15 ];
    Alcotest.(check bool) "wide differs from clamped" true
      (w40 <> Timeline.render ~width:16 r));
  (* single-cycle program: one scalar op of one cycle *)
  (match
     Simulator.run ~trace:true Config.max
       (Program.make ~name:"one" [ Instruction.Scalar_op { cycles = 1 } ])
   with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let s = Timeline.render ~width:16 r in
    Alcotest.(check bool) "single-cycle renders" true
      (String.contains s '#');
    let bars = Timeline.utilization_bars r in
    String.split_on_char '\n' bars
    |> List.iter (fun line ->
           Alcotest.(check bool) "bar within budget" true
             (String.length line <= 80)));
  (* empty program: no trace entries at all *)
  match Simulator.run ~trace:true Config.max (Program.make ~name:"e" []) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "empty trace -> note" true
      (String.length (Timeline.render ~width:1 r) > 0
      && not (String.contains (Timeline.render ~width:1 r) '#'))

let test_dispatch_rate () =
  (* the PSQ dispatches one instruction per cycle: instruction i cannot
     start before cycle i *)
  let n = 100 in
  let instrs = List.init n (fun _ -> Instruction.Scalar_op { cycles = 1 }) in
  let r = run_ok instrs in
  Alcotest.(check bool) "at least n cycles" true (r.Simulator.total_cycles >= n)

(* random programs with balanced flags never deadlock *)
let random_program_prop =
  QCheck.Test.make ~count:50
    ~name:"random flag-balanced programs terminate without deadlock"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Ascend.Util.Prng.create ~seed in
      let n = 5 + Ascend.Util.Prng.int rng ~bound:30 in
      let instrs = ref [] in
      let pending = ref [] in
      for i = 0 to n - 1 do
        ignore i;
        match Ascend.Util.Prng.int rng ~bound:4 with
        | 0 -> instrs := cube 32 32 32 :: !instrs
        | 1 -> instrs := vec 1024 :: !instrs
        | 2 ->
          let flag = Ascend.Util.Prng.int rng ~bound:4 in
          instrs := set Pipe.Cube Pipe.Vector flag :: !instrs;
          pending := flag :: !pending
        | _ -> (
          match !pending with
          | flag :: rest ->
            instrs := wait Pipe.Cube Pipe.Vector flag :: !instrs;
            pending := rest
          | [] -> instrs := Instruction.Barrier :: !instrs)
      done;
      let p = Program.make ~name:"rand" (List.rev !instrs) in
      match Simulator.run Config.max p with
      | Ok r -> r.Simulator.total_cycles > 0
      | Error _ -> false)

let monotone_bytes_prop =
  QCheck.Test.make ~count:50 ~name:"more vector bytes never run faster"
    QCheck.(pair (int_range 1 100000) (int_range 1 100000))
    (fun (a, b) ->
      let small = min a b and big = max a b in
      let t bytes = (run_ok [ vec bytes ]).Simulator.total_cycles in
      t small <= t big)

(* ------------------------------------------------------------------ *)
(* Shadow-state sanitizer                                              *)

module Sanitizer = Ascend.Core_sim.Sanitizer
module Finding = Ascend.Verify.Finding
module Verify = Ascend.Verify
module Codegen = Ascend.Compiler.Codegen

let san_classes (r : Sanitizer.report) =
  List.sort_uniq compare
    (List.map
       (fun (f : Finding.t) -> Finding.kind_name f.Finding.kind)
       r.Sanitizer.findings)

let mte ?src_slot ?dst_slot src dst bytes =
  Instruction.mte_move ~src ~dst ?src_slot ?dst_slot ~bytes ()

let sanitize ?(config = Config.max) ?buffer_peak instrs =
  Sanitizer.run config (Program.make ~name:"t" ?buffer_peak instrs)

let test_sanitizer_zoo_clean () =
  List.iter
    (fun g ->
      List.iter
        (fun config ->
          if Config.supports config (Ascend.Nn.Graph.dtype g) then
            List.iter
              (fun options ->
                List.iter
                  (fun ((grp : Ascend.Compiler.Fusion.t), p) ->
                    let r = Sanitizer.run config p in
                    if not (Sanitizer.clean r) then
                      Alcotest.failf "%s / %s: %s" config.Config.name
                        grp.Ascend.Compiler.Fusion.tag
                        (String.concat "," (san_classes r)))
                  (Codegen.graph_programs ~options config g))
              [
                Codegen.default_options;
                { Codegen.default_options with
                  Codegen.sync_mode = Codegen.Coarse_barriers;
                  double_buffer = false };
              ])
        [ Config.tiny; Config.max ])
    [ Ascend.Nn.Resnet.v1_5_18 (); Ascend.Nn.Gesture.build () ]

let test_sanitizer_uninit_read () =
  (* a slot is read before any write established it *)
  let r =
    sanitize
      ~buffer_peak:[ (Buffer_id.L0a, 512) ]
      [ mte Buffer_id.L1 Buffer_id.L0a 512 ]
  in
  Alcotest.(check (list string)) "read before write" [ "uninit-read" ]
    (san_classes r);
  (* extent: 100 B written, then 512 B moved out of the slot *)
  let r2 =
    sanitize
      ~buffer_peak:[ (Buffer_id.L1, 100); (Buffer_id.L0a, 512) ]
      [
        mte Buffer_id.External Buffer_id.L1 100;
        Instruction.Barrier;
        mte Buffer_id.L1 Buffer_id.L0a 512;
      ]
  in
  Alcotest.(check (list string)) "read past the written extent"
    [ "uninit-read" ] (san_classes r2)

let test_sanitizer_slot_overflow () =
  (* a 32x32 accumulating matmul lands in an L0C slot whose allocating
     16x16 write established only 1 KiB: the in-place write overflows
     the slot and its accumulate read runs past the written extent *)
  let r =
    sanitize
      ~buffer_peak:
        [
          (Buffer_id.L1, 4096); (Buffer_id.L0a, 2048); (Buffer_id.L0b, 2048);
          (Buffer_id.L0c, 1024);
        ]
      [
        mte Buffer_id.External Buffer_id.L1 4096;
        Instruction.Barrier;
        mte Buffer_id.L1 Buffer_id.L0a 2048;
        mte Buffer_id.L1 Buffer_id.L0b 2048;
        Instruction.Barrier;
        cube 16 16 16;
        cube ~accumulate:true 32 32 32;
      ]
  in
  Alcotest.(check (list string)) "overflow and extent read"
    [ "slot-overflow"; "uninit-read" ]
    (san_classes r)

let test_sanitizer_hazard_and_ordering () =
  (* cross-pipe slot reuse: MTE2 fills UB, MTE3 drains it — racy
     without a flag, proven ordered with one *)
  let fill = mte Buffer_id.External Buffer_id.Ub 1024 in
  let drain = mte Buffer_id.Ub Buffer_id.External 1024 in
  let peaks = [ (Buffer_id.Ub, 1024) ] in
  let racy = sanitize ~buffer_peak:peaks [ fill; drain ] in
  Alcotest.(check (list string)) "unordered cross-pipe reuse"
    [ "hazard/RAW" ] (san_classes racy);
  let ordered =
    sanitize ~buffer_peak:peaks
      [ fill; set Pipe.Mte2 Pipe.Mte3 0; wait Pipe.Mte2 Pipe.Mte3 0; drain ]
  in
  Alcotest.(check (list string)) "a satisfied flag orders them" []
    (san_classes ordered)

let test_sanitizer_deadlock () =
  let r = sanitize [ wait Pipe.Cube Pipe.Vector 0 ] in
  Alcotest.(check (list string)) "wedged replay" [ "deadlock" ]
    (san_classes r)

let test_sanitizer_flag_leak () =
  let r = sanitize [ set Pipe.Cube Pipe.Vector 0 ] in
  Alcotest.(check (list string)) "unconsumed set" [ "flag-leak" ]
    (san_classes r)

let test_sanitizer_capacity () =
  let big = Config.max.Config.buffers.Config.ub_bytes + 16 in
  let r =
    sanitize
      ~buffer_peak:[ (Buffer_id.Ub, big) ]
      [ mte Buffer_id.External Buffer_id.Ub big ]
  in
  Alcotest.(check bool) "runtime capacity overflow" true
    (List.mem "capacity-overflow" (san_classes r))

let test_sanitizer_peak_mismatch () =
  let fill = mte Buffer_id.External Buffer_id.Ub 1000 in
  let under = sanitize ~buffer_peak:[ (Buffer_id.Ub, 500) ] [ fill ] in
  Alcotest.(check (list string)) "understate" [ "peak-mismatch" ]
    (san_classes under);
  Alcotest.(check bool) "understate is an error" true
    (List.for_all Finding.is_error under.Sanitizer.findings);
  let over = sanitize ~buffer_peak:[ (Buffer_id.Ub, 2000) ] [ fill ] in
  Alcotest.(check (list string)) "overstate" [ "peak-mismatch" ]
    (san_classes over);
  Alcotest.(check bool) "overstate is a warning" true
    (List.for_all
       (fun f -> not (Finding.is_error f))
       over.Sanitizer.findings)

(* ------------------------------------------------------------------ *)
(* Differential property: for every mutation class, the static         *)
(* analyzer and the sanitizer reach the same verdict                   *)

let compiled_program () =
  Corpus.longest
    (List.map snd
       (Codegen.graph_programs Config.max (Ascend.Nn.Resnet.v1_5_18 ())))

let test_differential_clean_agreement () =
  let p = compiled_program () in
  Alcotest.(check bool) "static clean" true (Verify.analyze Config.max p = []);
  Alcotest.(check bool) "sanitizer clean" true
    (Sanitizer.clean (Sanitizer.run Config.max p))

let has_kind k fs = List.exists (fun (f : Finding.t) -> f.Finding.kind = k) fs

let differential_prop name ~count mutate check_static check_dynamic =
  QCheck.Test.make ~count ~name
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = compiled_program () in
      match mutate seed p with
      | None -> QCheck.assume_fail ()
      | Some m ->
        let static_findings = Verify.analyze Config.max m in
        let dynamic = Sanitizer.run Config.max m in
        static_findings <> []
        && (not (Sanitizer.clean dynamic))
        && check_static static_findings
        && check_dynamic dynamic.Sanitizer.findings)

let drop_set_differential =
  differential_prop
    "skipping a slot's flag-set: both checkers report, static as deadlock"
    ~count:15
    (fun seed p ->
      Option.map
        (fun n ->
          { p with
            Program.instructions = Corpus.drop_nth n p.Program.instructions })
        (Corpus.pick seed
           (Corpus.positions_of
              (function Instruction.Set_flag _ -> true | _ -> false)
              p.Program.instructions)))
    (has_kind Finding.Deadlock)
    (fun _ -> true)

let drop_wait_differential =
  differential_prop
    "dropping a wait: both checkers report the unsynchronised reuse"
    ~count:15
    (fun seed p ->
      Option.map
        (fun n ->
          { p with
            Program.instructions = Corpus.drop_nth n p.Program.instructions })
        (Corpus.pick seed
           (Corpus.positions_of
              (function Instruction.Wait_flag _ -> true | _ -> false)
              p.Program.instructions)))
    (fun _ -> true)
    (fun _ -> true)

let shrink_peak_differential =
  differential_prop
    "shrinking a declared footprint: both checkers report a peak mismatch"
    ~count:15
    (fun seed p ->
      match p.Program.buffer_peak with
      | [] -> None
      | peaks ->
        let n = seed mod List.length peaks in
        Some
          { p with
            Program.buffer_peak =
              List.mapi
                (fun i (b, v) ->
                  if i = n then (b, max 0 ((v / 2) - 1)) else (b, v))
                peaks;
          })
    (has_kind Finding.Peak_mismatch)
    (has_kind Finding.Peak_mismatch)

(* ------------------------------------------------------------------ *)
(* Pin: one digest over every simulator report and sanitizer report of  *)
(* a fixed corpus, recorded before the two engines shared a dispatch    *)
(* loop, so any change in issue order, timing, energy summation or      *)
(* finding discovery order moves it                                     *)

let pin_report (r : Simulator.report) =
  let b = Buffer.create 256 in
  Printf.bprintf b "c%d e%h m%d" r.Simulator.total_cycles r.Simulator.energy_j
    r.Simulator.cube_macs_executed;
  Array.iter
    (fun (s : Simulator.pipe_stats) ->
      Printf.bprintf b " p%d/%d" s.Simulator.busy_cycles
        s.Simulator.instruction_count)
    r.Simulator.pipes;
  Array.iter
    (fun (t : Simulator.buffer_traffic) ->
      Printf.bprintf b " b%d/%d" t.Simulator.read_bytes
        t.Simulator.written_bytes)
    r.Simulator.traffic;
  Buffer.contents b

let pin_simulation ?trace config p =
  match Simulator.run ?trace config p with
  | Error e -> "E " ^ e
  | Ok r ->
    String.concat "\n"
      (pin_report r
      :: List.map
           (fun (e : Simulator.trace_entry) ->
             Format.asprintf "%d %s %d %d %a" e.Simulator.index
               (Pipe.name e.Simulator.pipe) e.Simulator.start_cycle
               e.Simulator.end_cycle Instruction.pp e.Simulator.instr)
           r.Simulator.trace)

let pin_sanitizer config p =
  let r = Sanitizer.run config p in
  String.concat "\n"
    (string_of_int r.Sanitizer.instructions_executed
    :: List.map Finding.to_string r.Sanitizer.findings)

let test_reports_pinned () =
  let parts = ref [] in
  let add s = parts := s :: !parts in
  Corpus.iter (fun ~core ~combo config programs ->
      List.iter
        (fun p ->
          add (pin_simulation config p);
          add (pin_sanitizer config p))
        programs;
      (* one traced program per graph, and the mutation corpus on the
         longest program of the first core *)
      let longest = Corpus.longest programs in
      if core = 0 && combo = 0 then
        add (pin_simulation ~trace:true config longest);
      if core = 0 then
        List.iter
          (fun m ->
            add (pin_simulation config m);
            add (pin_sanitizer config m))
          (Corpus.mutants longest));
  (match Ascend.Exec.Trace.model Config.tiny (Ascend.Nn.Gesture.build ()) with
  | Ok c -> add (Ascend.Util.Json.to_string c.Ascend.Exec.Trace.json)
  | Error e -> Alcotest.failf "trace capture: %s" e);
  let all = List.rev !parts in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("corpus reaches " ^ needle) true
        (List.exists (Corpus.contains needle) all))
    [ "E deadlock: "; "E validation: "; "replay wedged"; "illegal MTE" ];
  Alcotest.(check string) "report digest" "97a1b405464c1a14b2acbabfb9defbda"
    (Digest.to_hex (Digest.string (String.concat "\n--\n" all)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "core_sim"
    [
      ( "latency",
        [
          Alcotest.test_case "cube" `Quick test_latency_cube;
          Alcotest.test_case "vector" `Quick test_latency_vector;
          Alcotest.test_case "mte" `Quick test_latency_mte;
        ] );
      ( "execution",
        [
          Alcotest.test_case "single instruction" `Quick test_single_instruction;
          Alcotest.test_case "pipes overlap" `Quick test_pipes_overlap;
          Alcotest.test_case "flags serialise" `Quick test_flags_serialise;
          Alcotest.test_case "late set" `Quick
            test_set_before_wait_in_program_order_not_required;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "barrier drains" `Quick test_barrier_drains;
          Alcotest.test_case "makespan >= busy" `Quick test_makespan_at_least_busy;
          Alcotest.test_case "dispatch rate" `Quick test_dispatch_rate;
          q random_program_prop;
          q monotone_bytes_prop;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "traffic" `Quick test_traffic_accounting;
          Alcotest.test_case "int4 traffic ceiling" `Quick
            test_int4_traffic_ceiling;
          Alcotest.test_case "energy" `Quick test_energy_positive_and_scales;
          Alcotest.test_case "energy of a set/wait pair" `Quick
            test_energy_set_wait_pair;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "timeline" `Quick test_timeline;
          Alcotest.test_case "timeline degenerate" `Quick
            test_timeline_degenerate;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "zoo programs clean" `Slow
            test_sanitizer_zoo_clean;
          Alcotest.test_case "uninit read" `Quick test_sanitizer_uninit_read;
          Alcotest.test_case "slot overflow" `Quick
            test_sanitizer_slot_overflow;
          Alcotest.test_case "hazard and ordering" `Quick
            test_sanitizer_hazard_and_ordering;
          Alcotest.test_case "deadlock" `Quick test_sanitizer_deadlock;
          Alcotest.test_case "flag leak" `Quick test_sanitizer_flag_leak;
          Alcotest.test_case "runtime capacity" `Quick test_sanitizer_capacity;
          Alcotest.test_case "peak mismatch" `Quick
            test_sanitizer_peak_mismatch;
        ] );
      ( "differential",
        [
          Alcotest.test_case "clean agreement" `Quick
            test_differential_clean_agreement;
          q drop_set_differential;
          q drop_wait_differential;
          q shrink_peak_differential;
        ] );
      ( "pin",
        [ Alcotest.test_case "reports and findings" `Quick test_reports_pinned ]
      );
    ]
