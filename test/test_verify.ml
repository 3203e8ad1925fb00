open Ascend.Isa
module Config = Ascend.Arch.Config
module Precision = Ascend.Arch.Precision
module Codegen = Ascend.Compiler.Codegen
module Verify = Ascend.Verify
module Finding = Ascend.Verify.Finding

let set f t flag = Instruction.set_flag ~from_pipe:f ~to_pipe:t ~flag
let wait f t flag = Instruction.wait_flag ~from_pipe:f ~to_pipe:t ~flag

let classes findings =
  List.sort_uniq compare
    (List.map
       (fun (f : Finding.t) ->
         match f.Finding.kind with
         | Finding.Deadlock -> "deadlock"
         | Finding.Hazard { dep } -> "hazard/" ^ dep
         | Finding.Peak_mismatch -> "peak"
         | Finding.Capacity_overflow -> "capacity"
         | Finding.Flag_leak -> "leak"
         | Finding.Malformed -> "malformed"
         | Finding.Soc_race { dep } -> "soc-race/" ^ dep
         | Finding.Soc_deadlock -> "soc-deadlock"
         | Finding.Soc_overcommit { resource } -> "soc-overcommit/" ^ resource
         | Finding.Uninit_read -> "uninit-read"
         | Finding.Slot_overflow -> "slot-overflow"
         | Finding.Coll_unmatched -> "coll-unmatched"
         | Finding.Coll_deadlock -> "coll-deadlock"
         | Finding.Coll_overcommit { resource } -> "coll-overcommit/" ^ resource
         | Finding.Coll_incomplete -> "coll-incomplete"
         | Finding.Coll_race { dep } -> "coll-race/" ^ dep)
       findings)

let report findings = Format.asprintf "%a" Verify.pp_report findings

(* ------------------------------------------------------------------ *)
(* The model zoo is clean under every option combination               *)

let test_zoo_clean_all_options () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun config ->
          List.iter
            (fun options ->
              List.iter
                (fun (grp, p) ->
                  match Verify.analyze config p with
                  | [] -> ()
                  | fs ->
                    Alcotest.failf "%s / %s / %s: %s" name config.Config.name
                      grp.Ascend.Compiler.Fusion.tag (report fs))
                (Codegen.graph_programs ~options config g))
            Ascend.Zoo.option_combos)
        (Ascend.Zoo.supporting g))
    (Corpus.zoo ())

(* ------------------------------------------------------------------ *)
(* Deadlock detection is happens-before reachability, not counting     *)

let cyclic_wait_program =
  (* flag counts balance per triple, yet no interleaving can run this:
     Vector blocks on flag 0 before its set of flag 1, while Cube blocks
     on flag 1 before its set of flag 0 *)
  Program.make ~name:"cycle"
    [
      wait Pipe.Cube Pipe.Vector 0;
      set Pipe.Vector Pipe.Cube 1;
      wait Pipe.Vector Pipe.Cube 1;
      set Pipe.Cube Pipe.Vector 0;
    ]

let test_cyclic_wait_deadlock () =
  (match Program.validate Config.max cyclic_wait_program with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "flag counting must accept the cycle: %s" e);
  let fs = Verify.analyze Config.max cyclic_wait_program in
  Alcotest.(check (list string)) "cycle detected" [ "deadlock" ] (classes fs);
  Alcotest.(check bool) "the cycle is an error" true (Verify.errors fs <> [])

let test_wait_ordering_not_counting () =
  (* one set, one wait — balanced — but the wait is queued before any
     set of its triple can possibly run: the set itself sits behind the
     wait on the same pipe, so the wait ordinal can never be reached *)
  let p =
    Program.make ~name:"self-block"
      [ wait Pipe.Cube Pipe.Cube 0; set Pipe.Cube Pipe.Cube 0 ]
  in
  (match Program.validate Config.max p with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "flag counting must accept: %s" e);
  let fs = Verify.analyze Config.max p in
  Alcotest.(check (list string)) "self-block detected" [ "deadlock" ]
    (classes fs)

(* ------------------------------------------------------------------ *)
(* Hazards: broken double-buffering must be flagged                    *)

(* the largest cube-anchored program exercises every ring *)
let gemm_program () =
  Corpus.longest
    (List.map snd
       (Codegen.graph_programs Config.max (Ascend.Nn.Resnet.v1_5_18 ())))

let test_broken_double_buffering_detected () =
  let p = gemm_program () in
  Alcotest.(check (list string)) "baseline clean" []
    (classes (Verify.analyze Config.max p));
  (* remove the first L0-ring backpressure wait (Cube -> MTE1): MTE1 is
     then free to overwrite an L0 slot the cube is still reading *)
  let idx =
    let found = ref (-1) in
    List.iteri
      (fun i instr ->
        match instr with
        | Instruction.Wait_flag { from_pipe = Pipe.Cube; to_pipe = Pipe.Mte1; _ }
          when !found < 0 ->
          found := i
        | _ -> ())
      p.Program.instructions;
    if !found < 0 then Alcotest.fail "no L0 backpressure wait found";
    !found
  in
  let broken =
    { p with
      Program.instructions = Corpus.drop_nth idx p.Program.instructions }
  in
  let fs = Verify.analyze Config.max broken in
  let cls = classes fs in
  Alcotest.(check bool)
    (Printf.sprintf "WAR hazard reported (got %s)" (String.concat "," cls))
    true
    (List.mem "hazard/WAR" cls);
  Alcotest.(check bool) "dropped wait also leaks the flag" true
    (List.mem "leak" cls)

(* ------------------------------------------------------------------ *)
(* Mutation property tests: the verifier finds exactly the injected    *)
(* defect class                                                        *)

let subset ~of_:allowed cls = List.for_all (fun c -> List.mem c allowed) cls

let mutation_prop name ~count mutate check =
  QCheck.Test.make ~count ~name
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = gemm_program () in
      match mutate seed p with
      | None -> QCheck.assume_fail ()
      | Some mutated -> check (classes (Verify.analyze Config.max mutated)))

let drop_set_prop =
  mutation_prop "dropping a random Set_flag yields exactly a deadlock"
    ~count:25
    (fun seed p ->
      let sets =
        Corpus.positions_of
          (function Instruction.Set_flag _ -> true | _ -> false)
          p.Program.instructions
      in
      Option.map
        (fun n ->
          { p with
            Program.instructions = Corpus.drop_nth n p.Program.instructions })
        (Corpus.pick seed sets))
    (fun cls -> cls = [ "deadlock" ])

let swap_wait_prop =
  mutation_prop
    "swapping a Wait_flag's pipe pair deadlocks (plus leaks the orphaned set)"
    ~count:25
    (fun seed p ->
      let waits =
        Corpus.positions_of
          (function Instruction.Wait_flag _ -> true | _ -> false)
          p.Program.instructions
      in
      Option.map
        (fun n ->
          let instructions =
            List.mapi
              (fun i instr ->
                match instr with
                | Instruction.Wait_flag { from_pipe; to_pipe; flag } when i = n
                  ->
                  Instruction.wait_flag ~from_pipe:to_pipe ~to_pipe:from_pipe
                    ~flag
                | _ -> instr)
              p.Program.instructions
          in
          { p with Program.instructions })
        (Corpus.pick seed waits))
    (fun cls ->
      List.mem "deadlock" cls && subset ~of_:[ "deadlock"; "leak" ] cls)

let shrink_peak_prop =
  mutation_prop
    "shrinking a declared buffer peak yields exactly a peak mismatch"
    ~count:25
    (fun seed p ->
      match p.Program.buffer_peak with
      | [] -> None
      | peaks ->
        let n = seed mod List.length peaks in
        let buffer_peak =
          List.mapi
            (fun i (buf, bytes) ->
              if i = n then (buf, max 0 ((bytes / 2) - 1)) else (buf, bytes))
            peaks
        in
        Some { p with Program.buffer_peak })
    (fun cls -> cls = [ "peak" ])

(* ------------------------------------------------------------------ *)
(* Flag leaks                                                          *)

let leaky_program =
  Program.make ~name:"leaky"
    [
      set Pipe.Cube Pipe.Vector 3;
      wait Pipe.Cube Pipe.Vector 3;
      set Pipe.Cube Pipe.Vector 3;
    ]

let test_flag_leak_detected () =
  let fs = Verify.analyze Config.max leaky_program in
  Alcotest.(check (list string)) "leak found" [ "leak" ] (classes fs);
  match Program.flag_leaks leaky_program with
  | [ (Pipe.Cube, Pipe.Vector, 3, 1) ] -> ()
  | _ -> Alcotest.fail "flag_leaks must report the Cube->Vector #3 leak"

(* ------------------------------------------------------------------ *)
(* Peak recomputation                                                  *)

let test_derived_buffer_peak () =
  let p =
    Program.make ~name:"peaks"
      [
        Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.Ub
          ~dst_slot:0 ~bytes:1000 ();
        Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.Ub
          ~dst_slot:1 ~bytes:500 ();
        (* in-place update: no extra allocation *)
        Instruction.vector_op ~op_name:"t" ~bytes:800 ~ub_in_slot:0
          ~ub_out_slot:0 ();
      ]
  in
  Alcotest.(check int) "two slots sum" 1500
    (List.assoc Buffer_id.Ub Program.(derived_buffer_peak (sync p)))

let test_capacity_overflow_detected () =
  let big = Config.max.Config.buffers.ub_bytes + 16 in
  let p =
    Program.make ~name:"huge"
      ~buffer_peak:[ (Buffer_id.Ub, big) ]
      [
        Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.Ub
          ~bytes:big ();
      ]
  in
  let cls = classes (Verify.analyze Config.max p) in
  Alcotest.(check bool) "capacity overflow reported" true
    (List.mem "capacity" cls)

(* ------------------------------------------------------------------ *)
(* Whole-SoC schedule analysis                                         *)

module Soc = Ascend.Verify.Soc
module Soc_schedule = Ascend.Compiler.Soc_schedule

let region base bytes = { Soc.base; bytes }

let task ?(deps = []) ?(reads = []) ?(writes = []) ?(working_set = 0) id core
    tag =
  {
    Soc.id;
    core;
    tag;
    deps;
    reads;
    writes;
    ext_read_bytes = 0;
    ext_write_bytes = 0;
    working_set_bytes = working_set;
  }

let plan ?(cores = 2) ?llc_bytes ?hbm_bytes ?(weights = 0) tasks =
  {
    Soc.soc_name = "test";
    cores;
    llc_bytes;
    hbm_bytes;
    weight_resident_bytes = weights;
    tasks;
  }

let test_soc_zoo_plans_race_free () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun config ->
          let p, _ = Soc_schedule.build config g in
          match Soc.analyze p with
          | [] -> ()
          | fs ->
            Alcotest.failf "%s / %s: %s" name config.Config.name (report fs))
        (Ascend.Zoo.supporting g))
    (Corpus.zoo ())

let test_soc_cross_core_races () =
  let w = task 0 0 "w" ~writes:[ ("a", region 0 100) ] in
  let r1 = task 1 1 "r" ~reads:[ ("a", region 0 100) ] in
  Alcotest.(check (list string)) "RAW" [ "soc-race/RAW" ]
    (classes (Soc.analyze (plan [ w; r1 ])));
  Alcotest.(check (list string)) "dep edge orders them" []
    (classes (Soc.analyze (plan [ w; { r1 with Soc.deps = [ 0 ] } ])));
  Alcotest.(check (list string)) "same core is program order" []
    (classes (Soc.analyze (plan [ w; { r1 with Soc.core = 0 } ])));
  let w2 = task 1 1 "w2" ~writes:[ ("b", region 50 100) ] in
  Alcotest.(check (list string)) "WAW" [ "soc-race/WAW" ]
    (classes (Soc.analyze (plan [ w; w2 ])));
  let rd = task 0 0 "rd" ~reads:[ ("a", region 0 100) ] in
  Alcotest.(check (list string)) "WAR" [ "soc-race/WAR" ]
    (classes (Soc.analyze (plan [ rd; w2 ])));
  Alcotest.(check (list string)) "disjoint regions never race" []
    (classes
       (Soc.analyze
          (plan [ w; task 1 1 "far" ~writes:[ ("c", region 1000 8) ] ])))

let test_soc_transitive_order () =
  (* ordering propagates through the dependency graph: t0 -> t1 -> t2
     orders t0 and t2 even though no direct edge connects them *)
  let t0 = task 0 0 "t0" ~writes:[ ("a", region 0 100) ] in
  let t1 = task 1 1 "t1" ~deps:[ 0 ] in
  let t2 = task 2 2 "t2" ~deps:[ 1 ] ~reads:[ ("a", region 0 100) ] in
  Alcotest.(check (list string)) "transitive edge orders the pair" []
    (classes (Soc.analyze (plan ~cores:3 [ t0; t1; t2 ])))

let test_soc_deadlock () =
  let a = task 0 0 "a" ~deps:[ 1 ] in
  let b = task 1 1 "b" ~deps:[ 0 ] in
  Alcotest.(check (list string)) "cycle" [ "soc-deadlock" ]
    (classes (Soc.analyze (plan [ a; b ])));
  Alcotest.(check (list string)) "missing dependency" [ "soc-deadlock" ]
    (classes (Soc.analyze (plan [ task 0 0 "x" ~deps:[ 9 ] ])))

let test_soc_core_out_of_range () =
  (* a task on no core of the plan is one malformed finding, and the
     analysis stops there: neither a crash nor a race reported for the
     task that explicitly depends on it *)
  let fs = Soc.analyze (plan [ task 0 (-1) "neg" ]) in
  Alcotest.(check (list string)) "core -1" [ "malformed" ] (classes fs);
  let w = task 0 5 "far" ~writes:[ ("a", region 0 100) ] in
  let w2 = task 1 1 "w2" ~deps:[ 0 ] ~writes:[ ("a", region 0 100) ] in
  let fs = Soc.analyze (plan [ w; w2; task 2 7 "farther" ]) in
  Alcotest.(check (list string)) "core 5 of 2" [ "malformed" ] (classes fs);
  Alcotest.(check (list (option int))) "one per out-of-range task"
    [ Some 0; Some 2 ]
    (List.map (fun (f : Finding.t) -> f.Finding.index) fs)

let test_soc_duplicate_ids () =
  (* r depends on id 0, which both w and x use: one malformed finding for
     the repeat, and no race read off whichever task the id binds to *)
  let w = task 0 0 "w" ~writes:[ ("a", region 0 100) ] in
  let x = task 0 1 "x" in
  let r = task 2 1 "r" ~deps:[ 0 ] ~reads:[ ("a", region 0 100) ] in
  let fs = Soc.analyze (plan [ w; x; r ]) in
  Alcotest.(check (list string)) "malformed, and nothing else"
    [ "[error] malformed @0: task x: duplicate task id 0" ]
    (List.map Finding.to_string fs)

let test_soc_llc_waves () =
  (* A waits for B, so the two never share a wave, whichever is listed
     first; tasks that never start join no wave *)
  let a = task 0 0 "A" ~deps:[ 1 ] ~working_set:600 in
  let b = task 1 1 "B" ~working_set:600 in
  Alcotest.(check (list string)) "A listed first" []
    (classes (Soc.analyze (plan ~llc_bytes:1000 [ a; b ])));
  Alcotest.(check (list string)) "B listed first" []
    (classes (Soc.analyze (plan ~llc_bytes:1000 [ b; a ])));
  Alcotest.(check (list string)) "a cycle starts nothing" [ "soc-deadlock" ]
    (classes
       (Soc.analyze
          (plan ~llc_bytes:1 [ a; { b with Soc.deps = [ 0 ] } ])))

let test_soc_overcommit () =
  let w = task 0 0 "p" ~writes:[ ("a", region 0 1000) ] in
  let r = task 1 1 "c" ~deps:[ 0 ] ~reads:[ ("a", region 0 1000) ] in
  let fs = Soc.analyze (plan ~hbm_bytes:512 ~weights:100 [ w; r ]) in
  Alcotest.(check (list string)) "HBM" [ "soc-overcommit/HBM" ] (classes fs);
  Alcotest.(check bool) "HBM overcommit is an error" true
    (List.for_all Finding.is_error fs);
  Alcotest.(check (list string)) "fits: no finding" []
    (classes (Soc.analyze (plan ~hbm_bytes:4096 ~weights:100 [ w; r ])));
  let b0 = task 0 0 "b0" ~working_set:600 in
  let b1 = task 1 1 "b1" ~working_set:600 in
  let fs2 = Soc.analyze (plan ~llc_bytes:1000 [ b0; b1 ]) in
  Alcotest.(check (list string)) "LLC" [ "soc-overcommit/LLC" ] (classes fs2);
  Alcotest.(check bool) "LLC overcommit is a warning" true
    (List.for_all (fun f -> not (Finding.is_error f)) fs2)

(* the ISSUE's headline mutation: built plans are race-free by
   construction, and dropping a cross-core dependency edge between two
   footprint-conflicting tasks exposes a Soc_race *)
let conflicts (a : Soc.task) (b : Soc.task) =
  let overlap xs ys =
    List.exists
      (fun (_, r1) ->
        List.exists (fun (_, r2) -> Soc.region_overlaps r1 r2) ys)
      xs
  in
  overlap a.Soc.writes b.Soc.writes
  || overlap a.Soc.writes b.Soc.reads
  || overlap a.Soc.reads b.Soc.writes

let test_soc_drop_edge_mutation () =
  let raced_drops = ref 0 in
  List.iter
    (fun g ->
      let p, _ = Soc_schedule.build Config.max g in
      let by_id = Hashtbl.create 64 in
      List.iter
        (fun (t : Soc.task) -> Hashtbl.replace by_id t.Soc.id t)
        p.Soc.tasks;
      List.iter
        (fun (t : Soc.task) ->
          List.iter
            (fun d ->
              match Hashtbl.find_opt by_id d with
              | Some dt when dt.Soc.core <> t.Soc.core && conflicts dt t ->
                let tasks =
                  List.map
                    (fun (u : Soc.task) ->
                      if u.Soc.id = t.Soc.id then
                        { u with
                          Soc.deps = List.filter (fun x -> x <> d) u.Soc.deps
                        }
                      else u)
                    p.Soc.tasks
                in
                if
                  List.exists
                    (fun (f : Finding.t) ->
                      match f.Finding.kind with
                      | Finding.Soc_race _ -> true
                      | _ -> false)
                    (Soc.analyze { p with Soc.tasks })
                then incr raced_drops
              | _ -> ())
            t.Soc.deps)
        p.Soc.tasks)
    [ Ascend.Nn.Siamese.build (); Ascend.Nn.Fpn_detector.build () ];
  Alcotest.(check bool)
    (Printf.sprintf "some dropped cross-core edge races (got %d)" !raced_drops)
    true (!raced_drops > 0)

(* ------------------------------------------------------------------ *)
(* Hb against a naive graph: random small programs over 2-6 pipes      *)

let work_on = function
  | Pipe.Scalar -> Instruction.Scalar_op { cycles = 1 }
  | Pipe.Vector -> Instruction.vector_op ~op_name:"v" ~bytes:16 ()
  | Pipe.Cube ->
    Instruction.cube_matmul ~m:16 ~k:16 ~n:16 ~precision:Precision.Fp16 ()
  | Pipe.Mte1 ->
    Instruction.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a ~bytes:16 ()
  | Pipe.Mte2 ->
    Instruction.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1 ~bytes:16 ()
  | Pipe.Mte3 ->
    Instruction.mte_move ~src:Buffer_id.Ub ~dst:Buffer_id.External ~bytes:16 ()

(* an MTE move no pipe carries *)
let illegal_move =
  Instruction.Mte_move
    { src = Buffer_id.L0c; dst = Buffer_id.L0a; bytes = 16;
      transform = Instruction.Plain; src_slot = 0; dst_slot = 0 }

(* Parts placed at random keys and sorted: work on a pipe, barriers,
   illegal moves, set/wait pairs on a few triples with the set first
   (these alone never deadlock) or the wait first (these may form
   cycles), and lone waits, which can never be satisfied once they
   outnumber their sets.  A few flag ids are out of range: such a set
   or wait, like an illegal move, is on no lane and orders nothing. *)
let hb_program_gen =
  let open QCheck.Gen in
  let* k = int_range 2 6 in
  let* order = shuffle_l Pipe.all in
  let pipe = oneofl (List.filteri (fun i _ -> i < k) order) in
  let key = int_bound 999 in
  let flag_id =
    frequency [ (12, int_bound 1); (1, return (-1)); (1, return 64) ]
  in
  let flag_triple = triple pipe pipe flag_id in
  let pair ~forward =
    map3
      (fun (f, t, flag) a b ->
        let a, b = if (a < b) = forward then (a, b) else (b, a) in
        [ (a, set f t flag); (b, wait f t flag) ])
      flag_triple key key
  in
  let+ parts =
    list_size (int_range 0 12)
      (frequency
         [
           (4, map2 (fun p at -> [ (at, work_on p) ]) pipe key);
           (1, map (fun at -> [ (at, Instruction.Barrier) ]) key);
           (1, map (fun at -> [ (at, illegal_move) ]) key);
           (4, pair ~forward:true);
           (1, pair ~forward:false);
           ( 1,
             map2
               (fun (f, t, flag) at -> [ (at, wait f t flag) ])
               flag_triple key );
         ])
  in
  List.concat parts
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let in_range flag = flag >= 0 && flag <= Program.max_flag

(* the pipe an instruction is on: none for an illegal move or a flag id
   out of range *)
let lane_of = function
  | Instruction.Set_flag { flag; _ } | Instruction.Wait_flag { flag; _ }
    when not (in_range flag) ->
    None
  | x -> Instruction.pipe_of x

(* the explicit edge set: per-lane program order with barriers on every
   lane, and the k-th set of a triple to its k-th wait; [unsat] marks the
   waits past a triple's last set *)
let naive_edges (instrs : Instruction.t array) =
  let n = Array.length instrs in
  let edges = ref [] in
  List.iter
    (fun p ->
      let prev = ref (-1) in
      Array.iteri
        (fun i x ->
          let on_lane =
            match x with
            | Instruction.Barrier -> true
            | _ -> lane_of x = Some p
          in
          if on_lane then begin
            if !prev >= 0 then edges := (!prev, i) :: !edges;
            prev := i
          end)
        instrs)
    Pipe.all;
  let unsat = Array.make n false in
  let flag_of = function
    | Instruction.Set_flag { from_pipe; to_pipe; flag } when in_range flag ->
      Some (`Set, (from_pipe, to_pipe, flag))
    | Instruction.Wait_flag { from_pipe; to_pipe; flag } when in_range flag ->
      Some (`Wait, (from_pipe, to_pipe, flag))
    | _ -> None
  in
  let indexed = List.mapi (fun i x -> (i, flag_of x)) (Array.to_list instrs) in
  let on role tr =
    List.filter_map
      (fun (i, f) -> if f = Some (role, tr) then Some i else None)
      indexed
  in
  List.filter_map (fun (_, f) -> Option.map snd f) indexed
  |> List.sort_uniq compare
  |> List.iter (fun tr ->
         let sets = on `Set tr in
         List.iteri
           (fun k w ->
             match List.nth_opt sets k with
             | Some s -> edges := (s, w) :: !edges
             | None -> unsat.(w) <- true)
           (on `Wait tr));
  (!edges, unsat)

(* Kahn's algorithm with every unsatisfiable wait pinned: does it reach
   every node? *)
let naive_kahn_complete n edges unsat =
  let indeg = Array.map (fun u -> if u then 1 else 0) unsat in
  List.iter (fun (_, b) -> indeg.(b) <- indeg.(b) + 1) edges;
  let queue = Queue.create () and reached = ref 0 in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr reached;
    List.iter
      (fun (a, b) ->
        if a = i then begin
          indeg.(b) <- indeg.(b) - 1;
          if indeg.(b) = 0 then Queue.add b queue
        end)
      edges
  done;
  !reached = n

let reaches edges a b =
  let seen = Hashtbl.create 16 in
  let rec go i =
    i = b
    || (not (Hashtbl.mem seen i))
       && begin
         Hashtbl.add seen i ();
         List.exists (fun (x, y) -> x = i && go y) edges
       end
  in
  go a

let hb_program =
  QCheck.make
    ~print:(fun l ->
      Format.asprintf "%a" Program.pp (Program.make ~name:"hb" l))
    hb_program_gen

let hb_of instrs =
  Verify.Hb.build (Program.sync (Program.make ~name:"hb" instrs))

let hb_naive_prop =
  QCheck.Test.make ~count:500
    ~name:"Hb: deadlock iff naive Kahn stalls; hb is reachability" hb_program
    (fun instrs ->
      let g = hb_of instrs in
      let a = Array.of_list instrs in
      let n = Array.length a in
      let edges, unsat = naive_edges a in
      let complete = naive_kahn_complete n edges unsat in
      let mapped =
        List.filter (fun i -> lane_of a.(i) <> None) (List.init n Fun.id)
      in
      (g.Verify.Hb.findings = []) = complete
      && ((not complete)
         || List.for_all
              (fun x ->
                List.for_all
                  (fun y -> Verify.Hb.hb g x y = reaches edges x y)
                  mapped)
              mapped))

module Sanitizer = Ascend.Core_sim.Sanitizer

(* the (from, to, flag) a deadlock or leak message names, pipes by name *)
let flag_named (f : Finding.t) =
  let m = f.Finding.message in
  let rec at i = if String.sub m i 5 = "flag " then i else at (i + 1) in
  let i = at 0 in
  Scanf.sscanf
    (String.sub m i (String.length m - i))
    "flag %s@->%s #%d" (fun a b c -> (a, b, c))

let of_kind k fs = List.filter (fun (f : Finding.t) -> f.Finding.kind = k) fs

let sanitizer_hb_prop =
  QCheck.Test.make ~count:500
    ~name:"Sanitizer: deadlock iff Hb finds one; else its leaks are \
           Program.flag_leaks"
    hb_program
    (fun instrs ->
      let p = Program.make ~name:"hb" instrs in
      let static = (hb_of instrs).Verify.Hb.findings <> [] in
      let dynamic = (Sanitizer.run Config.max p).Sanitizer.findings in
      let leaks =
        List.map
          (fun f ->
            let a, b, c = flag_named f in
            ( (a, b, c),
              Scanf.sscanf f.Finding.message "%_s@#%_d ends the replay with %d"
                Fun.id ))
          (of_kind Finding.Flag_leak dynamic)
      in
      (of_kind Finding.Deadlock dynamic <> []) = static
      && (static
         || List.sort compare leaks
            = List.sort compare
                (List.map
                   (fun (f, t, flag, n) ->
                     ((Pipe.name f, Pipe.name t, flag), n))
                   (Program.flag_leaks p))))

let test_triple_order () =
  (* three unsatisfiable triples and three leaking ones, each listed in
     descending (from, to, flag) order *)
  let p =
    Program.make ~name:"order"
      [
        set Pipe.Mte3 Pipe.Vector 9;
        set Pipe.Vector Pipe.Cube 5;
        set Pipe.Scalar Pipe.Vector 2;
        wait Pipe.Mte2 Pipe.Mte1 4;
        wait Pipe.Cube Pipe.Vector 7;
        wait Pipe.Scalar Pipe.Cube 1;
      ]
  in
  let named k fs = List.map flag_named (of_kind k fs) in
  let static = Verify.analyze Config.max p in
  let dynamic = (Sanitizer.run Config.max p).Sanitizer.findings in
  let leaks = [ ("S", "V", 2); ("V", "M", 5); ("MTE3", "V", 9) ] in
  Alcotest.(check (list (triple string string int)))
    "unsatisfiable waits"
    [ ("S", "M", 1); ("M", "V", 7); ("MTE2", "MTE1", 4) ]
    (named Finding.Deadlock static);
  Alcotest.(check (list (triple string string int))) "static leaks" leaks
    (named Finding.Flag_leak static);
  Alcotest.(check (list (triple string string int))) "replay leaks" leaks
    (named Finding.Flag_leak dynamic)

let test_out_of_range_flag () =
  (* flag 64 is past every pipe pair's 0..63: the pair is malformed in
     both checkers and orders nothing, so the fill and the drain race *)
  let mte src dst = Instruction.mte_move ~src ~dst ~bytes:1024 () in
  let p =
    Program.make ~name:"flag64"
      ~buffer_peak:[ (Buffer_id.Ub, 1024) ]
      [
        mte Buffer_id.External Buffer_id.Ub;
        set Pipe.Mte2 Pipe.Mte3 64;
        wait Pipe.Mte2 Pipe.Mte3 64;
        mte Buffer_id.Ub Buffer_id.External;
      ]
  in
  let static = Verify.analyze Config.max p in
  let dynamic = (Sanitizer.run Config.max p).Sanitizer.findings in
  let malformed fs =
    List.map Finding.to_string (of_kind Finding.Malformed fs)
  in
  Alcotest.(check (list string)) "one finding each for the set and the wait"
    [
      "[error] malformed @1: flag id 64 out of range 0..63";
      "[error] malformed @2: flag id 64 out of range 0..63";
    ]
    (malformed static);
  Alcotest.(check (list string)) "the sanitizer's are the same"
    (malformed static) (malformed dynamic);
  Alcotest.(check (list string)) "static: malformed and the race"
    [ "hazard/RAW"; "malformed" ] (classes static);
  Alcotest.(check (list string)) "replay: malformed and the race"
    [ "hazard/RAW"; "malformed" ] (classes dynamic)

(* ------------------------------------------------------------------ *)
(* The two peak computations agree: random legal data programs         *)

(* Moves on every legal pair, cube and vector work on slots 0-2, byte
   counts in 512 B steps so that declared peaks often match, set/wait
   pairs in either order (a wait first may deadlock) and barriers,
   placed at random keys and sorted; each on-chip buffer declares no
   peak or a random one. *)
let data_program_gen =
  let open QCheck.Gen in
  let key = int_bound 999 and slot = int_bound 2 in
  let bytes = map (fun k -> 512 * k) (int_bound 4) in
  let legal =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            Option.map (fun _ -> (src, dst)) (Buffer_id.legal_move ~src ~dst))
          Buffer_id.all)
      Buffer_id.all
  in
  let move =
    let+ src, dst = oneofl legal
    and+ src_slot = slot
    and+ dst_slot = slot
    and+ bytes = bytes in
    Instruction.mte_move ~src ~dst ~src_slot ~dst_slot ~bytes ()
  in
  let cube =
    let dim = oneofl [ 16; 32 ] in
    let+ m = dim
    and+ k = dim
    and+ n = dim
    and+ accumulate = bool
    and+ l0a_slot = slot
    and+ l0b_slot = slot
    and+ l0c_slot = slot in
    Instruction.cube_matmul ~m ~k ~n ~precision:Precision.Fp16 ~accumulate
      ~l0a_slot ~l0b_slot ~l0c_slot ()
  in
  let vector =
    let+ bytes = bytes
    and+ reads_ub = bool
    and+ writes_ub = bool
    and+ ub_in_slot = slot
    and+ ub_out_slot = slot in
    Instruction.vector_op ~op_name:"v" ~bytes ~reads_ub ~writes_ub
      ~ub_in_slot ~ub_out_slot ()
  in
  let pair =
    let pipe = oneofl Pipe.all in
    let+ f = pipe and+ t = pipe and+ flag = int_bound 1 and+ a = key
    and+ b = key in
    [ (a, set f t flag); (b, wait f t flag) ]
  in
  let at g = map2 (fun at x -> [ (at, x) ]) key g in
  let+ parts =
    list_size (int_range 0 16)
      (frequency
         [
           (4, at move);
           (2, at cube);
           (2, at vector);
           (1, at (return Instruction.Barrier));
           (2, pair);
         ])
  and+ peaks =
    flatten_l
      (List.map
         (fun buf ->
           map (Option.map (fun k -> (buf, 512 * k))) (opt (int_bound 8)))
         Buffer_id.[ L0a; L0b; L0c; L1; Ub ])
  in
  Program.make ~name:"data" ~buffer_peak:(List.filter_map Fun.id peaks)
    (List.concat parts
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd)

(* a peak finding's buffer, severity, declared and derived bytes *)
let peak_numbers (f : Finding.t) =
  Scanf.sscanf f.Finding.message "buffer %s@: declared peak %d B %_s the %d B"
    (fun b decl d -> (b, f.Finding.severity = Finding.Error, decl, d))

let peak_agreement_prop =
  QCheck.Test.make ~count:500
    ~name:"Sanitizer: peak mismatches are Verify.analyze's when it drains"
    (QCheck.make ~print:(Format.asprintf "%a" Program.pp) data_program_gen)
    (fun p ->
      let dynamic = (Sanitizer.run Config.max p).Sanitizer.findings in
      let peaks fs = List.map peak_numbers (of_kind Finding.Peak_mismatch fs) in
      of_kind Finding.Deadlock dynamic <> []
      || peaks dynamic = peaks (Verify.analyze Config.max p))

(* Random SoC plans over 1-4 cores: dependencies point backward, forward,
   at the task itself (no edge) or at a missing id; footprints come from
   a small pool of overlapping regions.  Task [i] has id [i] and tag
   [t<i>]. *)
let soc_plan_gen =
  let open QCheck.Gen in
  let* cores = int_range 1 4 in
  let* n = int_range 2 10 in
  let regions =
    List.init 4 (fun k -> ("r" ^ string_of_int k, region (k * 48) 64))
  in
  let footprint = list_size (int_bound 2) (oneofl regions) in
  let dep i =
    frequency
      [
        (8, int_bound (max 0 (i - 1)));
        (1, int_range i (n - 1));
        (1, return (n + 7));
      ]
  in
  let+ tasks =
    flatten_l
      (List.init n (fun i ->
           let* core = int_bound (cores - 1) in
           let* deps = list_size (int_bound 2) (dep i) in
           let* reads = footprint in
           let+ writes = footprint in
           task ~deps ~reads ~writes i core ("t" ^ string_of_int i)))
  in
  plan ~cores tasks

let soc_naive_prop =
  QCheck.Test.make ~count:500
    ~name:"Soc: deadlock iff a dependency is missing or naive Kahn stalls; \
           races are the unordered conflicting pairs"
    (QCheck.make
       ~print:(fun p ->
         Printf.sprintf "%d cores: " p.Soc.cores
         ^ String.concat "; "
           (List.map
              (fun (t : Soc.task) ->
                Printf.sprintf "t%d@c%d deps[%s] r[%s] w[%s]" t.Soc.id
                  t.Soc.core
                  (String.concat "," (List.map string_of_int t.Soc.deps))
                  (String.concat "," (List.map fst t.Soc.reads))
                  (String.concat "," (List.map fst t.Soc.writes)))
              p.Soc.tasks))
       soc_plan_gen)
    (fun p ->
      let a = Array.of_list p.Soc.tasks in
      let n = Array.length a in
      let edges = ref [] in
      Array.iteri
        (fun i (t : Soc.task) ->
          (match
             List.find_opt (fun j -> a.(j).Soc.core = t.Soc.core)
               (List.init i (fun k -> i - 1 - k))
           with
          | Some j -> edges := (j, i) :: !edges
          | None -> ());
          List.iter
            (fun d -> if d < n && d <> i then edges := (d, i) :: !edges)
            t.Soc.deps)
        a;
      let edges = !edges in
      let missing =
        Array.exists
          (fun (t : Soc.task) -> List.exists (fun d -> d >= n) t.Soc.deps)
          a
      in
      let deadlocked =
        missing || not (naive_kahn_complete n edges (Array.make n false))
      in
      let fs = Soc.analyze p in
      let is_deadlock (f : Finding.t) = f.Finding.kind = Finding.Soc_deadlock in
      let expected =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                if
                  a.(i).Soc.core <> a.(j).Soc.core
                  && conflicts a.(i) a.(j)
                  && (not (reaches edges i j))
                  && not (reaches edges j i)
                then Some (i, j)
                else None)
              (List.init (n - i - 1) (fun k -> i + 1 + k)))
          (List.init n Fun.id)
      in
      let race_pair (f : Finding.t) =
        match f.Finding.kind with
        | Finding.Soc_race _ ->
          Some
            ( Scanf.sscanf f.Finding.message
                "%_s race between core %_d task t%d" Fun.id,
              Option.get f.Finding.index )
        | _ -> None
      in
      List.exists is_deadlock fs = deadlocked
      && (deadlocked
         || List.for_all (fun f -> race_pair f <> None) fs
            && List.sort_uniq compare (List.filter_map race_pair fs) = expected
         ))

(* ------------------------------------------------------------------ *)
(* Pin: one digest over the verifier's findings, in discovery order,   *)
(* and Program.validate's verdict on the corpus test_core_sim pins;    *)
(* the mutants reach unsatisfiable waits, cross-pipe cycles and        *)
(* hazards, whose order comes from the triple table and the            *)
(* topological order                                                   *)

let pin_lint config p =
  String.concat "\n"
    ((match Program.validate config p with Ok _ -> "ok" | Error e -> "E " ^ e)
    :: List.map Finding.to_string (Verify.analyze config p))

let test_findings_pinned () =
  let parts = ref [] in
  let add s = parts := s :: !parts in
  Corpus.iter (fun ~core ~combo:_ config programs ->
      List.iter (fun p -> add (pin_lint config p)) programs;
      if core = 0 then
        List.iter
          (fun m -> add (pin_lint config m))
          (Corpus.mutants (Corpus.longest programs)));
  let all = List.rev !parts in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("corpus reaches " ^ needle) true
        (List.exists (Corpus.contains needle) all))
    [
      "is unsatisfiable"; "cross-pipe wait cycle"; "hazard/RAW"; "hazard/WAR";
      "hazard/WAW"; "E flag"; "E instruction";
    ];
  Alcotest.(check string) "finding digest" "0a772dc184676e00777b192258a91d4d"
    (Digest.to_hex (Digest.string (String.concat "\n--\n" all)))

(* ------------------------------------------------------------------ *)
(* Pin: SoC and cluster findings in discovery order, over the built    *)
(* plans of the pin corpus (plus the two branchy graphs whose drops    *)
(* race) and the lint --cluster schedules, each with mutants that      *)
(* reach every SoC and collective finding kind                         *)

module Cluster = Ascend.Verify.Cluster

(* every cross-core dependency dropped in turn, the first task made to
   depend on the last, a dependency on a missing id, and capacities that
   fire both overcommit findings *)
let soc_mutants (p : Soc.plan) =
  let tasks = p.Soc.tasks in
  let core_of = Hashtbl.create 64 in
  List.iter (fun (t : Soc.task) -> Hashtbl.replace core_of t.Soc.id t.Soc.core)
    tasks;
  let edit id f =
    { p with
      Soc.tasks =
        List.map (fun (u : Soc.task) -> if u.Soc.id = id then f u else u) tasks
    }
  in
  let drops =
    List.concat_map
      (fun (t : Soc.task) ->
        List.filter_map
          (fun d ->
            match Hashtbl.find_opt core_of d with
            | Some c when c <> t.Soc.core ->
              Some
                (edit t.Soc.id (fun u ->
                     { u with
                       Soc.deps = List.filter (fun x -> x <> d) u.Soc.deps }))
            | _ -> None)
          t.Soc.deps)
      tasks
  in
  let first = List.hd tasks and last = List.nth tasks (List.length tasks - 1) in
  drops
  @ [
      edit first.Soc.id (fun u ->
          { u with Soc.deps = last.Soc.id :: u.Soc.deps });
      edit last.Soc.id (fun u ->
          { u with Soc.deps = u.Soc.deps @ [ 1_000_000 ] });
      { p with Soc.hbm_bytes = Some 1; llc_bytes = Some 1 };
    ]

(* the first recv dropped, the chain closed into a cycle, a dangling
   dependency, link capacities divided by 4, every reduce made a copy *)
let cluster_mutants (s : Cluster.schedule) =
  let steps f = { s with Cluster.steps = List.map f s.Cluster.steps } in
  let first_deps deps =
    steps (fun (st : Cluster.step) ->
        if st.Cluster.step_id = 0 then { st with Cluster.deps } else st)
  in
  let dropped = ref false in
  let drop_recv (o : Cluster.op) =
    let drop = (not !dropped) && o.Cluster.op_kind = Cluster.Recv in
    if drop then dropped := true;
    not drop
  in
  [
    steps (fun (st : Cluster.step) ->
        { st with Cluster.ops = List.filter drop_recv st.Cluster.ops });
    first_deps [ List.length s.Cluster.steps - 1 ];
    first_deps [ 999 ];
    { s with
      Cluster.links =
        List.map
          (fun (l : Cluster.link) ->
            { l with
              Cluster.capacity_bytes_per_s =
                l.Cluster.capacity_bytes_per_s /. 4. })
          s.Cluster.links };
    steps (fun (st : Cluster.step) ->
        { st with
          Cluster.ops =
            List.map (fun (o : Cluster.op) -> { o with Cluster.reduce = false })
              st.Cluster.ops });
  ]

let test_soc_cluster_findings_pinned () =
  let render fs = String.concat "\n" (List.map Finding.to_string fs) in
  let plans =
    List.concat_map
      (fun g ->
        List.map
          (fun config -> fst (Soc_schedule.build config g))
          (Ascend.Zoo.supporting g))
      (Corpus.graphs ())
    @ List.map
        (fun g -> fst (Soc_schedule.build Config.max g))
        [ Ascend.Nn.Siamese.build (); Ascend.Nn.Fpn_detector.build () ]
  in
  let socs =
    List.concat_map
      (fun p -> List.map (fun m -> render (Soc.analyze m)) (p :: soc_mutants p))
      plans
  in
  let clusters =
    List.concat_map
      (fun (pt : Ascend.Cluster.Collective_schedule.point) ->
        let s = pt.Ascend.Cluster.Collective_schedule.build () in
        List.map
          (fun m -> render (Cluster.analyze m))
          (s :: cluster_mutants s))
      (Ascend.Cluster.Collective_schedule.sweep ())
  in
  let all = socs @ clusters in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("pin corpus reaches " ^ needle) true
        (List.exists (Corpus.contains needle) all))
    [
      "soc-race/RAW"; "soc-race/WAR"; "soc-race/WAW"; "depends on task id";
      "schedule dependency graph is cyclic"; "soc-overcommit/HBM";
      "soc-overcommit/LLC"; "coll-unmatched"; "depends on step id";
      "step dependency graph is cyclic"; "coll-overcommit/link";
      "coll-incomplete";
    ];
  Alcotest.(check int) "42 schedules" (42 * 6) (List.length clusters);
  Alcotest.(check string) "soc and cluster digest"
    "1fde9446227eb7ce667eefe6e0578d54"
    (Digest.to_hex (Digest.string (String.concat "\n--\n" all)))

(* ------------------------------------------------------------------ *)
(* Finding rendering goldens (pinned: the differential CI gate         *)
(* byte-compares documents built from these)                           *)

let test_finding_goldens () =
  let f =
    Finding.make ~index:3 ~pipe:Pipe.Vector ~buffer:Buffer_id.Ub
      (Finding.Hazard { dep = "RAW" })
      "msg"
  in
  Alcotest.(check string) "pp includes pipe and buffer"
    "[error] hazard/RAW @3 (V, UB): msg" (Finding.to_string f);
  Alcotest.(check string) "json field order pinned"
    "{\"kind\":\"hazard/RAW\",\"severity\":\"error\",\"index\":3,\"pipe\":\"V\",\"buffer\":\"UB\",\"message\":\"msg\"}"
    (Ascend.Util.Json.to_string (Finding.to_json f));
  let warn =
    Finding.make ~severity:Finding.Warning ~buffer:Buffer_id.L1
      (Finding.Soc_overcommit { resource = "LLC" })
      "m"
  in
  Alcotest.(check string) "warning pp omits unknown parts"
    "[warning] soc-overcommit/LLC (L1): m" (Finding.to_string warn);
  Alcotest.(check string) "null fields serialise as null"
    "{\"kind\":\"soc-overcommit/LLC\",\"severity\":\"warning\",\"index\":null,\"pipe\":null,\"buffer\":\"L1\",\"message\":\"m\"}"
    (Ascend.Util.Json.to_string (Finding.to_json warn))

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "verify"
    [
      ( "zoo",
        [
          Alcotest.test_case "zoo clean under all options" `Slow
            test_zoo_clean_all_options;
        ] );
      ( "deadlock",
        [
          quick "cyclic waits" test_cyclic_wait_deadlock;
          quick "ordering beats counting" test_wait_ordering_not_counting;
        ] );
      ( "hazard",
        [
          quick "broken double buffering" test_broken_double_buffering_detected;
        ] );
      ( "mutations",
        List.map QCheck_alcotest.to_alcotest
          [ drop_set_prop; swap_wait_prop; shrink_peak_prop ] );
      ("compose", [ quick "flag leak" test_flag_leak_detected ]);
      ( "peaks",
        [
          quick "derived peak" test_derived_buffer_peak;
          quick "capacity overflow" test_capacity_overflow_detected;
          QCheck_alcotest.to_alcotest peak_agreement_prop;
        ] );
      ( "soc",
        [
          Alcotest.test_case "zoo plans race-free" `Slow
            test_soc_zoo_plans_race_free;
          quick "cross-core races" test_soc_cross_core_races;
          quick "transitive order" test_soc_transitive_order;
          quick "deadlock" test_soc_deadlock;
          quick "core out of range" test_soc_core_out_of_range;
          quick "duplicate ids" test_soc_duplicate_ids;
          quick "overcommit" test_soc_overcommit;
          quick "llc waves follow the order" test_soc_llc_waves;
          quick "drop-edge mutation" test_soc_drop_edge_mutation;
        ] );
      ( "finding",
        [ quick "pp and json goldens" test_finding_goldens ] );
      ( "hb",
        List.map QCheck_alcotest.to_alcotest
          [ hb_naive_prop; sanitizer_hb_prop; soc_naive_prop ] );
      ( "sync",
        [
          quick "triples in (from, to, flag) order" test_triple_order;
          quick "an out-of-range flag orders nothing" test_out_of_range_flag;
        ] );
      ( "pin",
        [
          quick "findings and validation" test_findings_pinned;
          quick "soc and cluster findings" test_soc_cluster_findings_pinned;
        ] );
    ]
