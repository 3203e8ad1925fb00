(* Execution service (lib/exec): content-addressed cache semantics,
   deterministic parallel fan-out, and byte-identity between cached,
   uncached and parallel compile+simulate runs. *)

module Config = Ascend.Arch.Config
module Engine = Ascend.Compiler.Engine
module Fusion = Ascend.Compiler.Fusion
module Codegen = Ascend.Compiler.Codegen
module Cache = Ascend.Exec.Cache
module Service = Ascend.Exec.Service

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let resnet18 () = Ascend.Nn.Resnet.v1_5_18 ()

let render r = Format.asprintf "%a" Engine.pp_layer_table r

(* ------------------------------------------------------------------ *)
(* Cache: LRU bookkeeping                                              *)

let test_cache_hit_miss_counters () =
  let c = Cache.create ~capacity:8 () in
  Alcotest.(check bool) "miss on empty" true (Cache.find c "k1" = None);
  Cache.add c "k1" 1;
  Alcotest.(check bool) "hit after add" true (Cache.find c "k1" = Some 1);
  ignore (Cache.find c "k2");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "entries" 1 s.Cache.entries;
  Alcotest.(check int) "no evictions" 0 s.Cache.evictions;
  (* the one-line render the serving summaries embed *)
  Alcotest.(check string) "pp_stats"
    "1 hit(s), 2 miss(es), 0 eviction(s), 1 entr(ies)"
    (Format.asprintf "%a" Cache.pp_stats s)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  ignore (Cache.find c "a");
  (* recency: a fresher than b *)
  Cache.add c "c" 3;
  (* b is the LRU entry *)
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "a kept" true (Cache.find c "a" = Some 1);
  Alcotest.(check bool) "c kept" true (Cache.find c "c" = Some 3);
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "bounded" 2 s.Cache.entries;
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Cache.create: capacity < 1") (fun () ->
      ignore (Cache.create ~capacity:0 ()))

let test_cache_add_is_insert_if_absent () =
  let c = Cache.create ~capacity:4 () in
  Cache.add c "k" 1;
  Cache.add c "k" 2;
  Alcotest.(check bool) "first insert wins" true (Cache.find c "k" = Some 1);
  Alcotest.(check int) "one entry" 1 (Cache.stats c).Cache.entries

(* ------------------------------------------------------------------ *)
(* Keys: the content address covers what shapes the program            *)

let test_key_covers_options_and_config () =
  let g = resnet18 () in
  let grp = List.hd (Fusion.partition g) in
  let default = Service.key Config.max grp in
  Alcotest.(check string)
    "pure function of inputs" default (Service.key Config.max grp);
  Alcotest.(check bool)
    "double_buffer keyed" true
    (default
    <> Service.key
         ~options:{ Codegen.default_options with Codegen.double_buffer = false }
         Config.max grp);
  Alcotest.(check bool)
    "sync_mode keyed" true
    (default
    <> Service.key
         ~options:
           { Codegen.default_options with
             Codegen.sync_mode = Codegen.Coarse_barriers }
         Config.max grp);
  Alcotest.(check bool)
    "core version keyed" true (default <> Service.key Config.lite grp);
  let other = List.nth (Fusion.partition g) 1 in
  Alcotest.(check bool)
    "group keyed" true (default <> Service.key Config.max other)

(* Every content address of the zoo — 10 models x 5 cores x 3 option
   sets, 4,230 keys — folded into one pinned MD5: the fold order, the
   fields folded and the fused-group summaries change only in a diff
   that re-records it, since a key that misses a field codegen reads
   would serve one group's program for another. *)
let test_key_zoo_digest_pinned () =
  let models =
    [
      Ascend.Nn.Resnet.v1_5 ~batch:2 (); Ascend.Nn.Mobilenet.v2 ();
      Ascend.Nn.Bert.base ~batch:3 ~seq_len:32 (); Ascend.Nn.Gesture.build ();
      Ascend.Nn.Siamese.build (); Ascend.Nn.Wide_deep.default ();
      Ascend.Nn.Pointnet.build (); Ascend.Nn.Face_detect.build ();
      Ascend.Nn.Fpn_detector.build ();
      Ascend.Nn.Llm.decode ~batch:2 ~cache_len:40 Ascend.Nn.Llm.tiny_config;
    ]
  in
  let options =
    [
      Codegen.default_options;
      { Codegen.default_options with Codegen.sync_mode = Codegen.Coarse_barriers };
      { Codegen.default_options with
        Codegen.weight_sparsity = Some 0.5;
        double_buffer = false };
    ]
  in
  let keys =
    List.concat_map
      (fun g ->
        let groups = Fusion.partition g in
        List.concat_map
          (fun core ->
            List.concat_map
              (fun options -> List.map (Service.key ~options core) groups)
              options)
          Config.all)
      models
  in
  Alcotest.(check int) "key count" 4230 (List.length keys);
  Alcotest.(check string) "zoo key digest" "bb9e291edcd0ff678381f246c7a6b65c"
    (Digest.to_hex (Digest.string (String.concat "," keys)))

let test_service_prefix_follows_config () =
  (* one service keyed under alternating cores and options must price
     each pair exactly as a fresh service does: a stale key prefix would
     serve one core's results for another *)
  let g = Ascend.Nn.Gesture.build () in
  let coarse =
    { Codegen.default_options with Codegen.sync_mode = Codegen.Coarse_barriers }
  in
  let fresh options core =
    let svc = Service.create ~jobs:1 () in
    let r = render (ok (Service.run_inference svc ~options core g)) in
    Service.shutdown svc;
    r
  in
  let shared = Service.create ~jobs:1 () in
  List.iter
    (fun (options, core) ->
      Alcotest.(check string)
        (core.Config.name ^ " through a shared service")
        (fresh options core)
        (render (ok (Service.run_inference shared ~options core g))))
    [
      (Codegen.default_options, Config.max); (Codegen.default_options, Config.lite);
      (coarse, Config.lite); (Codegen.default_options, Config.max);
      (coarse, Config.max);
    ];
  let s = Service.stats shared in
  Service.shutdown shared;
  let groups = List.length (Fusion.partition g) in
  Alcotest.(check int) "the repeated pair hits" groups s.Cache.hits

(* ------------------------------------------------------------------ *)
(* Service: hit/miss accounting and result reuse                       *)

let test_service_accounting () =
  let svc = Service.create ~jobs:1 () in
  let g = resnet18 () in
  let groups = List.length (Fusion.partition g) in
  let r1 = ok (Service.run_inference svc Config.max g) in
  let s1 = Service.stats svc in
  Alcotest.(check int) "cold: all misses" groups s1.Cache.misses;
  Alcotest.(check int) "cold: no hits" 0 s1.Cache.hits;
  Alcotest.(check int) "cold: all stored" groups s1.Cache.entries;
  let r2 = ok (Service.run_inference svc Config.max g) in
  let s2 = Service.stats svc in
  Alcotest.(check int) "warm: all hits" groups (s2.Cache.hits - s1.Cache.hits);
  Alcotest.(check int) "warm: no new misses" s1.Cache.misses s2.Cache.misses;
  Alcotest.(check string) "warm result byte-identical" (render r1) (render r2);
  Service.clear svc;
  Alcotest.(check int) "clear empties" 0 (Service.stats svc).Cache.entries;
  Service.shutdown svc

let test_service_matches_serial_engine () =
  (* Engine.run_inference is the serial reference the service must match *)
  let g = resnet18 () in
  let serial = ok (Engine.run_inference Config.max g) in
  let svc = Service.create ~jobs:4 () in
  let cold = ok (Service.run_inference svc Config.max g) in
  let warm = ok (Service.run_inference svc Config.max g) in
  Service.shutdown svc;
  Alcotest.(check string)
    "parallel cold == serial" (render serial) (render cold);
  Alcotest.(check string) "warm == serial" (render serial) (render warm);
  Alcotest.(check int)
    "cycles identical" serial.Engine.total_cycles cold.Engine.total_cycles

let test_service_jobs_invariant () =
  (* same work on 1 vs 4 domains: identical bytes AND identical counters *)
  let g = resnet18 () in
  let run jobs =
    let svc = Service.create ~jobs () in
    let r1 = render (ok (Service.run_inference svc Config.max g)) in
    let r2 = render (ok (Service.run_training svc Config.standard g)) in
    let s = Service.stats svc in
    Service.shutdown svc;
    (r1, r2, s)
  in
  let a1, a2, sa = run 1 in
  let b1, b2, sb = run 4 in
  Alcotest.(check string) "inference bytes" a1 b1;
  Alcotest.(check string) "training bytes" a2 b2;
  Alcotest.(check int) "hits" sa.Cache.hits sb.Cache.hits;
  Alcotest.(check int) "misses" sa.Cache.misses sb.Cache.misses;
  Alcotest.(check int) "entries" sa.Cache.entries sb.Cache.entries

let test_service_dedups_within_batch () =
  (* duplicate groups inside one submission compile once *)
  let g = resnet18 () in
  let grp = List.hd (Fusion.partition g) in
  let svc = Service.create ~jobs:2 () in
  let rs = Service.run_groups svc Config.max [ grp; grp; grp ] in
  let s = Service.stats svc in
  (* probes count per occurrence (all three miss the cold cache), but
     only one entry is computed and stored *)
  Alcotest.(check int) "three results" 3 (List.length rs);
  Alcotest.(check int) "three probes miss" 3 s.Cache.misses;
  Alcotest.(check int) "one entry stored" 1 s.Cache.entries;
  let rs2 = Service.run_groups svc Config.max [ grp; grp; grp ] in
  let s2 = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check int) "warm batch all hits" 3 (s2.Cache.hits - s.Cache.hits);
  Alcotest.(check int) "no new misses" s.Cache.misses s2.Cache.misses;
  Alcotest.(check int) "still one entry" 1 s2.Cache.entries;
  Alcotest.(check bool) "warm results equal" true (rs = rs2);
  match rs with
  | [ Ok a; Ok b; Ok c ] ->
    Alcotest.(check int) "same cycles" a.Engine.cube_cycles b.Engine.cube_cycles;
    Alcotest.(check int)
      "same cycles again" b.Engine.cube_cycles c.Engine.cube_cycles
  | _ -> Alcotest.fail "expected three Ok results"

let test_service_error_propagates () =
  (* an unsupported dtype fails identically through the service *)
  let g = Ascend.Nn.Resnet.v1_5_18 ~dtype:Ascend.Arch.Precision.Int4 () in
  let serial = Engine.run_inference Config.max g in
  let svc = Service.create ~jobs:2 () in
  let through = Service.run_inference svc Config.max g in
  Service.shutdown svc;
  match (serial, through) with
  | Error a, Error b -> Alcotest.(check string) "same error" a b
  | _ -> Alcotest.fail "expected both paths to reject int4 on Max"

(* probes of the process-wide service so far *)
let default_probes () =
  let s = Service.stats (Service.default ()) in
  s.Cache.hits + s.Cache.misses

let test_engine_leaves_default_service () =
  (* Engine.run_inference runs its own serial loop: a pure function of
     its inputs that never reaches the shared pool or cache *)
  let before = default_probes () in
  ignore (ok (Engine.run_inference Config.tiny (Ascend.Nn.Gesture.build ())));
  Alcotest.(check int) "default service untouched" before (default_probes ())

let test_soc_runs_through_default_service () =
  (* the SoC models name the shared service, so a graph re-run under
     another SoC parameter (the LLC-capacity sweep) hits its cache *)
  let module Inference_soc = Ascend.Soc.Inference_soc in
  let g = Ascend.Nn.Gesture.build () in
  let groups = List.length (Fusion.partition g) in
  let before = default_probes () in
  ignore (ok (Inference_soc.run Inference_soc.ascend310 g));
  Alcotest.(check int)
    "one probe per group" groups
    (default_probes () - before);
  let hits = (Service.stats (Service.default ())).Cache.hits in
  ignore (ok (Inference_soc.run Inference_soc.ascend310 g));
  Alcotest.(check int)
    "a re-run hits" groups
    ((Service.stats (Service.default ())).Cache.hits - hits)

(* ------------------------------------------------------------------ *)
(* Cost oracle delegates to the service cache                          *)

(* the oracle's hit and miss counts are its private service's *)
let check_counts_are_stats what oracle =
  let module Cost = Ascend.Serving.Cost in
  let s = Cost.stats oracle in
  Alcotest.(check (pair int int))
    (what ^ ": hits, misses = service stats")
    (s.Cache.hits, s.Cache.misses)
    (Cost.hits oracle, Cost.misses oracle)

let test_cost_counts_service_hits () =
  let module Cost = Ascend.Serving.Cost in
  let oracle = Cost.create ~core:Config.standard () in
  let build ~batch = Ascend.Nn.Resnet.v1_5_18 ~batch () in
  let e1 = ok (Cost.lookup oracle ~model:"r18" ~build ~batch:1) in
  let cold_misses = Cost.misses oracle in
  check_counts_are_stats "cold exact lookup" oracle;
  let e2 = ok (Cost.lookup oracle ~model:"r18" ~build ~batch:1) in
  check_counts_are_stats "warm exact lookup" oracle;
  Alcotest.(check bool) "first call misses" true (cold_misses > 0);
  Alcotest.(check int) "repeat adds no misses" cold_misses (Cost.misses oracle);
  Alcotest.(check bool)
    "repeat hits the cache" true
    (Cost.hits oracle >= cold_misses);
  Alcotest.(check int) "same cycles" e1.Cost.cycles e2.Cost.cycles;
  (* the surrogate table prices a (model, batch) through the same
     service on its first lookup and answers repeats without it *)
  let surrogate = Cost.create ~costing:`Surrogate ~core:Config.tiny () in
  let build ~batch = Ascend.Nn.Gesture.build ~batch () in
  ignore (ok (Cost.lookup surrogate ~model:"gesture" ~build ~batch:3));
  Alcotest.(check bool) "the first lookup compiled" true
    (Cost.misses surrogate > 0);
  Alcotest.(check int) "one fallback" 1 (Cost.fallbacks surrogate);
  check_counts_are_stats "surrogate fallback" surrogate;
  let traffic = Cost.hits surrogate + Cost.misses surrogate in
  ignore (ok (Cost.lookup surrogate ~model:"gesture" ~build ~batch:3));
  Alcotest.(check int) "the repeat leaves the service alone" traffic
    (Cost.hits surrogate + Cost.misses surrogate);
  Alcotest.(check int) "one table answer" 1 (Cost.interpolated surrogate);
  check_counts_are_stats "surrogate table answer" surrogate

let () =
  Alcotest.run "exec"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick
            test_cache_hit_miss_counters;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "insert if absent" `Quick
            test_cache_add_is_insert_if_absent;
        ] );
      ( "key",
        [
          Alcotest.test_case "zoo digest pinned" `Quick test_key_zoo_digest_pinned;
          Alcotest.test_case "prefix follows config" `Quick
            test_service_prefix_follows_config;
          Alcotest.test_case "covers options and config" `Quick
            test_key_covers_options_and_config;
        ] );
      ( "service",
        [
          Alcotest.test_case "accounting" `Quick test_service_accounting;
          Alcotest.test_case "matches serial engine" `Quick
            test_service_matches_serial_engine;
          Alcotest.test_case "jobs invariant" `Quick test_service_jobs_invariant;
          Alcotest.test_case "dedup within batch" `Quick
            test_service_dedups_within_batch;
          Alcotest.test_case "error propagation" `Quick
            test_service_error_propagates;
          Alcotest.test_case "engine leaves the default service" `Quick
            test_engine_leaves_default_service;
          Alcotest.test_case "soc runs through the default service" `Quick
            test_soc_runs_through_default_service;
        ] );
      ( "cost",
        [
          Alcotest.test_case "delegates to cache" `Quick
            test_cost_counts_service_hits;
        ] );
    ]
