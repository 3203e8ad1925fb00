(* Fleet serving (lib/fleet): placement plan structure, router policy
   semantics, end-to-end conservation laws, page-in behaviour, training
   colocation and byte-identical determinism. *)

module Config = Ascend.Arch.Config
module Fleet = Ascend.Fleet.Fleet
module Router = Ascend.Fleet.Router
module Placement = Ascend.Fleet.Placement
module Serve = Ascend.Serving.Serve
module Load_gen = Ascend.Serving.Load_gen
module Request = Ascend.Serving.Request
module Metrics = Ascend.Serving.Metrics
module Json = Ascend.Util.Json
module Obs = Ascend.Obs

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)

let test_placement_structure () =
  let p =
    Placement.build ~nodes:4
      [ ("hot", 10, 0, 0); ("cold", 20, 0, 1); ("warm", 5, 0, 2) ]
  in
  let hot = Placement.find p "hot" in
  Alcotest.(check (list int)) "hot everywhere" [ 0; 1; 2; 3 ]
    hot.Placement.replicas;
  let cold = Placement.find p "cold" in
  Alcotest.(check int) "cold on one node" 1 (List.length cold.Placement.replicas);
  Alcotest.(check (list int)) "cold pinned to home" [ cold.Placement.home ]
    cold.Placement.replicas;
  let warm = Placement.find p "warm" in
  Alcotest.(check int) "warm on two nodes" 2 (List.length warm.Placement.replicas);
  Alcotest.(check bool) "home is a replica" true
    (List.mem warm.Placement.home warm.Placement.replicas);
  List.iter
    (fun n -> Alcotest.(check bool) "replica in range" true (n >= 0 && n < 4))
    warm.Placement.replicas;
  Alcotest.(check bool) "resident matches replicas" true
    (Placement.resident p ~model:"cold" ~node:cold.Placement.home);
  (* a second build is byte-identical: placement is pure *)
  let p2 =
    Placement.build ~nodes:4
      [ ("hot", 10, 0, 0); ("cold", 20, 0, 1); ("warm", 5, 0, 2) ]
  in
  Alcotest.(check string) "pure function of specs"
    (Json.to_string (Placement.to_json p))
    (Json.to_string (Placement.to_json p2));
  Alcotest.check_raises "duplicate models rejected"
    (Invalid_argument "Placement.build: duplicate model names") (fun () ->
      ignore (Placement.build ~nodes:2 [ ("m", 1, 0, 0); ("m", 1, 0, 0) ]))

let test_placement_hbm_capacity () =
  (* a model whose weights alone overflow a node's HBM is unservable on
     any node — build refuses the plan outright *)
  Alcotest.check_raises "oversized model rejected"
    (Invalid_argument
       "Placement.build: model big weights (100 B) + kv cache (0 B) exceed \
        a node's 10 B HBM — unservable on any node")
    (fun () ->
      ignore
        (Placement.build ~hbm_bytes_per_node:10 ~nodes:2
           [ ("small", 5, 0, 0); ("big", 100, 0, 1) ]));
  (* reserved KV cache counts against capacity just like weights *)
  Alcotest.check_raises "kv cache counted against HBM"
    (Invalid_argument
       "Placement.build: model kv weights (4 B) + kv cache (8 B) exceed \
        a node's 10 B HBM — unservable on any node")
    (fun () ->
      ignore
        (Placement.build ~hbm_bytes_per_node:10 ~nodes:2
           [ ("kv", 4, 8, 0) ]));
  (* fitting weights build fine with the capacity given *)
  let p =
    Placement.build ~hbm_bytes_per_node:10 ~nodes:2
      [ ("small", 5, 0, 0); ("other", 8, 2, 1) ]
  in
  Alcotest.(check int) "both placed" 2 (List.length p.Placement.entries)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)

let test_router_policies () =
  let p = Placement.build ~nodes:4 [ ("cold", 8, 0, 1); ("hot", 8, 0, 0) ] in
  let rr = Router.create ~policy:Router.Round_robin ~nodes:4 () in
  let picks =
    List.init 5 (fun _ ->
        Router.route rr ~placement:p ~model:"hot" ~depths:[| 9; 9; 9; 9 |])
  in
  Alcotest.(check (list int)) "round-robin cycles" [ 0; 1; 2; 3; 0 ] picks;
  let ll = Router.create ~policy:Router.Least_loaded ~nodes:4 () in
  Alcotest.(check int) "least-loaded picks the min" 2
    (Router.route ll ~placement:p ~model:"hot" ~depths:[| 3; 2; 1; 2 |]);
  Alcotest.(check int) "ties break to the lowest index" 1
    (Router.route ll ~placement:p ~model:"hot" ~depths:[| 3; 1; 1; 1 |]);
  let af = Router.create ~policy:Router.Model_affinity ~nodes:4 () in
  let home = (Placement.find p "cold").Placement.home in
  Alcotest.(check int) "affinity sticks to the replica set" home
    (Router.route af ~placement:p ~model:"cold" ~depths:[| 0; 0; 0; 0 |])

(* ------------------------------------------------------------------ *)
(* End-to-end fleet runs (tiny core + int8 nets: fast to compile)      *)

let gesture ~batch = Ascend.Nn.Gesture.build ~batch ()
let face_detect ~batch = Ascend.Nn.Face_detect.build ~batch ()

let open_spec ?(rate = 300.) ?(replicas = 0) ?(seed = 3) name build =
  {
    Fleet.name;
    build;
    priority = 0;
    slo_ms = 50.;
    replicas;
    kv_bytes = 0;
    workload =
      Serve.Open_loop
        (Load_gen.create ~rate_per_s:rate ~duration_s:0.2 ~seed ());
  }

let small_config ?(nodes = 4) ?(policy = Router.Least_loaded) () =
  {
    (Fleet.default_config ~core:Config.tiny ~nodes) with
    Fleet.cores_per_node = 2;
    duration_s = 0.2;
    max_batch = 4;
    policy;
  }

let run_ok ?train config specs =
  match Fleet.run ?train config specs with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_fleet_conservation () =
  let r =
    run_ok
      (small_config ~policy:Router.Round_robin ())
      [ open_spec "gesture" gesture; open_spec "face-detect" face_detect ]
  in
  let total = List.length r.Fleet.records in
  Alcotest.(check bool) "requests flowed" true (total > 0);
  (* every record was routed somewhere, and per-node counts add up *)
  let routed_sum =
    List.fold_left (fun a nr -> a + nr.Fleet.routed) 0 r.Fleet.node_reports
  in
  Alcotest.(check int) "routed covers every request" total routed_sum;
  let completed (m : Metrics.t) =
    List.fold_left (fun a s -> a + s.Metrics.completed) 0 m.Metrics.summaries
  in
  let node_completed =
    List.fold_left
      (fun a nr -> a + nr.Fleet.completed)
      0 r.Fleet.node_reports
  in
  Alcotest.(check int) "fleet completions = sum of node completions"
    (completed r.Fleet.fleet_metrics)
    node_completed;
  let route_routed =
    List.fold_left (fun a rc -> a + rc.Fleet.rc_routed) 0 r.Fleet.routes
  in
  Alcotest.(check int) "routing breakdown covers every request" total
    route_routed;
  List.iter
    (fun s ->
      Alcotest.(check int) "offered = completed + rejected" s.Metrics.offered
        (s.Metrics.completed + s.Metrics.rejected))
    r.Fleet.fleet_metrics.Metrics.summaries;
  (* the breakdown has one cell per (node, model) *)
  Alcotest.(check int) "cells" (4 * 2) (List.length r.Fleet.routes)

let test_fleet_deterministic () =
  let run () =
    run_ok
      (small_config ~policy:Router.Round_robin ())
      [
        open_spec "gesture" gesture;
        open_spec ~replicas:1 "face-detect" face_detect;
      ]
  in
  let a = Json.to_string (Fleet.to_json (run ())) in
  let b = Json.to_string (Fleet.to_json (run ())) in
  Alcotest.(check string) "byte-identical across runs" a b;
  (* and a different seed is a different run *)
  let c =
    Json.to_string
      (Fleet.to_json
         (run_ok
            (small_config ~policy:Router.Round_robin ())
            [
              open_spec ~seed:11 "gesture" gesture;
              open_spec ~replicas:1 ~seed:12 "face-detect" face_detect;
            ]))
  in
  Alcotest.(check bool) "seed changes the run" true (a <> c)

(* byte identity of whole runs under every router policy.  Each digest
   covers [Fleet.to_json] plus every request's (node, id, start, finish,
   core).  The digests were recorded before the pending arrivals moved
   from a sorted list to a heap, and re-recorded once when the three
   disk-tier keys left [cost_cache]: each is the earlier build's document
   with those keys stripped *)
let test_fleet_json_digests_pinned () =
  let with_workload workload spec = { spec with Fleet.workload } in
  let open_with process seed =
    Serve.Open_loop
      (Load_gen.create ~process ~rate_per_s:600. ~duration_s:0.2 ~seed ())
  in
  let bursty = Load_gen.Bursty { factor = 4.; period_s = 0.05 } in
  let pair workload =
    [ open_spec "gesture" gesture |> with_workload (workload 3);
      open_spec ~replicas:1 "face-detect" face_detect
      |> with_workload (workload 4) ]
  in
  let closed think_s seed =
    Serve.Closed_loop { clients = 6; think_s; seed }
  in
  let configs =
    List.map
      (fun (name, policy) ->
        (name ^ " bursty", small_config ~policy (), pair (open_with bursty)))
      [ ("round-robin", Router.Round_robin);
        ("least-loaded", Router.Least_loaded);
        ("affinity", Router.Model_affinity) ]
    @ [
        (* equal-rate uniform traces tie exactly on every arrival *)
        ("round-robin uniform ties",
         small_config ~policy:Router.Round_robin (),
         pair (fun _ -> open_with Load_gen.Uniform 0));
        ("least-loaded closed think 0", small_config (), pair (closed 0.));
        ("round-robin closed think 1ms",
         small_config ~policy:Router.Round_robin (), pair (closed 1e-3));
      ]
  in
  let digest (name, config, specs) =
    let r = run_ok config specs in
    let records =
      List.map
        (fun (node, (x : Request.record)) ->
          Printf.sprintf "%d:%d:%h:%h:%d" node x.Request.request.Request.id
            x.Request.start_s x.Request.finish_s x.Request.core)
        r.Fleet.records
    in
    ( name,
      Digest.to_hex
        (Digest.string
           (String.concat ";" (Json.to_string (Fleet.to_json r) :: records)))
    )
  in
  Alcotest.(check (list (pair string string)))
    "fleet run digests"
    [
      ("round-robin bursty", "21c9fcc9272c58b4307db81a145491ef");
      ("least-loaded bursty", "754c5f5a3a88bba5c389394af7963b7a");
      ("affinity bursty", "498f92e8ef494a614e28e4a7a4b225e9");
      ("round-robin uniform ties", "55482c553d945785f475a67451a8db0a");
      ("least-loaded closed think 0", "e65d5321feeea77d1cc2070e8446362f");
      ("round-robin closed think 1ms", "050b3b4b6109a9ad8fc98630652e009a");
    ]
    (List.map digest configs)

let test_cold_model_pages_in () =
  (* round-robin spreads the cold model over nodes that don't hold its
     weights: every non-home node pays exactly one page-in *)
  let specs =
    [ open_spec "gesture" gesture;
      open_spec ~replicas:1 "face-detect" face_detect ]
  in
  let rr = run_ok (small_config ~policy:Router.Round_robin ()) specs in
  Alcotest.(check bool) "round-robin pages the cold model in" true
    (rr.Fleet.total_page_ins > 0);
  Alcotest.(check bool) "at most one page-in per (node, model)" true
    (rr.Fleet.total_page_ins <= 4);
  List.iter
    (fun rc ->
      if rc.Fleet.rc_model = "gesture" then
        Alcotest.(check bool) "hot model never pages" false rc.Fleet.rc_paged)
    rr.Fleet.routes;
  (* affinity routes only to resident nodes: no page-in ever *)
  let af = run_ok (small_config ~policy:Router.Model_affinity ()) specs in
  Alcotest.(check int) "affinity never pages" 0 af.Fleet.total_page_ins

let test_predicted_page_ins_match_observed () =
  (* the static verifier's per-node page-in prediction on the run's own
     placement plan equals what the run observes — the page-in half of
     the lint --cluster differential gate (odd node count, so the
     round-robin rotor visits every node for every model) *)
  let specs =
    [ open_spec "gesture" gesture;
      open_spec ~replicas:1 "face-detect" face_detect ]
  in
  List.iter
    (fun policy ->
      let r = run_ok (small_config ~nodes:3 ~policy ()) specs in
      let plan =
        Placement.verify_plan ~policy:(Router.policy_name policy)
          r.Fleet.placement
      in
      let predicted = Ascend.Verify.Cluster.predicted_page_ins plan in
      let observed = Fleet.observed_page_ins r in
      Alcotest.(check (array int))
        ("prediction matches the run under " ^ Router.policy_name policy)
        predicted observed;
      (* and the two sides of the CI gate serialise byte-identically *)
      Alcotest.(check string) "differential document agrees"
        (Json.to_string
           (Fleet.pagein_json ~policy ~placement:r.Fleet.placement
              ~counts:predicted))
        (Json.to_string
           (Fleet.pagein_json ~policy ~placement:r.Fleet.placement
              ~counts:observed)))
    [ Router.Round_robin; Router.Model_affinity ]

let test_training_colocation () =
  let train =
    { Fleet.tj_model = "gesture"; tj_build = gesture; tj_batch = 8; tj_nodes = 2 }
  in
  let r = run_ok ~train (small_config ()) [ open_spec "gesture" gesture ] in
  (match r.Fleet.training with
  | None -> Alcotest.fail "expected a training report"
  | Some t ->
    Alcotest.(check bool) "step time positive" true (t.Fleet.tr_step_s > 0.);
    Alcotest.(check bool) "interconnect share in (0, 0.95]" true
      (t.Fleet.tr_interconnect_util > 0.
      && t.Fleet.tr_interconnect_util <= 0.95));
  List.iter
    (fun nr ->
      let expect_training = nr.Fleet.node < 2 in
      Alcotest.(check bool) "colocation on the first K nodes" expect_training
        nr.Fleet.colocated_training;
      Alcotest.(check bool) "contention only where colocated" expect_training
        (nr.Fleet.train_interconnect_util > 0.))
    r.Fleet.node_reports

(* Chrome and Perfetto key a counter series by (pid, name): each node is
   a trace process of its own, so one node's queue depths never merge
   with another's *)
let test_fleet_trace_counter_series () =
  let c = Obs.Collector.create ~capacity:262144 () in
  let r =
    Obs.Hook.with_collector c (fun () ->
        run_ok
          (small_config ~nodes:3 ~policy:Router.Round_robin ())
          [ open_spec "gesture" gesture;
            open_spec ~replicas:1 "face-detect" face_detect ])
  in
  Alcotest.(check int) "nothing dropped" 0 (Obs.Collector.dropped c);
  (* (pid, name) -> (tids, samples) *)
  let series = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Event.Counter _ ->
        let key = (e.Obs.Event.pid, e.Obs.Event.name) in
        let tids, samples =
          Option.value (Hashtbl.find_opt series key) ~default:([], 0)
        in
        let tid = e.Obs.Event.tid in
        Hashtbl.replace series key
          ((if List.mem tid tids then tids else tid :: tids), samples + 1)
      | _ -> ())
    (Obs.Collector.events c);
  Hashtbl.iter
    (fun (pid, name) (tids, _) ->
      Alcotest.(check int)
        (Printf.sprintf "pid %d %s from one tid" pid name)
        1 (List.length tids))
    series;
  (* node n's queue-depth series samples exactly the admissions to and
     the batches taken from node n's queue *)
  let node_pid n =
    let suffix = Printf.sprintf ":node%d" n in
    fst
      (List.find
         (fun (_, name) -> String.ends_with ~suffix name)
         (Obs.Collector.processes c))
  in
  List.iter
    (fun rc ->
      let n = rc.Fleet.rc_node and model = rc.Fleet.rc_model in
      let batches =
        List.length
          (List.filter
             (fun b -> b.Fleet.bx_node = n && b.Fleet.bx_model = model)
             r.Fleet.batches)
      in
      let samples =
        match Hashtbl.find_opt series (node_pid n, "queue_depth:" ^ model) with
        | Some (_, k) -> k
        | None -> 0
      in
      Alcotest.(check bool) "node served" true (rc.Fleet.rc_completed > 0);
      Alcotest.(check int)
        (Printf.sprintf "node%d %s queue samples" n model)
        (rc.Fleet.rc_routed - rc.Fleet.rc_rejected + batches)
        samples)
    r.Fleet.routes

(* Serve.run is the one-node fleet: on a single node every model is
   resident and every request routes to node 0, so serve's records,
   metrics, batch count and cost-cache counters equal fleet's under any
   policy and replica count *)
let serve_is_one_node_fleet_prop =
  let workloads =
    [ ("uniform", `Open Load_gen.Uniform); ("poisson", `Open Load_gen.Poisson);
      ("bursty", `Open (Load_gen.Bursty { factor = 4.; period_s = 0.05 }));
      ("closed think 0", `Closed 0.); ("closed think 1ms", `Closed 1e-3) ]
  in
  let gen =
    QCheck.Gen.(
      tup4 (int_bound 10_000) (oneofl workloads)
        (pair (int_bound 3) (int_bound 3))
        (tup3 (oneofl Router.policies) (int_bound 2) (oneofl [ 300.; 3000. ])))
  in
  let print (seed, (w, _), (p1, p2), ((policy, _), replicas, rate)) =
    Printf.sprintf "seed %d, %s, priorities %d/%d, %s, replicas %d, %g req/s"
      seed w p1 p2 policy replicas rate
  in
  QCheck.Test.make ~count:12 ~name:"serve equals fleet --nodes 1"
    (QCheck.make ~print gen)
    (fun (seed, (_, workload), (p1, p2), ((_, policy), replicas, rate)) ->
      let spec name build priority seed =
        let workload =
          match workload with
          | `Open process ->
            Serve.Open_loop
              (Load_gen.create ~process ~rate_per_s:rate ~duration_s:0.2 ~seed
                 ())
          | `Closed think_s ->
            Serve.Closed_loop { clients = 6; think_s; seed }
        in
        { Serve.name; build; priority; slo_ms = 20.; workload }
      in
      let specs =
        [ spec "gesture" gesture p1 seed;
          spec "face-detect" face_detect p2 (seed + 1) ]
      in
      let serve =
        match
          Serve.run
            { (Serve.default_config ~core:Config.tiny ~cores:2) with
              Serve.duration_s = 0.2; max_batch = 4; queue_depth = 8 }
            specs
        with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_report e
      in
      let fleet =
        run_ok
          { (small_config ~nodes:1 ~policy ()) with Fleet.queue_depth = 8 }
          (List.map
             (fun (s : Serve.model_spec) ->
               { Fleet.name = s.name; build = s.build; priority = s.priority;
                 slo_ms = s.slo_ms; workload = s.workload; replicas;
                 kv_bytes = 0 })
             specs)
      in
      let field k = function
        | Json.Obj fields -> List.assoc k fields
        | _ -> Json.Null
      in
      let s = Serve.to_json serve and f = Fleet.to_json fleet in
      let same a b = Json.to_string a = Json.to_string b in
      serve.Serve.records = List.map snd fleet.Fleet.records
      && same (field "metrics" s) (field "metrics" (field "fleet" f))
      && same (field "count" (field "batches" s))
           (field "count" (field "batches" f))
      && same (field "cost_cache" s) (field "cost_cache" f))

let test_fleet_json_shape () =
  let r =
    run_ok
      (small_config ())
      [ open_spec "gesture" gesture ]
  in
  match Json.of_string (Json.to_string (Fleet.to_json r)) with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj fields) ->
    List.iter
      (fun k ->
        Alcotest.(check bool) ("has " ^ k) true (List.mem_assoc k fields))
      [ "config"; "placement"; "training"; "fleet"; "nodes"; "routing";
        "batches"; "cost_cache" ];
    Alcotest.(check (list string))
      "cost_cache keys"
      [ "hits"; "misses"; "interpolated"; "fallbacks" ]
      (match List.assoc "cost_cache" fields with
      | Json.Obj counters -> List.map fst counters
      | _ -> [])
  | Ok _ -> Alcotest.fail "expected a JSON object"

let () =
  Alcotest.run "fleet"
    [
      ( "placement",
        [
          Alcotest.test_case "structure" `Quick test_placement_structure;
          Alcotest.test_case "hbm capacity" `Quick test_placement_hbm_capacity;
        ] );
      ( "router",
        [ Alcotest.test_case "policies" `Quick test_router_policies ] );
      ( "fleet",
        [
          Alcotest.test_case "conservation" `Quick test_fleet_conservation;
          Alcotest.test_case "deterministic" `Quick test_fleet_deterministic;
          Alcotest.test_case "json digests pinned" `Quick
            test_fleet_json_digests_pinned;
          Alcotest.test_case "page-in" `Quick test_cold_model_pages_in;
          Alcotest.test_case "predicted page-ins" `Quick
            test_predicted_page_ins_match_observed;
          Alcotest.test_case "training colocation" `Quick
            test_training_colocation;
          Alcotest.test_case "json shape" `Quick test_fleet_json_shape;
          Alcotest.test_case "trace counter series" `Quick
            test_fleet_trace_counter_series;
          QCheck_alcotest.to_alcotest serve_is_one_node_fleet_prop;
        ] );
    ]
