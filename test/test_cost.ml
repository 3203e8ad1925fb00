(* Batch-latency costing: the serving Cost wrapper's table of exact
   prices, against the exact oracle it rests on. *)

module Cost = Ascend.Serving.Cost
module Serve = Ascend.Serving.Serve
module Load_gen = Ascend.Serving.Load_gen
module Fleet = Ascend.Fleet.Fleet
module Config = Ascend.Arch.Config
module Json = Ascend.Util.Json

let gesture ~batch = Ascend.Nn.Gesture.build ~batch ()
let face_detect ~batch = Ascend.Nn.Face_detect.build ~batch ()

let test_cost_surrogate_matches_exact () =
  let exact = Cost.create ~core:Config.tiny () in
  let surrogate = Cost.create ~costing:`Surrogate ~core:Config.tiny () in
  let price t batch =
    match Cost.lookup t ~model:"gesture" ~build:gesture ~batch with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  for pass = 1 to 2 do
    for batch = 1 to 4 do
      Alcotest.(check bool)
        (Printf.sprintf "pass %d batch %d: the exact entry" pass batch)
        true
        (price exact batch = price surrogate batch)
    done
  done;
  Alcotest.(check int) "first lookups priced exactly" 4
    (Cost.fallbacks surrogate);
  Alcotest.(check int) "repeats answered from the table" 4
    (Cost.interpolated surrogate);
  Alcotest.(check int) "exact tier never uses the table" 0
    (Cost.interpolated exact + Cost.fallbacks exact)

let test_serve_surrogate_deterministic () =
  let spec () =
    {
      Serve.name = "gesture";
      build = gesture;
      priority = 0;
      slo_ms = 20.;
      workload = Serve.Closed_loop { clients = 4; think_s = 0.; seed = 17 };
    }
  in
  let config =
    { (Serve.default_config ~core:Config.tiny ~cores:2) with
      Serve.duration_s = 0.2; max_batch = 4; costing = `Surrogate }
  in
  let run () =
    match Serve.run config [ spec () ] with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical JSON"
    (Json.to_string (Serve.to_json a))
    (Json.to_string (Serve.to_json b));
  Alcotest.(check bool) "surrogate actually used" true
    (a.Serve.cost_interpolated > 0);
  (* the table holds the exact tier's prices, so both tiers serve the
     same requests *)
  let exact_run =
    match
      Serve.run { config with Serve.costing = `Exact } [ spec () ]
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "same requests served"
    (List.length exact_run.Serve.records)
    (List.length a.Serve.records)

(* the run's document without the fields that name or count the tier *)
let outcome = function
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.filter
            (fun (k, _) -> k <> "config" && k <> "cost_cache")
            fields))
  | doc -> Json.to_string doc

let test_surrogate_equals_exact_serve_fleet () =
  let load rate seed =
    Serve.Open_loop
      (Load_gen.create ~rate_per_s:rate ~duration_s:0.2 ~seed ())
  in
  let serve costing =
    match
      Serve.run
        { (Serve.default_config ~core:Config.tiny ~cores:2) with
          Serve.duration_s = 0.2; costing }
        [
          { Serve.name = "gesture"; build = gesture; priority = 0;
            slo_ms = 10.; workload = load 600. 42 };
          { Serve.name = "face-detect"; build = face_detect; priority = 0;
            slo_ms = 50.; workload = load 600. 7961 };
        ]
    with
    | Ok r -> Serve.to_json r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "serve: same metrics and batches"
    (outcome (serve `Exact))
    (outcome (serve `Surrogate));
  let fleet costing =
    let spec name build replicas seed =
      { Fleet.name; build; priority = 0; slo_ms = 20.; replicas;
        kv_bytes = 0; workload = load 400. seed }
    in
    match
      Fleet.run
        { (Fleet.default_config ~core:Config.tiny ~nodes:3) with
          Fleet.cores_per_node = 2; duration_s = 0.2; costing }
        [ spec "gesture" gesture 0 5; spec "face-detect" face_detect 1 6 ]
    with
    | Ok r -> Fleet.to_json r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "fleet: same metrics, nodes, routes and batches"
    (outcome (fleet `Exact))
    (outcome (fleet `Surrogate))

let () =
  Alcotest.run "cost"
    [
      ( "serving-cost",
        [
          Alcotest.test_case "surrogate matches table" `Quick
            test_cost_surrogate_matches_exact;
          Alcotest.test_case "surrogate serve deterministic" `Quick
            test_serve_surrogate_deterministic;
          Alcotest.test_case "surrogate equals exact in serve and fleet"
            `Quick test_surrogate_equals_exact_serve_fleet;
        ] );
    ]
