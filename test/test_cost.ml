(* Batch-latency costing (lib/cost): the decode grid exact in batch and
   interpolated in cache length, its calibration protocol, and the
   serving Cost wrapper's table of exact prices. *)

module Calibration = Ascend.Cost.Calibration
module Surrogate2d = Ascend.Cost.Surrogate2d
module Calibration2d = Ascend.Cost.Calibration2d
module Cost = Ascend.Serving.Cost
module Serve = Ascend.Serving.Serve
module Load_gen = Ascend.Serving.Load_gen
module Fleet = Ascend.Fleet.Fleet
module Config = Ascend.Arch.Config
module Json = Ascend.Util.Json

let entry cycles =
  {
    Calibration.cycles;
    latency_s = float_of_int cycles *. 1e-9;
    energy_j = float_of_int cycles *. 1e-6;
  }

let row cycles = Array.map entry cycles

let fit_ok ~rows =
  match Surrogate2d.fit ~rows with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Surrogate2d: anchor schedule, fit, lookup                           *)

let test_anchor_lens () =
  Alcotest.(check (list int)) "pow2 + max" [ 1; 2; 4; 8 ]
    (Surrogate2d.anchor_lens ~max_len:8);
  Alcotest.(check (list int)) "max joins schedule" [ 1; 2; 4; 6 ]
    (Surrogate2d.anchor_lens ~max_len:6);
  Alcotest.(check (list int)) "singleton" [ 1 ]
    (Surrogate2d.anchor_lens ~max_len:1);
  Alcotest.(check (list int)) "probes add bracket midpoints"
    [ 1; 2; 3; 4; 6; 8 ]
    (Surrogate2d.probe_lens ~max_len:8);
  Alcotest.check_raises "max_len < 1"
    (Invalid_argument "Surrogate2d.anchor_lens: max_len < 1") (fun () ->
      ignore (Surrogate2d.anchor_lens ~max_len:0))

let test_fit_rejects_malformed () =
  let is_error rows =
    match Surrogate2d.fit ~rows with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (is_error []);
  Alcotest.(check bool) "duplicate length" true
    (is_error [ (1, row [| 10 |]); (1, row [| 20 |]) ]);
  Alcotest.(check bool) "ragged" true
    (is_error [ (1, row [| 10; 20 |]); (2, row [| 30 |]) ]);
  Alcotest.(check bool) "empty row" true (is_error [ (1, [||]) ]);
  Alcotest.(check bool) "length below 1" true (is_error [ (0, row [| 10 |]) ])

let test_lookup_reproduces_anchors () =
  (* a batch profile with a kink: every batch of an anchor row is that
     row's own exact entry, whatever its neighbours *)
  let rows =
    [ (1, row [| 100; 180; 500; 350 |]); (4, row [| 140; 230; 610; 420 |]) ]
  in
  let t = fit_ok ~rows in
  List.iter
    (fun (len, r) ->
      Array.iteri
        (fun i (e : Calibration.entry) ->
          match Surrogate2d.lookup t ~batch:(i + 1) ~cache_len:len with
          | Some got ->
            Alcotest.(check int)
              (Printf.sprintf "len %d batch %d cycles" len (i + 1))
              e.cycles got.Calibration.cycles;
            Alcotest.(check (float 0.))
              (Printf.sprintf "len %d batch %d latency" len (i + 1))
              e.latency_s got.Calibration.latency_s
          | None -> Alcotest.fail "anchor out of range")
        r)
    rows

let test_lookup_interpolates () =
  let t = fit_ok ~rows:[ (2, row [| 180; 400 |]); (6, row [| 350; 900 |]) ] in
  let check ~batch ~cache_len ~cycles ~exact =
    match Surrogate2d.lookup t ~batch ~cache_len with
    | None -> Alcotest.fail "in range"
    | Some e ->
      Alcotest.(check int)
        (Printf.sprintf "batch %d len %d cycles" batch cache_len)
        cycles e.Calibration.cycles;
      Alcotest.(check (float 1e-15)) "lerped latency" (exact *. 1e-9)
        e.Calibration.latency_s;
      Alcotest.(check (float 1e-12)) "lerped energy" (exact *. 1e-6)
        e.Calibration.energy_j
  in
  (* midpoint of 180 and 350 *)
  check ~batch:1 ~cache_len:4 ~cycles:265 ~exact:265.;
  (* a quarter of the way: 222.5 cycles round half away from zero *)
  check ~batch:1 ~cache_len:3 ~cycles:223 ~exact:222.5;
  (* the other batch lerps its own column *)
  check ~batch:2 ~cache_len:5 ~cycles:775 ~exact:775.

let test_lookup_confidence_range () =
  let t = fit_ok ~rows:[ (2, row [| 180; 400 |]); (4, row [| 350; 900 |]) ] in
  Alcotest.(check (list int)) "lens" [ 2; 4 ] (Surrogate2d.lens t);
  Alcotest.(check bool) "below range" true
    (Surrogate2d.lookup t ~batch:1 ~cache_len:1 = None);
  Alcotest.(check bool) "above range" true
    (Surrogate2d.lookup t ~batch:1 ~cache_len:5 = None);
  Alcotest.(check bool) "batch past the rows" true
    (Surrogate2d.lookup t ~batch:3 ~cache_len:3 = None);
  Alcotest.check_raises "batch < 1"
    (Invalid_argument "Surrogate2d.lookup: batch < 1") (fun () ->
      ignore (Surrogate2d.lookup t ~batch:0 ~cache_len:3));
  Alcotest.check_raises "cache_len < 1"
    (Invalid_argument "Surrogate2d.lookup: cache_len < 1") (fun () ->
      ignore (Surrogate2d.lookup t ~batch:1 ~cache_len:0))

(* interpolation between rows monotone in length is monotone: linear
   pieces cannot overshoot their endpoints *)
let monotone_interpolation_prop =
  QCheck.Test.make ~count:300
    ~name:"monotone anchors give monotone interpolation"
    QCheck.(
      list_of_size (Gen.int_range 2 6) (pair (int_range 1 5) (int_range 0 1000)))
    (fun steps ->
      (* positive length gaps give strictly increasing anchors; summed
         non-negative increments give nondecreasing cycles per batch *)
      let _, _, rev_rows =
        List.fold_left
          (fun (l, c, acc) (gap, inc) ->
            let l = l + gap and c = c + inc in
            (l, c, (l, row [| c; (2 * c) + 7 |]) :: acc))
          (0, 100, []) steps
      in
      match Surrogate2d.fit ~rows:(List.rev rev_rows) with
      | Error _ -> false
      | Ok t ->
        let lens = Surrogate2d.lens t in
        let lo = List.hd lens and hi = List.nth lens (List.length lens - 1) in
        List.for_all
          (fun batch ->
            let prev = ref (-1) and ok = ref true in
            for cache_len = lo to hi do
              match Surrogate2d.lookup t ~batch ~cache_len with
              | None -> ok := false
              | Some e ->
                if e.Calibration.cycles < !prev then ok := false;
                prev := e.Calibration.cycles
            done;
            !ok)
          [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Calibration2d: length-axis refinement against synthetic oracles     *)

let synth_price f ~batch ~cache_len = Ok (entry (f ~batch ~cache_len))

let fit_synth ?budget_pct f =
  match
    Calibration2d.fit ?budget_pct ~price:(synth_price f) ~max_batch:4
      ~max_len:8 ()
  with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_calibration_linear_keeps_geometric_anchors () =
  (* cycles linear in length: geometric anchors interpolate exactly *)
  let t =
    fit_synth (fun ~batch ~cache_len -> 1000 + (500 * cache_len) + batch)
  in
  Alcotest.(check (list int)) "no refinement needed" [ 1; 2; 4; 8 ]
    (Surrogate2d.lens t)

let test_calibration_refines_steps () =
  (* a step between lengths 4 and 5 that the [4; 8] bracket misses at
     probe length 6 by far more than the budget *)
  let steppy ~batch ~cache_len =
    (if cache_len <= 4 then 1000 else 5000) + batch
  in
  let t = fit_synth steppy in
  Alcotest.(check (list int)) "the probe length past the step is promoted"
    [ 1; 2; 4; 6; 8 ] (Surrogate2d.lens t);
  (* every probe point now lands within the 5% default budget *)
  List.iter
    (fun cache_len ->
      for batch = 1 to 4 do
        match Surrogate2d.lookup t ~batch ~cache_len with
        | None -> Alcotest.fail "in range"
        | Some e ->
          let exact = float_of_int (steppy ~batch ~cache_len) in
          let err =
            100. *. Float.abs (float_of_int e.Calibration.cycles -. exact)
            /. exact
          in
          Alcotest.(check bool)
            (Printf.sprintf "len %d batch %d within budget" cache_len batch)
            true (err <= 5.)
      done)
    (Surrogate2d.probe_lens ~max_len:8)

let jagged ~batch ~cache_len =
  1000 + (137 * cache_len * cache_len mod 911) + batch

let test_calibration_zero_budget_pins_every_probe () =
  let t = fit_synth ~budget_pct:0. jagged in
  Alcotest.(check (list int)) "every probe length is an anchor"
    (Surrogate2d.probe_lens ~max_len:8)
    (Surrogate2d.lens t);
  List.iter
    (fun cache_len ->
      for batch = 1 to 4 do
        match Surrogate2d.lookup t ~batch ~cache_len with
        | None -> Alcotest.fail "in range"
        | Some e ->
          Alcotest.(check int)
            (Printf.sprintf "len %d batch %d exact" cache_len batch)
            (jagged ~batch ~cache_len) e.Calibration.cycles
      done)
    (Surrogate2d.probe_lens ~max_len:8)

let test_calibration_propagates_pricing_error () =
  let price ~batch ~cache_len =
    if batch = 2 && cache_len = 3 then Error "boom"
    else Ok (entry (100 * batch * cache_len))
  in
  match Calibration2d.fit ~price ~max_batch:4 ~max_len:8 () with
  | Error e -> Alcotest.(check string) "first failure aborts" "boom" e
  | Ok _ -> Alcotest.fail "expected Error"

(* a tiling-style kink in batch, small enough that interpolating across
   batches would stay inside the 5% budget: each anchor length still
   reproduces it exactly, because rows hold every batch's price *)
let test_calibration_kink_in_batch_exact () =
  let kinked ~batch ~cache_len =
    10_000 + (100 * cache_len) + if batch = 3 then 300 else 0
  in
  let t = fit_synth kinked in
  List.iter
    (fun cache_len ->
      for batch = 1 to 4 do
        match Surrogate2d.lookup t ~batch ~cache_len with
        | None -> Alcotest.fail "in range"
        | Some e ->
          Alcotest.(check int)
            (Printf.sprintf "len %d batch %d exact" cache_len batch)
            (kinked ~batch ~cache_len) e.Calibration.cycles
      done)
    (Surrogate2d.lens t)

let test_calibration_bad_arguments () =
  let price ~batch:_ ~cache_len:_ = Ok (entry 1) in
  Alcotest.check_raises "max_batch < 1"
    (Invalid_argument "Calibration2d.fit: max_batch < 1") (fun () ->
      ignore (Calibration2d.fit ~price ~max_batch:0 ~max_len:4 ()));
  Alcotest.check_raises "max_len < 1"
    (Invalid_argument "Calibration2d.fit: max_len < 1") (fun () ->
      ignore (Calibration2d.fit ~price ~max_batch:2 ~max_len:0 ()));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Calibration2d.fit: negative budget") (fun () ->
      ignore
        (Calibration2d.fit ~budget_pct:(-1.) ~price ~max_batch:2 ~max_len:4 ()))

(* ------------------------------------------------------------------ *)
(* Calibration2d against the real oracle                               *)

let test_calibration_within_budget_on_zoo () =
  let service = Ascend.Exec.Service.create ~jobs:1 () in
  let llm = Ascend.Nn.Llm.tiny_config in
  (match
     Calibration2d.run ~service ~core:Config.lite ~model:"llm-decode"
       ~build:(fun ~batch ~cache_len ->
         Ascend.Nn.Llm.decode ~batch ~cache_len llm)
       ~max_batch:2 ~max_len:8 ()
   with
  | Error e -> Alcotest.fail e
  | Ok report ->
    Alcotest.(check bool) "max error within budget" true
      (report.Calibration2d.max_abs_pct_error <= 5.);
    Alcotest.(check int) "cells cover probes x batches"
      (2 * List.length (Surrogate2d.probe_lens ~max_len:8))
      (List.length report.Calibration2d.cells);
    (* anchor rows are exact prices, so their cells score zero *)
    List.iter
      (fun (c : Calibration2d.cell) ->
        if c.Calibration2d.cl_anchor then
          Alcotest.(check (float 0.))
            (Printf.sprintf "len %d batch %d exact" c.Calibration2d.cl_len
               c.Calibration2d.cl_batch)
            0. c.Calibration2d.cl_pct_error)
      report.Calibration2d.cells);
  Ascend.Exec.Service.shutdown service

(* ------------------------------------------------------------------ *)
(* Serving Cost wrapper: the table of exact prices                     *)

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
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cost"
    [
      ( "surrogate",
        [
          Alcotest.test_case "anchor schedule" `Quick test_anchor_lens;
          Alcotest.test_case "fit rejects malformed" `Quick
            test_fit_rejects_malformed;
          Alcotest.test_case "anchors reproduce" `Quick
            test_lookup_reproduces_anchors;
          Alcotest.test_case "interpolation" `Quick test_lookup_interpolates;
          Alcotest.test_case "confidence range" `Quick
            test_lookup_confidence_range;
          q monotone_interpolation_prop;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "linear keeps geometric anchors" `Quick
            test_calibration_linear_keeps_geometric_anchors;
          Alcotest.test_case "refines steps" `Quick
            test_calibration_refines_steps;
          Alcotest.test_case "zero budget pins every probe" `Quick
            test_calibration_zero_budget_pins_every_probe;
          Alcotest.test_case "pricing error propagates" `Quick
            test_calibration_propagates_pricing_error;
          Alcotest.test_case "kink in batch reproduced exactly" `Quick
            test_calibration_kink_in_batch_exact;
          Alcotest.test_case "bad arguments raise" `Quick
            test_calibration_bad_arguments;
          Alcotest.test_case "zoo spot-check within budget" `Quick
            test_calibration_within_budget_on_zoo;
        ] );
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
