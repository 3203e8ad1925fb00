(* Two-tier batch-latency oracle (lib/cost): the piecewise-linear
   surrogate, the budget-driven calibration protocol, and the serving
   Cost wrapper's tier selection and fallback accounting. *)

module Surrogate = Ascend.Cost.Surrogate
module Calibration = Ascend.Cost.Calibration
module Cost = Ascend.Serving.Cost
module Serve = Ascend.Serving.Serve
module Metrics = Ascend.Serving.Metrics
module Config = Ascend.Arch.Config
module Json = Ascend.Util.Json

let entry cycles =
  {
    Surrogate.cycles;
    latency_s = float_of_int cycles *. 1e-9;
    energy_j = float_of_int cycles *. 1e-6;
  }

let fit_ok ~model ~anchors =
  match Surrogate.fit ~model ~anchors with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Surrogate: anchor schedule, fit, lookup                             *)

let test_anchor_batches () =
  Alcotest.(check (list int)) "pow2 + max" [ 1; 2; 4; 8 ]
    (Surrogate.anchor_batches ~max_batch:8);
  Alcotest.(check (list int)) "max joins schedule" [ 1; 2; 4; 6 ]
    (Surrogate.anchor_batches ~max_batch:6);
  Alcotest.(check (list int)) "singleton" [ 1 ]
    (Surrogate.anchor_batches ~max_batch:1);
  Alcotest.check_raises "max_batch < 1"
    (Invalid_argument "Surrogate.anchor_batches: max_batch < 1") (fun () ->
      ignore (Surrogate.anchor_batches ~max_batch:0))

let test_fit_rejects_malformed () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true
    (is_error (Surrogate.fit ~model:"m" ~anchors:[]));
  Alcotest.(check bool) "duplicate batch" true
    (is_error
       (Surrogate.fit ~model:"m"
          ~anchors:[ (1, entry 10); (1, entry 20) ]));
  Alcotest.(check bool) "batch below 1" true
    (is_error (Surrogate.fit ~model:"m" ~anchors:[ (0, entry 10) ]))

let test_lookup_reproduces_anchors () =
  let anchors = [ (1, entry 100); (2, entry 180); (4, entry 350) ] in
  let t = fit_ok ~model:"m" ~anchors in
  List.iter
    (fun (b, e) ->
      match Surrogate.lookup t ~batch:b with
      | Some got ->
        Alcotest.(check int)
          (Printf.sprintf "anchor %d cycles" b)
          e.Surrogate.cycles got.Surrogate.cycles;
        Alcotest.(check (float 0.))
          (Printf.sprintf "anchor %d latency" b)
          e.Surrogate.latency_s got.Surrogate.latency_s
      | None -> Alcotest.fail "anchor out of range")
    anchors

let test_lookup_interpolates () =
  (* midpoint of (2, 180) and (4, 350): cycles round to 265 *)
  let t =
    fit_ok ~model:"m" ~anchors:[ (2, entry 180); (4, entry 350) ]
  in
  match Surrogate.lookup t ~batch:3 with
  | None -> Alcotest.fail "batch 3 in range"
  | Some e ->
    Alcotest.(check int) "lerped cycles" 265 e.Surrogate.cycles;
    Alcotest.(check (float 1e-15)) "lerped latency" 265e-9
      e.Surrogate.latency_s;
    Alcotest.(check (float 1e-12)) "lerped energy" 265e-6
      e.Surrogate.energy_j

let test_lookup_confidence_range () =
  let t =
    fit_ok ~model:"m" ~anchors:[ (2, entry 180); (4, entry 350) ]
  in
  Alcotest.(check int) "min_batch" 2 (Surrogate.min_batch t);
  Alcotest.(check int) "max_batch" 4 (Surrogate.max_batch t);
  Alcotest.(check bool) "below range" true
    (Surrogate.lookup t ~batch:1 = None);
  Alcotest.(check bool) "above range" true
    (Surrogate.lookup t ~batch:5 = None);
  Alcotest.(check bool) "in_range agrees" true
    (Surrogate.in_range t ~batch:3
    && not (Surrogate.in_range t ~batch:5));
  Alcotest.check_raises "batch < 1"
    (Invalid_argument "Surrogate.lookup: batch < 1") (fun () ->
      ignore (Surrogate.lookup t ~batch:0))

(* interpolation between monotone anchors is monotone: linear pieces
   cannot overshoot their endpoints *)
let monotone_interpolation_prop =
  QCheck.Test.make ~count:300
    ~name:"monotone anchors give monotone interpolation"
    QCheck.(
      list_of_size (Gen.int_range 2 6) (pair (int_range 1 5) (int_range 0 1000)))
    (fun steps ->
      (* positive batch gaps give strictly increasing anchors; summed
         non-negative increments give nondecreasing cycles *)
      let _, _, rev_anchors =
        List.fold_left
          (fun (b, c, acc) (gap, inc) ->
            let b = b + gap and c = c + inc in
            (b, c, (b, entry c) :: acc))
          (0, 100, []) steps
      in
      let anchors = List.rev rev_anchors in
      match Surrogate.fit ~model:"m" ~anchors with
      | Error _ -> false
      | Ok t ->
        let lo = Surrogate.min_batch t and hi = Surrogate.max_batch t in
        let prev = ref (-1) in
        let ok = ref true in
        for b = lo to hi do
          (match Surrogate.lookup t ~batch:b with
          | None -> ok := false
          | Some e ->
            if e.Surrogate.cycles < !prev then ok := false;
            prev := e.Surrogate.cycles)
        done;
        !ok)

(* ------------------------------------------------------------------ *)
(* Calibration: refinement against synthetic oracles                   *)

let synth_price f ~batch = Ok (entry (f batch))

let test_calibration_linear_keeps_geometric_anchors () =
  (* cycles linear in batch: geometric anchors interpolate exactly *)
  match
    Calibration.fit ~model:"linear"
      ~price:(synth_price (fun b -> 1000 + (500 * b)))
      ~max_batch:8 ()
  with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check (list int)) "no refinement needed" [ 1; 2; 4; 8 ]
      (List.map fst (Surrogate.anchors t))

let test_calibration_refines_steps () =
  (* a tiling-style step between batches 4 and 5 that linear
     interpolation over [4;8] misses by far more than the budget *)
  let steppy b = if b <= 4 then 1000 else 5000 in
  match
    Calibration.fit ~model:"steppy" ~price:(synth_price steppy) ~max_batch:8 ()
  with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let anchors = List.map fst (Surrogate.anchors t) in
    Alcotest.(check bool) "grew past the geometric schedule" true
      (List.length anchors > 4);
    (* every batch now lands within the 5% default budget *)
    for b = 1 to 8 do
      match Surrogate.lookup t ~batch:b with
      | None -> Alcotest.fail "in range"
      | Some e ->
        let exact = float_of_int (steppy b) in
        let err =
          100. *. Float.abs (float_of_int e.Surrogate.cycles -. exact) /. exact
        in
        Alcotest.(check bool)
          (Printf.sprintf "batch %d within budget" b)
          true (err <= 5.)
    done

let test_calibration_zero_budget_pins_every_batch () =
  let jagged b = 1000 + (137 * b * b mod 911) in
  match
    Calibration.fit ~budget_pct:0. ~model:"jagged"
      ~price:(synth_price jagged) ~max_batch:6 ()
  with
  | Error e -> Alcotest.fail e
  | Ok t ->
    for b = 1 to 6 do
      match Surrogate.lookup t ~batch:b with
      | None -> Alcotest.fail "in range"
      | Some e ->
        Alcotest.(check int)
          (Printf.sprintf "batch %d exact" b)
          (jagged b) e.Surrogate.cycles
    done

let test_calibration_propagates_pricing_error () =
  let price ~batch =
    if batch = 3 then Error "boom" else Ok (entry (100 * batch))
  in
  match Calibration.fit ~model:"m" ~price ~max_batch:4 () with
  | Error e -> Alcotest.(check string) "first failure aborts" "boom" e
  | Ok _ -> Alcotest.fail "expected Error"

(* ------------------------------------------------------------------ *)
(* Calibration against the real oracle: zoo spot-checks               *)

let test_calibration_within_budget_on_zoo () =
  (* gesture on Lite is the motivating case: tiling makes cycles step
     (even non-monotonically) in batch, and the unrefined geometric
     schedule missed the budget by 7x *)
  let service = Ascend.Exec.Service.create ~jobs:1 () in
  let cases =
    [
      ("gesture", (fun ~batch -> Ascend.Nn.Gesture.build ~batch ()),
       Config.lite);
      ("face-detect", (fun ~batch -> Ascend.Nn.Face_detect.build ~batch ()),
       Config.tiny);
    ]
  in
  List.iter
    (fun (model, build, core) ->
      match
        Calibration.run ~service ~core ~model ~build ~max_batch:8 ()
      with
      | Error e -> Alcotest.fail (model ^ ": " ^ e)
      | Ok report ->
        Alcotest.(check bool)
          (model ^ " max error within budget")
          true
          (report.Calibration.max_abs_pct_error <= 5.);
        Alcotest.(check int)
          (model ^ " rows cover 1..max_batch")
          8
          (List.length report.Calibration.rows);
        (* anchors reproduce exactly, so their rows score zero *)
        List.iter
          (fun (row : Calibration.row) ->
            if row.Calibration.anchor then
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s anchor %d exact" model
                   row.Calibration.batch)
                0. row.Calibration.cycles_pct_error)
          report.Calibration.rows)
    cases;
  Ascend.Exec.Service.shutdown service

(* the 1-D protocol's batches share no fused group, so no cache entry
   outlives the batch that priced it *)
let test_calibration_drops_batch_entries () =
  let service = Ascend.Exec.Service.create ~jobs:1 () in
  (match
     Calibration.run ~service ~core:Config.tiny ~model:"gesture"
       ~build:(fun ~batch -> Ascend.Nn.Gesture.build ~batch ())
       ~max_batch:4 ()
   with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  Alcotest.(check int) "memory tier empty after the run" 0
    (Ascend.Exec.Service.stats service).Ascend.Exec.Cache.entries;
  Ascend.Exec.Service.shutdown service

(* ------------------------------------------------------------------ *)
(* Serving Cost wrapper: tier selection, fallback, determinism        *)

let gesture ~batch = Ascend.Nn.Gesture.build ~batch ()

let test_cost_surrogate_matches_calibrated_table () =
  let exact = Cost.create ~core:Config.tiny () in
  let surrogate =
    Cost.create ~costing:`Surrogate ~max_batch:4 ~core:Config.tiny ()
  in
  for batch = 1 to 4 do
    let le =
      match Cost.lookup exact ~model:"gesture" ~build:gesture ~batch with
      | Ok e -> e
      | Error e -> Alcotest.fail e
    in
    let ls =
      match Cost.lookup surrogate ~model:"gesture" ~build:gesture ~batch with
      | Ok e -> e
      | Error e -> Alcotest.fail e
    in
    let err =
      Ascend.Util.Stats.abs_pct_error
        ~reference:(float_of_int le.Cost.cycles)
        ~estimate:(float_of_int ls.Cost.cycles)
    in
    Alcotest.(check bool)
      (Printf.sprintf "batch %d within calibration budget" batch)
      true (err <= 5.)
  done;
  Alcotest.(check int) "4 interpolated lookups" 4
    (Cost.interpolated surrogate);
  Alcotest.(check int) "no fallbacks in range" 0 (Cost.fallbacks surrogate);
  Alcotest.(check int) "exact tier never interpolates" 0
    (Cost.interpolated exact)

let test_cost_fallback_beyond_max_batch () =
  let exact = Cost.create ~core:Config.tiny () in
  let surrogate =
    Cost.create ~costing:`Surrogate ~max_batch:2 ~core:Config.tiny ()
  in
  let price t batch =
    match Cost.lookup t ~model:"gesture" ~build:gesture ~batch with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let from_exact = price exact 3 in
  let from_fallback = price surrogate 3 in
  Alcotest.(check int) "fallback answers with the exact tier"
    from_exact.Cost.cycles from_fallback.Cost.cycles;
  Alcotest.(check int) "fallback counted" 1 (Cost.fallbacks surrogate);
  Alcotest.(check int) "not counted as interpolation" 0
    (Cost.interpolated surrogate)

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
  (* the surrogate trades per-lookup compilation for a calibrated
     table: beyond calibration the cache sees no new compiles *)
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

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cost"
    [
      ( "surrogate",
        [
          Alcotest.test_case "anchor schedule" `Quick test_anchor_batches;
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
          Alcotest.test_case "zero budget pins every batch" `Quick
            test_calibration_zero_budget_pins_every_batch;
          Alcotest.test_case "pricing error propagates" `Quick
            test_calibration_propagates_pricing_error;
          Alcotest.test_case "zoo spot-check within budget" `Quick
            test_calibration_within_budget_on_zoo;
          Alcotest.test_case "batch entries dropped" `Quick
            test_calibration_drops_batch_entries;
        ] );
      ( "serving-cost",
        [
          Alcotest.test_case "surrogate matches table" `Quick
            test_cost_surrogate_matches_calibrated_table;
          Alcotest.test_case "fallback beyond max_batch" `Quick
            test_cost_fallback_beyond_max_batch;
          Alcotest.test_case "surrogate serve deterministic" `Quick
            test_serve_surrogate_deterministic;
        ] );
    ]
