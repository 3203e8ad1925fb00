(* Batch-latency costing: the decode grid (lib/decode/grid.ml), exact
   in batch and at every priced cache length and interpolated between
   priced lengths only, and the serving Cost wrapper's table of exact
   prices. *)

module Grid = Ascend.Decode.Grid
module Cost = Ascend.Serving.Cost
module Serve = Ascend.Serving.Serve
module Load_gen = Ascend.Serving.Load_gen
module Fleet = Ascend.Fleet.Fleet
module Config = Ascend.Arch.Config
module Json = Ascend.Util.Json

let entry cycles =
  {
    Cost.cycles;
    latency_s = float_of_int cycles *. 1e-9;
    energy_j = float_of_int cycles *. 1e-6;
  }

let row cycles = Array.map entry cycles

let fit_ok ~rows =
  match Grid.fit ~rows with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let synth_price f ~batch ~cache_len = Ok (entry (f ~batch ~cache_len))

let build_synth ?(max_batch = 4) ?(max_len = 8) f =
  match Grid.build ~price:(synth_price f) ~max_batch ~max_len with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Grid: priced schedule, fit, lookup                                  *)

let test_anchor_lens () =
  let lens max_len =
    Grid.lens
      (build_synth ~max_batch:1 ~max_len (fun ~batch ~cache_len:_ -> batch))
  in
  Alcotest.(check (list int)) "pow2 + max + bracket midpoints"
    [ 1; 2; 3; 4; 6; 8 ] (lens 8);
  Alcotest.(check (list int)) "max joins schedule" [ 1; 2; 3; 4; 5; 6 ]
    (lens 6);
  Alcotest.(check (list int)) "singleton" [ 1 ] (lens 1);
  Alcotest.(check (list int)) "the default bound"
    [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64 ]
    (lens 64)

let test_fit_rejects_malformed () =
  let is_error rows =
    match Grid.fit ~rows with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (is_error []);
  Alcotest.(check bool) "duplicate length" true
    (is_error [ (1, row [| 10 |]); (1, row [| 20 |]) ]);
  Alcotest.(check bool) "ragged" true
    (is_error [ (1, row [| 10; 20 |]); (2, row [| 30 |]) ]);
  Alcotest.(check bool) "empty row" true (is_error [ (1, [||]) ]);
  Alcotest.(check bool) "length below 1" true (is_error [ (0, row [| 10 |]) ])

let test_lookup_reproduces_anchors () =
  (* a batch profile with a kink: every batch of a row is that row's own
     exact entry, whatever its neighbours *)
  let rows =
    [ (1, row [| 100; 180; 500; 350 |]); (4, row [| 140; 230; 610; 420 |]) ]
  in
  let t = fit_ok ~rows in
  List.iter
    (fun (len, r) ->
      Array.iteri
        (fun i (e : Cost.entry) ->
          match Grid.lookup t ~batch:(i + 1) ~cache_len:len with
          | Some got ->
            Alcotest.(check int)
              (Printf.sprintf "len %d batch %d cycles" len (i + 1))
              e.cycles got.Cost.cycles;
            Alcotest.(check (float 0.))
              (Printf.sprintf "len %d batch %d latency" len (i + 1))
              e.latency_s got.Cost.latency_s
          | None -> Alcotest.fail "row out of range")
        r)
    rows

let test_lookup_interpolates () =
  let t = fit_ok ~rows:[ (2, row [| 180; 400 |]); (6, row [| 350; 900 |]) ] in
  let check ~batch ~cache_len ~cycles ~exact =
    match Grid.lookup t ~batch ~cache_len with
    | None -> Alcotest.fail "in range"
    | Some e ->
      Alcotest.(check int)
        (Printf.sprintf "batch %d len %d cycles" batch cache_len)
        cycles e.Cost.cycles;
      Alcotest.(check (float 1e-15)) "lerped latency" (exact *. 1e-9)
        e.Cost.latency_s;
      Alcotest.(check (float 1e-12)) "lerped energy" (exact *. 1e-6)
        e.Cost.energy_j
  in
  (* midpoint of 180 and 350 *)
  check ~batch:1 ~cache_len:4 ~cycles:265 ~exact:265.;
  (* a quarter of the way: 222.5 cycles round half away from zero *)
  check ~batch:1 ~cache_len:3 ~cycles:223 ~exact:222.5;
  (* the other batch lerps its own column *)
  check ~batch:2 ~cache_len:5 ~cycles:775 ~exact:775.

let test_lookup_confidence_range () =
  let t = fit_ok ~rows:[ (2, row [| 180; 400 |]); (4, row [| 350; 900 |]) ] in
  Alcotest.(check (list int)) "lens" [ 2; 4 ] (Grid.lens t);
  Alcotest.(check bool) "below range" true
    (Grid.lookup t ~batch:1 ~cache_len:1 = None);
  Alcotest.(check bool) "above range" true
    (Grid.lookup t ~batch:1 ~cache_len:5 = None);
  Alcotest.(check bool) "batch past the rows" true
    (Grid.lookup t ~batch:3 ~cache_len:3 = None);
  Alcotest.check_raises "batch < 1"
    (Invalid_argument "Grid.lookup: batch < 1") (fun () ->
      ignore (Grid.lookup t ~batch:0 ~cache_len:3));
  Alcotest.check_raises "cache_len < 1"
    (Invalid_argument "Grid.lookup: cache_len < 1") (fun () ->
      ignore (Grid.lookup t ~batch:1 ~cache_len:0))

(* interpolation between rows monotone in length is monotone: linear
   pieces cannot overshoot their endpoints *)
let monotone_interpolation_prop =
  QCheck.Test.make ~count:300
    ~name:"monotone anchors give monotone interpolation"
    QCheck.(
      list_of_size (Gen.int_range 2 6) (pair (int_range 1 5) (int_range 0 1000)))
    (fun steps ->
      (* positive length gaps give strictly increasing lengths; summed
         non-negative increments give nondecreasing cycles per batch *)
      let _, _, rev_rows =
        List.fold_left
          (fun (l, c, acc) (gap, inc) ->
            let l = l + gap and c = c + inc in
            (l, c, (l, row [| c; (2 * c) + 7 |]) :: acc))
          (0, 100, []) steps
      in
      match Grid.fit ~rows:(List.rev rev_rows) with
      | Error _ -> false
      | Ok t ->
        let lens = Grid.lens t in
        let lo = List.hd lens and hi = List.nth lens (List.length lens - 1) in
        List.for_all
          (fun batch ->
            let prev = ref (-1) and ok = ref true in
            for cache_len = lo to hi do
              match Grid.lookup t ~batch ~cache_len with
              | None -> ok := false
              | Some e ->
                if e.Cost.cycles < !prev then ok := false;
                prev := e.Cost.cycles
            done;
            !ok)
          [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Grid.build against synthetic oracles                                *)

(* every priced (length, batch) point answers its own exact price *)
let check_exact_at_priced_lengths f t =
  Alcotest.(check (list int)) "one row per priced length"
    [ 1; 2; 3; 4; 6; 8 ] (Grid.lens t);
  List.iter
    (fun cache_len ->
      for batch = 1 to 4 do
        match Grid.lookup t ~batch ~cache_len with
        | None -> Alcotest.fail "in range"
        | Some e ->
          Alcotest.(check int)
            (Printf.sprintf "len %d batch %d exact" cache_len batch)
            (f ~batch ~cache_len) e.Cost.cycles
      done)
    (Grid.lens t)

let jagged ~batch ~cache_len =
  1000 + (137 * cache_len * cache_len mod 911) + batch

let test_jagged_exact_at_priced_lengths () =
  check_exact_at_priced_lengths jagged (build_synth jagged)

(* a step between lengths 4 and 5: exact at every priced length, and
   the one unpriced length between 4 and 6 lies between its rows *)
let test_step_exact_at_priced_lengths () =
  let steppy ~batch ~cache_len =
    (if cache_len <= 4 then 1000 else 5000) + batch
  in
  let t = build_synth steppy in
  check_exact_at_priced_lengths steppy t;
  match Grid.lookup t ~batch:1 ~cache_len:5 with
  | None -> Alcotest.fail "in range"
  | Some e ->
    Alcotest.(check int) "len 5 lerps its bracket" 3001 e.Cost.cycles

let test_calibration_propagates_pricing_error () =
  (* two failures: the first in row order (length, then batch) is the
     one reported, and nothing past it is priced *)
  let calls = ref 0 in
  let price ~batch ~cache_len =
    incr calls;
    if batch = 1 && cache_len = 3 then Error "len 3 batch 1"
    else if batch = 4 && cache_len = 2 then Error "len 2 batch 4"
    else Ok (entry (100 * batch * cache_len))
  in
  (match Grid.build ~price ~max_batch:4 ~max_len:8 with
  | Error e -> Alcotest.(check string) "first failure aborts" "len 2 batch 4" e
  | Ok _ -> Alcotest.fail "expected Error");
  Alcotest.(check int) "rows 1 and 2 priced up to the failure" 8 !calls

(* a tiling-style kink in batch: each priced length reproduces it
   exactly, because rows hold every batch's price *)
let test_calibration_kink_in_batch_exact () =
  let kinked ~batch ~cache_len =
    10_000 + (100 * cache_len) + if batch = 3 then 300 else 0
  in
  check_exact_at_priced_lengths kinked (build_synth kinked)

let test_calibration_bad_arguments () =
  let price ~batch:_ ~cache_len:_ = Ok (entry 1) in
  Alcotest.check_raises "max_batch < 1"
    (Invalid_argument "Grid.build: max_batch < 1") (fun () ->
      ignore (Grid.build ~price ~max_batch:0 ~max_len:4));
  Alcotest.check_raises "max_len < 1"
    (Invalid_argument "Grid.build: max_len < 1") (fun () ->
      ignore (Grid.build ~price ~max_batch:2 ~max_len:0))

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
          Alcotest.test_case "step exact at priced lengths" `Quick
            test_step_exact_at_priced_lengths;
          Alcotest.test_case "jagged exact at priced lengths" `Quick
            test_jagged_exact_at_priced_lengths;
          Alcotest.test_case "pricing error propagates" `Quick
            test_calibration_propagates_pricing_error;
          Alcotest.test_case "kink in batch reproduced exactly" `Quick
            test_calibration_kink_in_batch_exact;
          Alcotest.test_case "bad arguments raise" `Quick
            test_calibration_bad_arguments;
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
