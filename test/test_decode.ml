(* Decode serving subsystem (lib/decode): KV-cache memory accounting,
   the phase-aware cost oracle, shed semantics, determinism, and the
   continuous-over-static goodput claim. *)

module Config = Ascend.Arch.Config
module Llm = Ascend.Nn.Llm
module Memory_planner = Ascend.Compiler.Memory_planner
module Engine = Ascend.Decode.Engine
module Request = Ascend.Decode.Request
module Cost = Ascend.Decode.Cost
module Metrics = Ascend.Decode.Metrics
module Load_gen = Ascend.Serving.Load_gen
module Json = Ascend.Util.Json

let llm = Llm.tiny_config

(* ------------------------------------------------------------------ *)
(* KV-cache memory accounting                                          *)

let test_kv_bytes_linear () =
  let per = Llm.kv_bytes_per_token llm in
  Alcotest.(check bool) "per-token bytes positive" true (per > 0);
  List.iter
    (fun tokens ->
      Alcotest.(check int)
        (Printf.sprintf "cache bytes linear at %d tokens" tokens)
        (tokens * per)
        (Llm.kv_cache_bytes llm ~tokens))
    [ 1; 7; 64; 512 ];
  (* the planner's graph-derived residency agrees with the model-level
     closed form: a decode step holds cache_len + 1 positions *)
  List.iter
    (fun (batch, cache_len) ->
      let g = Llm.decode ~batch ~cache_len llm in
      Alcotest.(check int)
        (Printf.sprintf "planner agrees at batch %d cache %d" batch cache_len)
        (batch * Llm.kv_cache_bytes llm ~tokens:(cache_len + 1))
        (Memory_planner.kv_cache_bytes g))
    [ (1, 8); (1, 16); (2, 8); (4, 31) ];
  (* prefill leaves a seq_len-position cache behind *)
  let g = Llm.prefill ~batch:1 ~seq_len:24 llm in
  Alcotest.(check int) "prefill cache = seq_len positions"
    (Llm.kv_cache_bytes llm ~tokens:24)
    (Memory_planner.kv_cache_bytes g)

let test_plan_hbm_rejects_kv_overflow () =
  let g = Llm.decode ~batch:1 ~cache_len:32 llm in
  let p = Memory_planner.plan g in
  let need =
    p.Memory_planner.weight_bytes
    + Memory_planner.kv_cache_bytes g
    + p.Memory_planner.peak_bytes
  in
  (match Memory_planner.plan_hbm g ~hbm_bytes:need with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("exact fit rejected: " ^ e));
  match Memory_planner.plan_hbm g ~hbm_bytes:(need - 1) with
  | Ok _ -> Alcotest.fail "overcommitted plan accepted"
  | Error e ->
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error reports the overcommit" true
      (contains (String.lowercase_ascii e) "kv"
      || contains (String.lowercase_ascii e) "resident")

(* ------------------------------------------------------------------ *)
(* Phase-aware cost oracle                                             *)

let test_cost_oracle_memo () =
  let t = Cost.create ~core:Config.lite llm in
  let entry label = function
    | Ok (e : Cost.entry) ->
      Alcotest.(check bool) (label ^ " cycles positive") true (e.cycles > 0);
      e
    | Error e -> Alcotest.fail e
  in
  let p1 = entry "prefill" (Cost.prefill t ~batch:1 ~prompt_len:8) in
  let m = Cost.misses t in
  let p2 = entry "prefill again" (Cost.prefill t ~batch:1 ~prompt_len:8) in
  Alcotest.(check int) "prefill memoised: no new misses" m (Cost.misses t);
  Alcotest.(check int) "memo returns the same price" p1.Cost.cycles
    p2.Cost.cycles;
  let d1 = entry "decode" (Cost.decode_step t ~batch:2 ~cache_len:4) in
  let m = Cost.misses t in
  let d2 = entry "decode again" (Cost.decode_step t ~batch:2 ~cache_len:4) in
  Alcotest.(check int) "decode memoised: no new misses" m (Cost.misses t);
  Alcotest.(check int) "same decode price" d1.Cost.cycles d2.Cost.cycles;
  (* a longer cache is never cheaper: attention reads more KV rows *)
  let d8 = entry "decode deep" (Cost.decode_step t ~batch:2 ~cache_len:8) in
  Alcotest.(check bool) "cycles monotone in cache length" true
    (d8.Cost.cycles >= d1.Cost.cycles)

let test_cost_oracle_bounds () =
  let t = Cost.create ~core:Config.lite llm in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Decode.Cost.prefill: batch < 1" (fun () ->
      ignore (Cost.prefill t ~batch:0 ~prompt_len:8));
  raises "Decode.Cost.prefill: prompt_len < 1" (fun () ->
      ignore (Cost.prefill t ~batch:1 ~prompt_len:0));
  raises "Decode.Cost.decode_step: batch < 1" (fun () ->
      ignore (Cost.decode_step t ~batch:0 ~cache_len:8));
  raises "Decode.Cost.decode_step: cache_len < 1" (fun () ->
      ignore (Cost.decode_step t ~batch:1 ~cache_len:0));
  Alcotest.(check int) "nothing priced" 0 (Cost.misses t + Cost.hits t)

(* ------------------------------------------------------------------ *)
(* Engine: shed semantics, determinism, continuous vs static           *)

let request id arrival_s prompt_len output_len =
  { Request.id; arrival_s; prompt_len; output_len }

let config ?(mode = Engine.Continuous) ?(max_batch = 4) ?hbm_bytes () =
  let base = Engine.default_config ~core:Config.lite () in
  let hbm_bytes = Option.value hbm_bytes ~default:base.Engine.hbm_bytes in
  { base with Engine.mode; max_batch; hbm_bytes }

let run_ok config requests =
  match Engine.run config requests with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_engine_sheds_infeasible () =
  let r =
    run_ok (config ())
      [
        request 0 0. 8 4;
        (* prompt + output - 1 past the model's max position *)
        request 1 0. llm.Llm.max_position 8;
      ]
  in
  Alcotest.(check int) "one completed" 1 r.Engine.metrics.Metrics.completed;
  Alcotest.(check int) "one shed" 1 r.Engine.metrics.Metrics.shed;
  let rec1 = List.nth r.Engine.records 1 in
  Alcotest.(check bool) "shed outcome recorded" true
    (rec1.Request.outcome = Request.Shed);
  Alcotest.(check int) "shed generates nothing" 0 (Request.tokens rec1);
  (* a KV reservation that can never fit the HBM budget sheds too *)
  let tight =
    config ~hbm_bytes:(r.Engine.weight_bytes + Llm.kv_bytes_per_token llm) ()
  in
  let r2 = run_ok tight [ request 0 0. 4 4 ] in
  Alcotest.(check int) "kv-overflow request shed" 1
    r2.Engine.metrics.Metrics.shed;
  Alcotest.(check int) "no kv ever resident" 0 r2.Engine.kv_peak_bytes

let test_engine_deterministic () =
  let requests =
    Request.of_load_gen
      ~gen:(Load_gen.create ~rate_per_s:400. ~duration_s:0.05 ~seed:9 ())
      ~prompt:(Load_gen.Geometric { mean = 8.; max_len = 16 })
      ~output:(Load_gen.Geometric { mean = 4.; max_len = 8 })
  in
  Alcotest.(check bool) "trace generated" true (List.length requests > 0);
  let run () = run_ok (config ()) requests in
  let a = Json.to_string (Engine.to_json (run ())) in
  let b = Json.to_string (Engine.to_json (run ())) in
  Alcotest.(check string) "byte-identical across runs" a b

let test_engine_accounting () =
  let requests = [ request 0 0. 6 3; request 1 0.0001 4 5 ] in
  let r = run_ok (config ()) requests in
  Alcotest.(check int) "all completed" 2 r.Engine.metrics.Metrics.completed;
  Alcotest.(check int) "token conservation" (3 + 5)
    r.Engine.metrics.Metrics.total_tokens;
  (* one prefill step per admitted request *)
  let prefills =
    List.length
      (List.filter
         (fun s -> s.Metrics.st_kind = Metrics.Prefill)
         r.Engine.steps)
  in
  Alcotest.(check int) "one prefill per request" 2 prefills;
  (* peak KV is bounded by the sum of full reservations and is positive *)
  Alcotest.(check bool) "kv peak positive" true (r.Engine.kv_peak_bytes > 0);
  let reserve p o = Llm.kv_cache_bytes llm ~tokens:(p + o - 1) in
  Alcotest.(check bool) "kv peak within reservations" true
    (r.Engine.kv_peak_bytes <= reserve 6 3 + reserve 4 5);
  List.iter
    (fun (rec_ : Request.record) ->
      Alcotest.(check bool) "ttft positive" true (Request.ttft_s rec_ > 0.);
      Alcotest.(check int) "itl gap per extra token"
        (rec_.Request.request.Request.output_len - 1)
        (Array.length rec_.Request.itl_s))
    r.Engine.records

let test_continuous_beats_static () =
  (* heavy pressure: long outputs, arrivals bunched at t=0 — static
     lockstep groups pay padding that continuous batching recovers *)
  let requests =
    Request.of_load_gen
      ~gen:(Load_gen.create ~rate_per_s:2000. ~duration_s:0.02 ~seed:3 ())
      ~prompt:(Load_gen.Geometric { mean = 8.; max_len = 16 })
      ~output:(Load_gen.Geometric { mean = 6.; max_len = 16 })
  in
  let continuous = run_ok (config ~mode:Engine.Continuous ()) requests in
  let static = run_ok (config ~mode:Engine.Static ()) requests in
  Alcotest.(check bool) "both served everything" true
    (continuous.Engine.metrics.Metrics.completed
     = static.Engine.metrics.Metrics.completed
    && continuous.Engine.metrics.Metrics.completed > 0);
  let s = Engine.speedup ~continuous ~static in
  Alcotest.(check bool)
    (Printf.sprintf "continuous goodput >= static (speedup %.3f)" s)
    true (s >= 1.);
  Alcotest.(check bool) "continuous occupancy >= static" true
    (continuous.Engine.metrics.Metrics.mean_decode_batch
    >= static.Engine.metrics.Metrics.mean_decode_batch)

(* nothing else runs the 4-layer LLM: two requests complete on it, and
   the document names its depth *)
let test_engine_small_llm () =
  let r =
    run_ok
      { (config ()) with Engine.llm = Llm.small_config }
      [ request 0 0. 6 3; request 1 0.0001 4 5 ]
  in
  Alcotest.(check int) "both completed" 2 r.Engine.metrics.Metrics.completed;
  Alcotest.(check int) "token conservation" (3 + 5)
    r.Engine.metrics.Metrics.total_tokens;
  let field k = function Some (Json.Obj kv) -> List.assoc_opt k kv | _ -> None in
  Alcotest.(check bool) "config.llm.layers is 4" true
    (Some (Engine.to_json r) |> field "config" |> field "llm" |> field "layers"
    = Some (Json.Int 4))

let test_engine_json_shape () =
  let r = run_ok (config ()) [ request 0 0. 4 2 ] in
  match Json.of_string (Json.to_string (Engine.to_json r)) with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj fields) ->
    List.iter
      (fun k ->
        Alcotest.(check bool) ("has " ^ k) true (List.mem_assoc k fields))
      [ "config"; "metrics"; "memory"; "steps"; "cost_cache" ];
    Alcotest.(check (list string))
      "cost_cache keys" [ "hits"; "misses" ]
      (match List.assoc "cost_cache" fields with
      | Json.Obj counters -> List.map fst counters
      | _ -> []);
    List.iter
      (fun k ->
        Alcotest.(check bool) ("config has no " ^ k) false
          (match List.assoc "config" fields with
          | Json.Obj config -> List.mem_assoc k config
          | _ -> true))
      [ "costing"; "max_cache_len" ]
  | Ok _ -> Alcotest.fail "expected a JSON object"

(* ------------------------------------------------------------------ *)
(* Metrics.build against a list-and-sort reference                     *)

(* every field of [Metrics.t] recomputed from the records and steps the
   slow, obvious way: gaps joined by [List.concat_map] over completed
   records in id order, a sorted list per percentile, nearest rank, and
   a left fold from 0. for the mean *)
let reference_metrics ~(records : Request.record list) ~steps =
  let completed =
    List.sort
      (fun (a : Request.record) (b : Request.record) ->
        compare a.request.Request.id b.request.Request.id)
      (List.filter (fun r -> r.Request.outcome = Request.Completed) records)
  in
  let nearest p xs =
    match List.sort Float.compare xs with
    | [] -> 0.
    | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))
  in
  let mean = function
    | [] -> 0.
    | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let ms x = 1e3 *. x in
  let ttft = List.map Request.ttft_s completed in
  let itl =
    List.concat_map (fun r -> Array.to_list r.Request.itl_s) completed
  in
  let total_tokens =
    List.fold_left (fun a r -> a + Request.tokens r) 0 completed
  in
  let makespan_s =
    List.fold_left (fun a r -> Float.max a r.Request.finish_s) 0. completed
  in
  let dur (st : Metrics.step) = st.st_finish_s -. st.st_start_s in
  let busy kind =
    List.fold_left
      (fun a (st : Metrics.step) ->
        if st.st_kind = kind then a +. dur st else a)
      0. steps
  in
  let weighted =
    List.fold_left
      (fun a (st : Metrics.step) ->
        if st.st_kind = Metrics.Decode then
          a +. (float_of_int st.st_batch *. dur st)
        else a)
      0. steps
  in
  let decode_busy_s = busy Metrics.Decode in
  {
    Metrics.completed = List.length completed;
    shed =
      List.length
        (List.filter (fun r -> r.Request.outcome = Request.Shed) records);
    total_tokens;
    makespan_s;
    tokens_per_s =
      (if makespan_s > 0. then float_of_int total_tokens /. makespan_s
       else 0.);
    ttft_p50_ms = ms (nearest 50. ttft);
    ttft_p95_ms = ms (nearest 95. ttft);
    ttft_p99_ms = ms (nearest 99. ttft);
    itl_mean_ms = ms (mean itl);
    itl_p50_ms = ms (nearest 50. itl);
    itl_p95_ms = ms (nearest 95. itl);
    itl_p99_ms = ms (nearest 99. itl);
    mean_decode_batch =
      (if decode_busy_s > 0. then weighted /. decode_busy_s else 0.);
    prefill_busy_s = busy Metrics.Prefill;
    decode_busy_s;
  }

(* JSON prints %.9g, so only a bit comparison sees a last-bit drift *)
let check_run label (run : Engine.result) =
  let r = reference_metrics ~records:run.records ~steps:run.steps in
  let m = run.metrics in
  List.iter
    (fun (name, want, got) ->
      Alcotest.(check int) (label ^ " " ^ name) want got)
    [
      ("completed", r.completed, m.completed);
      ("shed", r.shed, m.shed);
      ("total_tokens", r.total_tokens, m.total_tokens);
    ];
  List.iter
    (fun (name, want, got) ->
      Alcotest.(check int64)
        (Printf.sprintf "%s %s bits (%h vs %h)" label name want got)
        (Int64.bits_of_float want) (Int64.bits_of_float got))
    [
      ("makespan_s", r.makespan_s, m.makespan_s);
      ("tokens_per_s", r.tokens_per_s, m.tokens_per_s);
      ("ttft_p50_ms", r.ttft_p50_ms, m.ttft_p50_ms);
      ("ttft_p95_ms", r.ttft_p95_ms, m.ttft_p95_ms);
      ("ttft_p99_ms", r.ttft_p99_ms, m.ttft_p99_ms);
      ("itl_mean_ms", r.itl_mean_ms, m.itl_mean_ms);
      ("itl_p50_ms", r.itl_p50_ms, m.itl_p50_ms);
      ("itl_p95_ms", r.itl_p95_ms, m.itl_p95_ms);
      ("itl_p99_ms", r.itl_p99_ms, m.itl_p99_ms);
      ("mean_decode_batch", r.mean_decode_batch, m.mean_decode_batch);
      ("prefill_busy_s", r.prefill_busy_s, m.prefill_busy_s);
      ("decode_busy_s", r.decode_busy_s, m.decode_busy_s);
    ]

let test_metrics_bit_exact () =
  (* the decode golden's trace: `decode --core lite --rate 2000
     --duration 0.05 --mode compare` at the CLI's defaults *)
  let golden =
    Request.of_load_gen
      ~gen:(Load_gen.create ~rate_per_s:2000. ~duration_s:0.05 ~seed:42 ())
      ~prompt:(Load_gen.Geometric { mean = 16.; max_len = 48 })
      ~output:(Load_gen.Geometric { mean = 8.; max_len = 32 })
  in
  List.iter
    (fun mode ->
      let r = run_ok (config ~mode ~max_batch:8 ()) golden in
      Alcotest.(check bool) "golden trace completes requests" true
        (r.metrics.completed > 0);
      check_run ("golden " ^ Engine.mode_name mode) r)
    [ Engine.Continuous; Engine.Static ];
  (* short outputs, so some requests decode nothing, under an HBM budget
     that sheds every request reserving more than 40 cache positions *)
  let edge =
    Request.of_load_gen
      ~gen:(Load_gen.create ~rate_per_s:2000. ~duration_s:0.02 ~seed:5 ())
      ~prompt:(Load_gen.Geometric { mean = 16.; max_len = 48 })
      ~output:(Load_gen.Geometric { mean = 2.; max_len = 8 })
  in
  let weight_bytes = (run_ok (config ()) [ request 0 0. 1 1 ]).weight_bytes in
  let hbm_bytes = weight_bytes + (40 * Llm.kv_bytes_per_token llm) in
  List.iter
    (fun mode ->
      let r = run_ok (config ~mode ~hbm_bytes ()) edge in
      let exists f = List.exists f r.records in
      Alcotest.(check bool) "edge trace has a one-token request" true
        (exists (fun (rc : Request.record) ->
             rc.outcome = Request.Completed
             && rc.request.Request.output_len = 1));
      Alcotest.(check bool) "edge trace has a shed request" true
        (exists (fun (rc : Request.record) -> rc.outcome = Request.Shed));
      check_run ("edge " ^ Engine.mode_name mode) r)
    [ Engine.Continuous; Engine.Static ]

let () =
  Alcotest.run "decode"
    [
      ( "kv-memory",
        [
          Alcotest.test_case "linear in tokens" `Quick test_kv_bytes_linear;
          Alcotest.test_case "plan_hbm overflow" `Quick
            test_plan_hbm_rejects_kv_overflow;
        ] );
      ( "cost",
        [
          Alcotest.test_case "exact memo" `Quick test_cost_oracle_memo;
          Alcotest.test_case "bounds" `Quick test_cost_oracle_bounds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sheds infeasible" `Quick
            test_engine_sheds_infeasible;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "accounting" `Quick test_engine_accounting;
          Alcotest.test_case "continuous vs static" `Quick
            test_continuous_beats_static;
          Alcotest.test_case "json shape" `Quick test_engine_json_shape;
          Alcotest.test_case "small llm" `Quick test_engine_small_llm;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bit-exact against a sorted-list reference"
            `Quick test_metrics_bit_exact;
        ] );
    ]
