(* The four workloads.  Each times one real entry point in host time and
   summarises what it simulated; its traced pass additionally attributes
   host time to layers by timing calls into each layer's public functions
   from outside — nothing inside lib/ is instrumented. *)

module Json = Ascend.Util.Json
module Config = Ascend.Arch.Config
module Graph = Ascend.Nn.Graph
module Fusion = Ascend.Compiler.Fusion
module Tiling = Ascend.Compiler.Tiling
module Codegen = Ascend.Compiler.Codegen
module Engine = Ascend.Compiler.Engine
module Soc_schedule = Ascend.Compiler.Soc_schedule
module Simulator = Ascend.Core_sim.Simulator
module Sanitizer = Ascend.Core_sim.Sanitizer
module Program = Ascend.Isa.Program
module Service = Ascend.Exec.Service
module Cache = Ascend.Exec.Cache
module Scheduler = Ascend.Runtime.Scheduler
module Serve = Ascend.Serving.Serve
module Serving_metrics = Ascend.Serving.Metrics
module Load_gen = Ascend.Serving.Load_gen
module Fleet = Ascend.Fleet.Fleet
module Router = Ascend.Fleet.Router
module Decode_engine = Ascend.Decode.Engine
module Decode_metrics = Ascend.Decode.Metrics
module Decode_request = Ascend.Decode.Request
module Llm = Ascend.Nn.Llm
module Verify = Ascend.Verify
module T = Wall_trace

type rep = {
  doc : string;  (** the entry point's result JSON, as a CLI user gets it *)
  work : int;  (** requests, tokens or programs completed *)
  call_s : float;  (** host time of the entry-point call *)
  wall_s : float;  (** the call plus its JSON emission *)
  outcome : Json.t;  (** simulated statistics only, compared with expected/ *)
  violations : string list;  (** broken invariants, one line each *)
}

type instance = {
  rep : unit -> rep;
  traced : T.t -> rep * (string * int) list * float list;
      (** one traced pass: the rep under spans, then the layer replay;
          returns the deterministic per-layer counts and the host time of
          each oracle call the replay stood in for *)
}

type t = {
  name : string;
  why : string;
  loop : string;
  work_unit : string;
  setup : scale:float -> seed:int -> instance;
}

let now = T.now

let check ok fmt = Printf.ksprintf (fun s -> if ok then [] else [ s ]) fmt

let get = function Ok v -> v | Error e -> failwith e

(* Time the entry point and its JSON emission.  Under a trace both
   become spans on the run lane; the timing is taken the same way with
   or without one. *)
let measure ?trace ~call ~to_json ~work ~outcome ~violations () =
  let around cat f =
    match trace with None -> f () | Some tr -> T.span tr ~tid:T.run_lane ~cat f
  in
  let t0 = now () in
  let r = around "engine" call in
  let t1 = now () in
  let doc = around "json.emit" (fun () -> Json.to_string (to_json r)) in
  let t2 = now () in
  ( r,
    {
      doc;
      work = work r;
      call_s = t1 -. t0;
      wall_s = t2 -. t0;
      outcome = outcome r;
      violations = violations r;
    } )

(* ------------------------------------------------------------------ *)
(* The layer replay.  The exact oracle's compile path — what
   [Service.run_groups] does on one domain — rebuilt from public calls so
   each layer gets its own span.  Cache probes, inserts and the per-call
   de-duplication of missing keys mirror the service, so the replay's
   hit/miss counters must equal the real run's; [agrees] checks that the
   replay is faithful.  Where the engine calls the oracle itself (serve,
   fleet, decode), each call it made is replayed once, in order, as a
   [lookup]: the replay is both the oracle's per-layer breakdown and its
   per-call time. *)

module Replay = struct
  type t = {
    trace : T.t;
    mutable cache : unit Cache.t;
    mutable hits : int;  (** of caches already retired *)
    mutable misses : int;
    mutable entries : int;
    mutable keys : int;
    mutable programs : int;
    mutable instructions : int;
    mutable tiling_s : float;  (** the replay's own tiling searches *)
    mutable lookups : float list;  (** per replayed oracle call, newest first *)
  }

  let create trace =
    {
      trace;
      cache = Cache.create ();
      hits = 0;
      misses = 0;
      entries = 0;
      keys = 0;
      programs = 0;
      instructions = 0;
      tiling_s = 0.;
      lookups = [];
    }

  let timed r cat f =
    let start = now () in
    let v = f () in
    let dur = now () -. start in
    T.record r.trace ~tid:T.replay_lane ~cat ~start ~dur;
    (v, dur)

  let span r cat f = fst (timed r cat f)

  (* one real oracle = one private cache *)
  let fresh_cache r =
    let s = Cache.stats r.cache in
    r.hits <- r.hits + s.Cache.hits;
    r.misses <- r.misses + s.Cache.misses;
    r.entries <- r.entries + s.Cache.entries;
    r.cache <- Cache.create ()

  let totals r =
    let s = Cache.stats r.cache in
    (r.hits + s.Cache.hits, r.misses + s.Cache.misses, r.entries + s.Cache.entries)

  (* codegen runs the tiling search itself (twice per GEMM); the replay
     runs it once more on its own so the search has a span of its own *)
  let compile r ?options config (g : Fusion.t) =
    if g.kind = Fusion.Cube_anchored then
      List.iter
        (fun (gm : Ascend.Nn.Workload.gemm) ->
          let (), dur =
            timed r "tiling.choose" (fun () ->
                ignore
                  (Tiling.choose config ~precision:g.precision
                     ~img2col_expansion:g.img2col_expansion ~m:gm.m ~k:gm.k
                     ~n:gm.n ()))
          in
          r.tiling_s <- r.tiling_s +. dur)
        g.gemms;
    let program =
      span r "codegen.group_program" (fun () ->
          Codegen.group_program ?options config g)
    in
    ignore (get (span r "core_sim.run" (fun () -> Simulator.run config program)));
    r.programs <- r.programs + 1;
    r.instructions <- r.instructions + List.length program.Program.instructions

  let groups r ?options config groups =
    let keys =
      span r "exec.key" (fun () -> List.map (Service.key ?options config) groups)
    in
    r.keys <- r.keys + List.length keys;
    let missing =
      span r "exec.cache" (fun () ->
          let pending = Hashtbl.create 16 in
          List.fold_left2
            (fun acc g k ->
              match Cache.find r.cache k with
              | Some () -> acc
              | None when Hashtbl.mem pending k -> acc
              | None ->
                Hashtbl.add pending k ();
                (k, g) :: acc)
            [] groups keys)
    in
    List.iter
      (fun (k, g) ->
        compile r ?options config g;
        span r "exec.cache" (fun () -> Cache.add r.cache k ()))
      (List.rev missing)

  (* [Service.run_inference]: partition, then the groups *)
  let graph r ?options config g =
    groups r ?options config
      (span r "fusion.partition" (fun () -> Fusion.partition g))

  (* one oracle call the run made; its time, less the extra tiling
     searches the real call does not make, is the call's host time *)
  let lookup r f =
    let tiling_s = r.tiling_s in
    let (), dur = timed r "cost.replay" f in
    r.lookups <- (dur -. (r.tiling_s -. tiling_s)) :: r.lookups

  let lookups r = List.rev r.lookups

  let agrees r ~hits ~misses =
    let h, m, _ = totals r in
    check (h = hits && m = misses)
      "replay diverged from the run: cache %d hits / %d misses, run %d / %d" h
      m hits misses

  let counts r =
    let hits, misses, entries = totals r in
    [
      ("exec.keys", r.keys);
      ("exec.cache_hits", hits);
      ("exec.cache_misses", misses);
      ("exec.cache_entries", entries);
      ("codegen.programs", r.programs);
      ("core_sim.instructions", r.instructions);
    ]
end

(* a [build] that records every call the run makes to it *)
let observed_build tr build =
  let calls = ref [] in
  let build' ~batch =
    let start = now () in
    let g = build ~batch in
    T.record tr ~tid:T.observed_lane ~cat:"nn.build" ~start ~dur:(now () -. start);
    calls := (start, batch) :: !calls;
    g
  in
  (build', fun () -> List.rev !calls)

(* ------------------------------------------------------------------ *)
(* Outcome summaries and invariants shared by serve and fleet *)

let model_outcome (s : Serving_metrics.model_summary) =
  Json.Obj
    [
      ("model", Json.String s.model);
      ("offered", Json.Int s.offered);
      ("completed", Json.Int s.completed);
      ("rejected", Json.Int s.rejected);
      ("p50_ms", Json.Float s.p50_ms);
      ("p95_ms", Json.Float s.p95_ms);
      ("p99_ms", Json.Float s.p99_ms);
      ("goodput_per_s", Json.Float s.goodput_per_s);
    ]

let ordered ~what p50 p95 p99 =
  check (p50 <= p95 && p95 <= p99) "%s: p50 %g <= p95 %g <= p99 %g fails" what
    p50 p95 p99

let summary_violations (s : Serving_metrics.model_summary) =
  check
    (s.offered = s.completed + s.rejected)
    "%s: offered %d <> completed %d + rejected %d" s.model s.offered s.completed
    s.rejected
  @ ordered ~what:s.model s.p50_ms s.p95_ms s.p99_ms

(* up to float rounding: a saturated core's busy time is a sum of
   thousands of float-second spans, which can exceed its horizon by an
   ulp or two *)
let unit_interval ~what xs =
  List.concat_map
    (fun u ->
      check (u >= 0. && u <= 1. +. 1e-9) "%s %.17g outside [0, 1]" what u)
    xs

let completed summaries =
  List.fold_left
    (fun a (s : Serving_metrics.model_summary) -> a + s.completed)
    0 summaries

(* ------------------------------------------------------------------ *)

let serve_closed_pricing =
  (* Set-up is trivial here: [Serve.run] builds every graph it prices
     inside the timed call, and none of that can move out without
     changing what the entry point does. *)
  let setup ~scale ~seed =
    let core = Config.max and cores = 2 and max_batch = 4 in
    let config =
      {
        (Serve.default_config ~core ~cores) with
        Serve.duration_s = 30. *. scale;
        queue_depth = 64;
        max_batch;
      }
    in
    let spec =
      {
        Serve.name = "bert-base";
        build = (fun ~batch -> Ascend.Nn.Bert.base ~batch ~seq_len:128 ());
        priority = 0;
        slo_ms = 500.;
        workload = Serve.Closed_loop { clients = 32; think_s = 0.; seed = 31 + seed };
      }
    in
    let outcome (r : Serve.result) =
      let m = r.metrics in
      Json.Obj
        [
          ("models", Json.List (List.map model_outcome m.summaries));
          ("batches", Json.Int (List.length r.batches));
          ("offline_makespan_cycles", Json.Int r.offline_makespan_cycles);
          ( "core_utilization",
            Json.List
              (Array.to_list (Array.map (fun u -> Json.Float u) m.core_utilization))
          );
        ]
    in
    let violations (r : Serve.result) =
      List.concat_map summary_violations r.metrics.summaries
      @ unit_interval ~what:"core utilization"
          (Array.to_list r.metrics.core_utilization)
      @ unit_interval ~what:"offline utilization" [ r.offline_utilization ]
    in
    let measure ?trace spec =
      measure ?trace
        ~call:(fun () -> get (Serve.run config [ spec ]))
        ~to_json:Serve.to_json
        ~work:(fun r -> completed r.Serve.metrics.summaries)
        ~outcome ~violations ()
    in
    let traced tr =
      let build, builds = observed_build tr spec.build in
      let r, rep = measure ~trace:tr { spec with build } in
      let batches = List.map snd (builds ()) in
      let rp = Replay.create tr in
      List.iter
        (fun batch -> Replay.lookup rp (fun () -> Replay.graph rp core (spec.build ~batch)))
        batches;
      Replay.span rp "scheduler.repack" (fun () ->
          ignore (Scheduler.run ~cores (Serve.scheduler_apps r)));
      let n = List.length r.batches in
      let violations =
        Replay.agrees rp ~hits:r.cost_hits ~misses:r.cost_misses
        @ check
            (List.length batches = n)
            "%d oracle lookups for %d batches" (List.length batches) n
      in
      ( { rep with violations = rep.violations @ violations },
        Replay.counts rp @ [ ("serving.batches", n) ],
        Replay.lookups rp )
    in
    { rep = (fun () -> snd (measure spec)); traced }
  in
  {
    name = "serve-closed-pricing";
    why =
      "every batch pays one exact-oracle lookup that always hits its cache, \
       so graph build, fusion and key hashing set the pace";
    loop = "closed, 32 clients, think 0";
    work_unit = "requests";
    setup;
  }

(* ------------------------------------------------------------------ *)

let fleet_open_burst =
  let setup ~scale ~seed =
    let core = Config.tiny in
    let duration_s = 0.5 *. scale in
    let gen seed =
      Load_gen.create
        ~process:(Load_gen.Bursty { factor = 4.; period_s = 0.1 })
        ~rate_per_s:10_000. ~duration_s ~seed ()
    in
    let config =
      {
        (Fleet.default_config ~core ~nodes:4) with
        Fleet.cores_per_node = 4;
        duration_s;
        policy = Router.Round_robin;
      }
    in
    (* Set-up is trivial here: [Fleet.run] builds its graphs and draws
       its arrivals from these specs inside the timed call. *)
    let specs =
      List.map
        (fun (name, build, base_seed, replicas) ->
          {
            Fleet.name;
            build;
            priority = 0;
            slo_ms = 50.;
            replicas;
            kv_bytes = 0;
            workload = Serve.Open_loop (gen (base_seed + seed));
          })
        [
          ("gesture", (fun ~batch -> Ascend.Nn.Gesture.build ~batch ()), 21, 0);
          ("face-detect", (fun ~batch -> Ascend.Nn.Face_detect.build ~batch ()), 22, 1);
        ]
    in
    (* what the run should have been offered, drawn again for the checks
       after the timed call *)
    let offered =
      lazy
        (List.fold_left
           (fun acc (s : Fleet.model_spec) ->
             match s.workload with
             | Serve.Open_loop g -> acc + List.length (Load_gen.arrivals g)
             | Serve.Closed_loop _ -> acc)
           0 specs)
    in
    let run wrap = get (Fleet.run config (List.map wrap specs)) in
    let outcome (r : Fleet.result) =
      Json.Obj
        [
          ( "models",
            Json.List (List.map model_outcome r.fleet_metrics.summaries) );
          ("batches", Json.Int (List.length r.batches));
          ( "node_page_ins",
            Json.List
              (List.map (fun (n : Fleet.node_report) -> Json.Int n.page_ins)
                 r.node_reports) );
          ("slo_attainment", Json.Float r.slo_attainment);
        ]
    in
    let violations (r : Fleet.result) =
      let summaries = r.fleet_metrics.summaries in
      let sum f = List.fold_left (fun a s -> a + f s) 0 summaries in
      List.concat_map summary_violations summaries
      @ check
          (sum (fun s -> s.Serving_metrics.offered) = Lazy.force offered)
          "offered %d <> %d generated arrivals"
          (sum (fun s -> s.Serving_metrics.offered))
          (Lazy.force offered)
      @ check
          (List.fold_left
             (fun a (n : Fleet.node_report) -> a + n.page_ins)
             0 r.node_reports
          = r.total_page_ins)
          "per-node page-ins do not sum to %d" r.total_page_ins
      @ unit_interval ~what:"core utilization"
          (Array.to_list r.fleet_metrics.core_utilization)
      @ unit_interval ~what:"slo attainment" [ r.slo_attainment ]
    in
    let measure ?trace wrap =
      measure ?trace
        ~call:(fun () -> run wrap)
        ~to_json:Fleet.to_json
        ~work:(fun r -> completed r.Fleet.fleet_metrics.summaries)
        ~outcome ~violations ()
    in
    let traced tr =
      let observed = ref [] in
      let r, rep =
        measure ~trace:tr (fun (s : Fleet.model_spec) ->
            let build, calls = observed_build tr s.build in
            observed := (s.build, calls) :: !observed;
            { s with build })
      in
      (* every model's first build sizes its weights for placement, before
         the event loop; the rest are the oracle's lookups *)
      let calls =
        List.concat_map
          (fun (build, calls) ->
            match calls () with
            | (_, 1) :: lookups -> List.map (fun (at, b) -> (at, (build, b))) lookups
            | _ -> failwith "fleet: missing placement build")
          !observed
        |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      let rp = Replay.create tr in
      List.iter
        (fun (_, (build, batch)) ->
          Replay.lookup rp (fun () -> Replay.graph rp core (build ~batch)))
        calls;
      let batches = List.length r.batches in
      let violations =
        Replay.agrees rp ~hits:r.cost_hits ~misses:r.cost_misses
        @ check
            (List.length calls = batches)
            "%d oracle lookups for %d batches" (List.length calls) batches
      in
      ( { rep with violations = rep.violations @ violations },
        Replay.counts rp
        @ [
            ("fleet.arrivals", Lazy.force offered);
            ("fleet.batches", batches);
            ("fleet.page_ins", r.total_page_ins);
          ],
        Replay.lookups rp )
    in
    { rep = (fun () -> snd (measure Fun.id)); traced }
  in
  {
    name = "fleet-open-burst";
    why =
      "tiny graphs make pricing cheap, so arrival seeding, routing, batching \
       and per-node dispatch dominate";
    loop = "open, bursty Poisson, 2 x 10000 req/s";
    work_unit = "requests";
    setup;
  }

(* ------------------------------------------------------------------ *)

let decode_sweep =
  let setup ~scale ~seed =
    let core = Config.lite in
    (* set-up: the request trace *)
    let requests =
      Decode_request.of_load_gen
        ~gen:
          (Load_gen.create ~rate_per_s:4000. ~duration_s:(5. *. scale)
             ~seed:(3 + seed) ())
        ~prompt:(Load_gen.Geometric { mean = 16.; max_len = 48 })
        ~output:(Load_gen.Geometric { mean = 24.; max_len = 48 })
    in
    let offered = List.length requests in
    let modes = [ Decode_engine.Continuous; Decode_engine.Static ] in
    let config mode = { (Decode_engine.default_config ~core ()) with mode } in
    let run () =
      List.map (fun mode -> get (Decode_engine.run (config mode) requests)) modes
    in
    let to_json rs =
      Json.Obj
        (List.map2
           (fun mode r ->
             (Decode_engine.mode_name mode, Decode_engine.to_json r))
           modes rs)
    in
    let tokens rs =
      List.fold_left
        (fun a (r : Decode_engine.result) -> a + r.metrics.total_tokens)
        0 rs
    in
    let prefills (r : Decode_engine.result) =
      List.length
        (List.filter
           (fun (s : Decode_metrics.step) -> s.st_kind = Decode_metrics.Prefill)
           r.steps)
    in
    let outcome rs =
      Json.Obj
        (List.map2
           (fun mode (r : Decode_engine.result) ->
             let m = r.metrics in
             ( Decode_engine.mode_name mode,
               Json.Obj
                 [
                   ("completed", Json.Int m.completed);
                   ("shed", Json.Int m.shed);
                   ("total_tokens", Json.Int m.total_tokens);
                   ("steps", Json.Int (List.length r.steps));
                   ("prefills", Json.Int (prefills r));
                   ("ttft_p99_ms", Json.Float m.ttft_p99_ms);
                   ("itl_p99_ms", Json.Float m.itl_p99_ms);
                   ("makespan_s", Json.Float m.makespan_s);
                 ] ))
           modes rs)
    in
    let violations rs =
      List.concat_map
        (fun (r : Decode_engine.result) ->
          let m = r.metrics in
          let what = Decode_engine.mode_name r.run_config.mode in
          check
            (m.completed + m.shed = offered)
            "%s: completed %d + shed %d <> offered %d" what m.completed m.shed
            offered
          @ ordered ~what:(what ^ " ttft") m.ttft_p50_ms m.ttft_p95_ms
              m.ttft_p99_ms
          @ ordered ~what:(what ^ " itl") m.itl_p50_ms m.itl_p95_ms m.itl_p99_ms
          @ check
              (r.kv_peak_bytes + r.weight_bytes <= r.run_config.hbm_bytes)
              "%s: KV peak over the HBM budget" what)
        rs
      @
      match rs with
      | [ c; s ] ->
        check
          (c.metrics.total_tokens = s.metrics.total_tokens)
          "token totals differ across modes: %d vs %d" c.metrics.total_tokens
          s.metrics.total_tokens
      | _ -> []
    in
    let measure ?trace () =
      measure ?trace ~call:run ~to_json ~work:tokens ~outcome ~violations ()
    in
    let traced tr =
      let rs, rep = measure ~trace:tr () in
      let rp = Replay.create tr in
      let memo_misses = ref 0 in
      List.iteri
        (fun i (r : Decode_engine.result) ->
          let cfg = r.run_config.llm in
          (* one fresh oracle per mode, as each engine run creates its own *)
          if i > 0 then Replay.fresh_cache rp;
          (* the oracle memoises prefill per (batch, prompt length) and
             decode steps per (batch, cache length); only its misses reach
             the compile path and are replayed, so its memo probes stay in
             the loop's own time *)
          let seen = Hashtbl.create 1024 in
          List.iter
            (fun (s : Decode_metrics.step) ->
              let key =
                match s.st_kind with
                | Decode_metrics.Prefill -> (s.st_kind, s.st_batch, s.st_tokens)
                | Decode_metrics.Decode -> (s.st_kind, s.st_batch, s.st_cache_len)
              in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                incr memo_misses;
                Replay.lookup rp (fun () ->
                    let g =
                      Replay.span rp "nn.build" (fun () ->
                          match s.st_kind with
                          | Decode_metrics.Prefill ->
                            Llm.prefill ~batch:s.st_batch ~seq_len:s.st_tokens cfg
                          | Decode_metrics.Decode ->
                            Llm.decode ~batch:s.st_batch
                              ~cache_len:s.st_cache_len cfg)
                    in
                    Replay.graph rp core g)
              end)
            r.steps)
        rs;
      let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
      let violations =
        Replay.agrees rp
          ~hits:(sum (fun r -> r.Decode_engine.cost_hits))
          ~misses:(sum (fun r -> r.Decode_engine.cost_misses))
      in
      ( { rep with violations = rep.violations @ violations },
        Replay.counts rp
        @ [
            ("decode.steps", sum (fun r -> List.length r.Decode_engine.steps));
            ("decode.prefills", sum prefills);
            ("decode.cost_misses", !memo_misses);
          ],
        Replay.lookups rp )
    in
    { rep = (fun () -> snd (measure ())); traced }
  in
  {
    name = "decode-sweep";
    why =
      "about 350 distinct (batch, cache length) points each pay a cold \
       compile beside ~200k memoised token steps: compile path and token \
       loop split";
    loop = "open, Poisson 4000 req/s, continuous then static";
    work_unit = "tokens";
    setup;
  }

(* ------------------------------------------------------------------ *)

(* per program: its lint and sanitizer verdicts *)
type program_check = {
  mode : Codegen.sync_mode;
  lint : int;  (** static findings *)
  sanitized : int;  (** sanitizer findings *)
  replayed : int;  (** instructions the sanitizer replayed *)
}

type zoo_run = {
  compiled :
    (string * Graph.t * Config.t * Codegen.sync_mode * Engine.network_result) list;
  checks : program_check list;
  soc : int list;  (** whole-SoC findings per pair *)
  stats : Cache.stats;
  jobs : int;
}

let zoo_verify =
  let setup ~scale ~seed:_ =
    let models =
      [
        ("gesture", fun () -> Ascend.Nn.Gesture.build ());
        ("resnet18", fun () -> Ascend.Nn.Resnet.v1_5_18 ());
        ("resnet50", fun () -> Ascend.Nn.Resnet.v1_5 ());
        ("mobilenet", fun () -> Ascend.Nn.Mobilenet.v2 ());
        ("bert-base-s32", fun () -> Ascend.Nn.Bert.base ~seq_len:32 ());
      ]
    in
    (* the small scale keeps the first model only *)
    let models = if scale < 1. then [ List.hd models ] else models in
    (* set-up: every graph the sweep compiles, and every Table-5 core its
       precision runs on *)
    let graphs =
      List.map
        (fun (name, build) ->
          let g = build () in
          (name, g, List.filter (fun c -> Config.supports c (Graph.dtype g)) Config.all))
        models
    in
    let modes = [ Codegen.Flags; Codegen.Coarse_barriers ] in
    let options mode = { Codegen.default_options with sync_mode = mode } in
    let mode_name = function
      | Codegen.Flags -> "flags"
      | Codegen.Coarse_barriers -> "coarse_barriers"
    in
    (* One sweep: compile+simulate every (model, core, mode) through a
       fresh service — every probe misses and is inserted — then lint and
       sanitize every program on the service's pool, then the whole-SoC
       analysis per pair.  Under a trace, each call becomes a span; the
       pool's work lands on per-domain lanes. *)
    let sweep ?trace () =
      let around cat f =
        match trace with
        | None -> f ()
        | Some tr -> T.span tr ~tid:T.run_lane ~cat f
      in
      let on_worker cat f =
        match trace with None -> f () | Some tr -> T.worker_span tr ~cat f
      in
      let svc = Service.create () in
      let compiled =
        List.concat_map
          (fun (name, g, cores) ->
            List.concat_map
              (fun core ->
                List.map
                  (fun mode ->
                    let nr =
                      around "cost" (fun () ->
                          get
                            (Service.run_inference svc ~options:(options mode)
                               core g))
                    in
                    (name, g, core, mode, nr))
                  modes)
              cores)
          graphs
      in
      let programs =
        List.concat_map
          (fun (_, _, core, mode, (nr : Engine.network_result)) ->
            List.map (fun (l : Engine.layer_result) -> (core, mode, l.program)) nr.layers)
          compiled
      in
      let checks =
        around "verify.sweep" (fun () ->
            Service.map svc
              (fun (core, mode, p) ->
                let findings =
                  on_worker "verify.analyze" (fun () -> Verify.analyze core p)
                in
                let san = on_worker "sanitizer.run" (fun () -> Sanitizer.run core p) in
                {
                  mode;
                  lint = List.length findings;
                  sanitized = List.length san.Sanitizer.findings;
                  replayed = san.Sanitizer.instructions_executed;
                })
              programs)
      in
      let soc =
        List.concat_map
          (fun (_, g, cores) ->
            List.map
              (fun core ->
                around "verify.soc" (fun () ->
                    let plan, _ = Soc_schedule.build core g in
                    List.length (Verify.Soc.analyze plan)))
              cores)
          graphs
      in
      let stats = Service.stats svc and jobs = Service.jobs svc in
      Service.shutdown svc;
      { compiled; checks; soc; stats; jobs }
    in
    let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs in
    let to_json z =
      Json.Obj
        [
          ( "runs",
            Json.List
              (List.map
                 (fun (name, _, (core : Config.t), mode, (nr : Engine.network_result)) ->
                   Json.Obj
                     [
                       ("model", Json.String name);
                       ("core", Json.String core.name);
                       ("sync", Json.String (mode_name mode));
                       ("programs", Json.Int (List.length nr.layers));
                       ("cycles", Json.Int nr.total_cycles);
                     ])
                 z.compiled) );
          ("lint_findings", Json.Int (sum (fun c -> c.lint) z.checks));
          ("sanitizer_findings", Json.Int (sum (fun c -> c.sanitized) z.checks));
          ("soc_findings", Json.Int (sum Fun.id z.soc));
        ]
    in
    let outcome z =
      let per_mode mode =
        let runs = List.filter (fun (_, _, _, m, _) -> m = mode) z.compiled in
        let checks = List.filter (fun c -> c.mode = mode) z.checks in
        Json.Obj
          [
            ("programs", Json.Int (List.length checks));
            ( "cycles",
              Json.Int (sum (fun (_, _, _, _, (nr : Engine.network_result)) -> nr.total_cycles) runs) );
            ("lint_findings", Json.Int (sum (fun c -> c.lint) checks));
            ("sanitizer_findings", Json.Int (sum (fun c -> c.sanitized) checks));
          ]
      in
      Json.Obj
        (("pairs", Json.Int (List.length z.soc))
        :: ("soc_findings", Json.Int (sum Fun.id z.soc))
        :: List.map (fun m -> (mode_name m, per_mode m)) modes)
    in
    let violations z =
      let findings =
        sum (fun c -> c.lint + c.sanitized) z.checks + sum Fun.id z.soc
      in
      let nproc = Domain.recommended_domain_count () in
      check (findings = 0) "%d findings on the clean zoo" findings
      @ check (z.jobs <= nproc) "pool of %d domains exceeds nproc %d" z.jobs nproc
    in
    let measure ?trace () =
      measure ?trace ~call:(sweep ?trace) ~to_json
        ~work:(fun z -> List.length z.checks)
        ~outcome ~violations ()
    in
    let traced tr =
      let z, rep = measure ~trace:tr () in
      let rp = Replay.create tr in
      (* the graphs were built at set-up; build them again so that [nn]
         has spans here too *)
      List.iter (fun (_, build) -> ignore (Replay.span rp "nn.build" build)) models;
      (* the sweep's own oracle calls are timed in place ("cost"); the
         replay only breaks them down by layer *)
      List.iter
        (fun (_, g, core, mode, _) ->
          Replay.span rp "replay" (fun () ->
              Replay.graph rp ~options:(options mode) core g))
        z.compiled;
      ( {
          rep with
          violations =
            rep.violations
            @ Replay.agrees rp ~hits:z.stats.Cache.hits ~misses:z.stats.Cache.misses;
        },
        Replay.counts rp
        @ [
            ("exec.pool_jobs", z.jobs);
            ("verify.programs", List.length z.checks);
            ("verify.findings", sum (fun c -> c.lint) z.checks);
            ("sanitizer.instructions", sum (fun c -> c.replayed) z.checks);
            ("verify.soc_findings", sum Fun.id z.soc);
          ],
        [] )
    in
    { rep = (fun () -> snd (measure ())); traced }
  in
  {
    name = "zoo-verify";
    why =
      "the cache only misses and inserts: tiling, codegen, core_sim and the \
       verifiers run over 5 models x 21 core pairs x 2 sync modes";
    loop = "batch, fan-out over the default pool";
    work_unit = "programs";
    setup;
  }

let all = [ serve_closed_pricing; fleet_open_burst; decode_sweep; zoo_verify ]
let find name = List.find_opt (fun w -> w.name = name) all
